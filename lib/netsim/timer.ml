type t = {
  sim : Sim.t;
  action : unit -> unit;
  mutable armed : bool;
  mutable deadline : float;
  mutable order : int;
  (* keys of this timer's entries in the event queue, as a stack whose top
     is the earliest: entries pop in key order, and a new one is pushed
     only when it is earlier than every entry already queued *)
  mutable times : float array;
  mutable orders : int array;
  mutable depth : int;
  mutable wake : unit -> unit;
}

let earlier time order time' order' = time < time' || (time = time' && order < order')

let enqueue t time order =
  if t.depth = Array.length t.times then begin
    let cap = max 4 (2 * t.depth) in
    let times = Array.make cap 0.0 and orders = Array.make cap 0 in
    Array.blit t.times 0 times 0 t.depth;
    Array.blit t.orders 0 orders 0 t.depth;
    t.times <- times;
    t.orders <- orders
  end;
  t.times.(t.depth) <- time;
  t.orders.(t.depth) <- order;
  t.depth <- t.depth + 1;
  Sim.at_reserved t.sim time ~order t.wake

(* An entry popped. It is the deadline's own entry, or an earlier one left
   by a deadline that has since moved later: then make sure an entry waits
   at the current deadline's key. *)
let wake t =
  t.depth <- t.depth - 1;
  if t.armed then
    if t.orders.(t.depth) = t.order then begin
      t.armed <- false;
      t.action ()
    end
    else if
      t.depth = 0
      || earlier t.deadline t.order t.times.(t.depth - 1) t.orders.(t.depth - 1)
    then enqueue t t.deadline t.order

let create sim action =
  let t =
    {
      sim;
      action;
      armed = false;
      deadline = 0.0;
      order = 0;
      times = [||];
      orders = [||];
      depth = 0;
      wake = ignore;
    }
  in
  t.wake <- (fun () -> wake t);
  t

let arm t ~at =
  if at < Sim.now t.sim then invalid_arg "Timer.arm: deadline is in the past";
  let order = Sim.reserve t.sim in
  t.armed <- true;
  t.deadline <- at;
  t.order <- order;
  if t.depth = 0 || earlier at order t.times.(t.depth - 1) t.orders.(t.depth - 1) then
    enqueue t at order

let cancel t = t.armed <- false

type 'a t = {
  sim : Sim.t;
  sink : 'a -> unit;
  (* ring buffer of pending deliveries, oldest at [head]; capacity is a
     power of two *)
  mutable times : float array;
  mutable orders : int array;
  mutable items : 'a array;
  mutable head : int;
  mutable len : int;
  mutable fire : unit -> unit;
}

let deliver_head t =
  let x = t.items.(t.head) in
  t.head <- (t.head + 1) land (Array.length t.items - 1);
  t.len <- t.len - 1;
  if t.len > 0 then Sim.at_reserved t.sim t.times.(t.head) ~order:t.orders.(t.head) t.fire;
  t.sink x

let create sim ~sink =
  let t =
    { sim; sink; times = [||]; orders = [||]; items = [||]; head = 0; len = 0; fire = ignore }
  in
  t.fire <- (fun () -> deliver_head t);
  t

(* The item being sent fills the fresh slots, so no dummy ['a] is needed. *)
let grow t x =
  let cap = Array.length t.items in
  let cap' = max 16 (2 * cap) in
  let times = Array.make cap' 0.0 and orders = Array.make cap' 0 in
  let items = Array.make cap' x in
  for k = 0 to t.len - 1 do
    let i = (t.head + k) land (cap - 1) in
    times.(k) <- t.times.(i);
    orders.(k) <- t.orders.(i);
    items.(k) <- t.items.(i)
  done;
  t.times <- times;
  t.orders <- orders;
  t.items <- items;
  t.head <- 0

let send t ~at x =
  if at < Sim.now t.sim then invalid_arg "Delay_line.send: delivery time is in the past";
  if t.len > 0 && at < t.times.((t.head + t.len - 1) land (Array.length t.items - 1)) then
    invalid_arg "Delay_line.send: delivery times must not decrease";
  let order = Sim.reserve t.sim in
  if t.len = Array.length t.items then grow t x;
  let i = (t.head + t.len) land (Array.length t.items - 1) in
  t.times.(i) <- at;
  t.orders.(i) <- order;
  t.items.(i) <- x;
  t.len <- t.len + 1;
  if t.len = 1 then Sim.at_reserved t.sim at ~order t.fire

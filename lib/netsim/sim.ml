type t = {
  mutable clock : float;
  mutable last_event : float;
  queue : (unit -> unit) Event_queue.t;
}

let create () = { clock = 0.0; last_event = 0.0; queue = Event_queue.create () }
let now t = t.clock
let last_event t = t.last_event
let reserve t = Event_queue.reserve t.queue

let check_not_past t time =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Sim.at: scheduling at %.9f before current time %.9f" time t.clock)

let at_reserved t time ~order f =
  check_not_past t time;
  Event_queue.push_reserved t.queue ~time ~order f

let at t time f =
  check_not_past t time;
  Event_queue.push t.queue ~time f
let after t delay f = at t (t.clock +. delay) f

(* Fault realization computes absolute activation times from user-supplied
   plans; a time that already passed means "now", not a programming error. *)
let at_clamped t time f = at t (Float.max time t.clock) f

let run ?until t =
  let horizon = match until with None -> infinity | Some h -> h in
  let executed = ref 0 in
  let rec loop () =
    if not (Event_queue.is_empty t.queue) then begin
      let time = Event_queue.min_time t.queue in
      if not (time > horizon) then begin
        let f = Event_queue.pop t.queue in
        t.clock <- time;
        f ();
        incr executed;
        loop ()
      end
    end
  in
  (* expose the virtual clock so spans opened inside simulated code also
     record virtual durations; restored on exit to tolerate nested sims *)
  let prev_clock = Obs.Runtime.virtual_clock () in
  Obs.Runtime.set_virtual_clock (Some (fun () -> t.clock));
  Fun.protect ~finally:(fun () -> Obs.Runtime.set_virtual_clock prev_clock) loop;
  (* only an executed event moves the clock up to here *)
  if !executed > 0 then t.last_event <- t.clock;
  (match until with
  | Some h when t.clock < h -> t.clock <- h
  | Some _ | None -> ());
  Obs.Metrics.bump ~by:!executed "netsim.sim.events";
  Obs.Metrics.bump "netsim.sim.runs"

type t = {
  sim : Sim.t;
  mutable rate : float;
  buffer_bytes : int;
  extra_delay : float;
  sink : Packet.t -> unit;
  queue : Packet.t Queue.t;
  mutable queued_bytes : int;
  mutable busy : bool;
  mutable up : bool;
  mutable drops : int;
  mutable delivered : int;
}

let create sim ~rate ~buffer_bytes ?(extra_delay = 0.0) ~sink () =
  assert (rate > 0.0);
  {
    sim;
    rate;
    buffer_bytes;
    extra_delay;
    sink;
    queue = Queue.create ();
    queued_bytes = 0;
    busy = false;
    up = true;
    drops = 0;
    delivered = 0;
  }

(* Serve the head-of-line packet: hold it for its serialization time, then
   deliver it after the propagation of the extra delay box. A downed link
   stops dequeuing; packets already being serialized still deliver (they
   were on the wire when the flap hit). *)
let rec serve t =
  if not t.up then t.busy <- false
  else
    match Queue.take_opt t.queue with
    | None -> t.busy <- false
    | Some pkt ->
      t.busy <- true;
      t.queued_bytes <- t.queued_bytes - pkt.Packet.size;
      let tx_time = float_of_int pkt.Packet.size /. t.rate in
      Sim.after t.sim tx_time (fun () ->
          t.delivered <- t.delivered + 1;
          if t.extra_delay > 0.0 then Sim.after t.sim t.extra_delay (fun () -> t.sink pkt)
          else t.sink pkt;
          serve t)

let send t pkt =
  (* while the link is down the head packet is not "in service", so the
     queue bound applies unconditionally *)
  if t.queued_bytes + pkt.Packet.size > t.buffer_bytes && (t.busy || not t.up) then begin
    t.drops <- t.drops + 1;
    Obs.Flight.drop ~time:(Sim.now t.sim) ~size:pkt.Packet.size ~queue_bytes:t.queued_bytes
  end
  else begin
    Queue.add pkt t.queue;
    t.queued_bytes <- t.queued_bytes + pkt.Packet.size;
    Obs.Flight.enqueue ~time:(Sim.now t.sim) ~size:pkt.Packet.size
      ~queue_bytes:t.queued_bytes;
    if (not t.busy) && t.up then serve t
  end

let set_rate t rate =
  if rate > 0.0 then t.rate <- rate

let rate t = t.rate

let set_up t up =
  let was_up = t.up in
  t.up <- up;
  if up && (not was_up) && not t.busy then serve t

let queue_bytes t = t.queued_bytes
let drops t = t.drops
let delivered t = t.delivered

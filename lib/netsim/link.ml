type t = {
  sim : Sim.t;
  mutable rate : float;
  buffer_bytes : int;
  extra_delay : float;
  sink : Packet.t -> unit;
  delayed : Packet.t Delay_line.t;  (* the extra delay box *)
  (* the droptail queue: a ring of [len] packets from [head]; its
     capacity is a power of two *)
  mutable queue : Packet.t array;
  mutable head : int;
  mutable len : int;
  mutable queued_bytes : int;
  mutable busy : bool;
  mutable up : bool;
  mutable drops : int;
  mutable delivered : int;
  mutable in_service : Packet.t;  (* the packet being serialized, while [busy] *)
  mutable finish : unit -> unit;  (* [finish] on this link, allocated once *)
}

(* fills [in_service] while the link is idle, and the free queue slots *)
let no_packet = Packet.data Packet.Tcp ~id:(-1) ~seq:0 ~payload:0 ~retx:false

let push t pkt =
  let cap = Array.length t.queue in
  if t.len = cap then begin
    let queue = Array.make (2 * cap) no_packet in
    for k = 0 to t.len - 1 do
      queue.(k) <- t.queue.((t.head + k) land (cap - 1))
    done;
    t.queue <- queue;
    t.head <- 0
  end;
  t.queue.((t.head + t.len) land (Array.length t.queue - 1)) <- pkt;
  t.len <- t.len + 1

let take t =
  let pkt = t.queue.(t.head) in
  t.queue.(t.head) <- no_packet;
  t.head <- (t.head + 1) land (Array.length t.queue - 1);
  t.len <- t.len - 1;
  pkt

(* Serve the head-of-line packet: hold it for its serialization time, then
   deliver it after the propagation of the extra delay box. A downed link
   stops dequeuing; packets already being serialized still deliver (they
   were on the wire when the flap hit). *)
let rec serve t =
  if (not t.up) || t.len = 0 then begin
    t.busy <- false;
    t.in_service <- no_packet
  end
  else begin
    let pkt = take t in
    t.busy <- true;
    t.in_service <- pkt;
    t.queued_bytes <- t.queued_bytes - pkt.Packet.size;
    Sim.at t.sim (Sim.now t.sim +. (float_of_int pkt.Packet.size /. t.rate)) t.finish
  end

and finish t =
  let pkt = t.in_service in
  t.delivered <- t.delivered + 1;
  if t.extra_delay > 0.0 then
    Delay_line.send t.delayed ~at:(Sim.now t.sim +. t.extra_delay) pkt
  else t.sink pkt;
  serve t

let create sim ~rate ~buffer_bytes ?(extra_delay = 0.0) ~sink () =
  assert (rate > 0.0);
  let t =
    {
      sim;
      rate;
      buffer_bytes;
      extra_delay;
      sink;
      delayed = Delay_line.create sim ~sink;
      queue = Array.make 16 no_packet;
      head = 0;
      len = 0;
      queued_bytes = 0;
      busy = false;
      up = true;
      drops = 0;
      delivered = 0;
      in_service = no_packet;
      finish = ignore;
    }
  in
  t.finish <- (fun () -> finish t);
  t

let send t pkt =
  (* while the link is down the head packet is not "in service", so the
     queue bound applies unconditionally *)
  if t.queued_bytes + pkt.Packet.size > t.buffer_bytes && (t.busy || not t.up) then begin
    t.drops <- t.drops + 1;
    Obs.Flight.drop ~time:(Sim.now t.sim) ~size:pkt.Packet.size ~queue_bytes:t.queued_bytes
  end
  else begin
    push t pkt;
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

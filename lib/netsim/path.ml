type noise = {
  jitter_std : float;
  drop_prob : float;
  ack_compress_prob : float;
  ack_compress_delay : float;
}

let quiet =
  { jitter_std = 0.0; drop_prob = 0.0; ack_compress_prob = 0.0; ack_compress_delay = 0.0 }

let mild =
  {
    jitter_std = 0.0005;
    drop_prob = 0.00005;
    ack_compress_prob = 0.02;
    ack_compress_delay = 0.004;
  }

let heavy =
  {
    jitter_std = 0.002;
    drop_prob = 0.0005;
    ack_compress_prob = 0.10;
    ack_compress_delay = 0.012;
  }

let scale n k =
  {
    jitter_std = n.jitter_std *. k;
    drop_prob = n.drop_prob *. k;
    ack_compress_prob = n.ack_compress_prob *. k;
    ack_compress_delay = n.ack_compress_delay;
  }

type fault_decision = Pass | Fault_drop | Fault_delay of float | Fault_duplicate of float

type t = {
  sim : Sim.t;
  rng : Rng.t;
  delay : float;
  noise : noise;
  sink : Packet.t -> unit;
  mutable last_delivery : float;
  mutable dropped : int;
  mutable fault : (now:float -> Packet.t -> fault_decision) option;
}

let create sim rng ~delay ~noise ~sink =
  {
    sim;
    rng;
    delay;
    noise;
    sink;
    last_delivery = 0.0;
    dropped = 0;
    fault = None;
  }

let set_fault t f = t.fault <- Some f

let send t pkt =
  let decision =
    match t.fault with None -> Pass | Some f -> f ~now:(Sim.now t.sim) pkt
  in
  (match decision with
  | Fault_drop | Fault_delay _ | Fault_duplicate _ ->
    let family =
      match decision with
      | Fault_drop -> "path.drop"
      | Fault_delay _ -> "path.delay"
      | Fault_duplicate _ -> "path.duplicate"
      | Pass -> assert false
    in
    Obs.Flight.path_fault ~time:(Sim.now t.sim) ~family
      ~detail:(if pkt.Packet.is_ack then "ack" else "data")
  | Pass -> ());
  match decision with
  | Fault_drop -> t.dropped <- t.dropped + 1
  | (Pass | Fault_delay _ | Fault_duplicate _) as decision ->
  if Rng.bool t.rng t.noise.drop_prob then t.dropped <- t.dropped + 1
  else begin
    let jitter =
      if t.noise.jitter_std > 0.0 then
        Float.abs (Rng.gaussian t.rng ~mean:0.0 ~std:t.noise.jitter_std)
      else 0.0
    in
    let compression =
      if pkt.Packet.is_ack && Rng.bool t.rng t.noise.ack_compress_prob then
        Rng.uniform t.rng 0.0 t.noise.ack_compress_delay
      else 0.0
    in
    let target = Sim.now t.sim +. t.delay +. jitter +. compression in
    (* Keep the segment order-preserving: a delayed packet pushes later ones
       behind it, which is exactly what ACK compression looks like on the
       wire (a silent gap then a burst). *)
    let delivery = Float.max target t.last_delivery in
    t.last_delivery <- delivery;
    match decision with
    | Pass | Fault_drop -> Sim.at t.sim delivery (fun () -> t.sink pkt)
    | Fault_delay extra ->
      (* The injected hold is NOT folded into [last_delivery]: packets sent
         afterwards may overtake this one, which is what makes the fault a
         reordering and not just added latency. *)
      Sim.at t.sim (delivery +. Float.max 0.0 extra) (fun () -> t.sink pkt)
    | Fault_duplicate extra ->
      Sim.at t.sim delivery (fun () -> t.sink pkt);
      Sim.at t.sim (delivery +. Float.max 0.0 extra) (fun () -> t.sink pkt)
  end

let dropped t = t.dropped

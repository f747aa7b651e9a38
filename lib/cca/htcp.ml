let delta_l = 1.0 (* seconds of low-speed regime after a back-off *)

type htcp_state = { mutable rtt_min : float; mutable rtt_max : float }

let create params =
  let hs = { rtt_min = infinity; rtt_max = 0.0 } in
  let beta () =
    (* guard against the no-samples-yet state (min/max not yet finite) *)
    if hs.rtt_max <= 0.0 || not (Float.is_finite hs.rtt_max) || not (Float.is_finite hs.rtt_min)
    then 0.5
    else Float.max 0.5 (Float.min 0.8 (hs.rtt_min /. hs.rtt_max))
  in
  let on_event _ (ev : Cca_core.ack_event) =
    hs.rtt_min <- Float.min hs.rtt_min ev.sample.rtt;
    hs.rtt_max <- Float.max hs.rtt_max ev.sample.rtt
  in
  let ca_increment (s : Loss_based.state) (ev : Cca_core.ack_event) =
    let acked_mss = float_of_int ev.Cca_core.acked /. float_of_int params.Cca_core.mss in
    let delta = ev.sample.now -. s.last_loss_at in
    let alpha =
      if delta <= delta_l || Float.is_nan delta then 1.0
      else begin
        let d = delta -. delta_l in
        let a = 1.0 +. (10.0 *. d) +. (0.25 *. d *. d) in
        (* H-TCP scales alpha so throughput is invariant to beta; the cap
           keeps pathological loss-free stretches from exploding *)
        Float.min 100.0 (2.0 *. (1.0 -. beta ()) *. a)
      end
    in
    Float.max 1.0 alpha /. s.cwnd *. acked_mss
  in
  let backoff (s : Loss_based.state) _ =
    let b = beta () in
    (* reset the RTT spread estimate each epoch *)
    hs.rtt_max <- hs.rtt_min;
    s.cwnd *. b
  in
  Loss_based.build ~name:"htcp" ~params ~on_event ~ca_increment ~backoff ()

(* The reference YeAH uses Q_max = 80 packets, sized for its large-window
   target environments; our measurement profiles cap windows at ~66
   packets, so the threshold scales down to stay meaningful. *)
let q_max = 20.0
let phi = 0.125 (* max queueing-to-propagation delay ratio for fast mode *)
let stcp_a = 0.01

type yeah_state = {
  mutable base_rtt : float;
  mutable epoch_min_rtt : float;
  mutable epoch_end : float;
  mutable fast_mode : bool;
  mutable queue : float;  (** last estimated backlog, packets *)
  mutable decongest : float;  (** pending precautionary reduction *)
}

let create params =
  let ys =
    {
      base_rtt = infinity;
      epoch_min_rtt = infinity;
      epoch_end = 0.0;
      fast_mode = true;
      queue = 0.0;
      decongest = 0.0;
    }
  in
  let on_event (s : Loss_based.state) (ev : Cca_core.ack_event) =
    ys.base_rtt <- Float.min ys.base_rtt ev.sample.rtt;
    ys.epoch_min_rtt <- Float.min ys.epoch_min_rtt ev.sample.rtt;
    if ev.sample.now >= ys.epoch_end then begin
      let rtt = if Float.is_finite ys.epoch_min_rtt then ys.epoch_min_rtt else ev.sample.rtt in
      let queueing = Float.max 0.0 (rtt -. ys.base_rtt) in
      ys.queue <- s.cwnd *. queueing /. rtt;
      let ratio = queueing /. Float.max 1e-6 ys.base_rtt in
      if ys.queue > q_max || ratio > phi then begin
        ys.fast_mode <- false;
        (* precautionary decongestion: drain the measured backlog *)
        if ys.queue > q_max then ys.decongest <- ys.queue /. 2.0
      end
      else ys.fast_mode <- true;
      ys.epoch_min_rtt <- infinity;
      ys.epoch_end <- ev.sample.now +. rtt
    end
  in
  let ca_increment (s : Loss_based.state) (ev : Cca_core.ack_event) =
    let acked_mss = float_of_int ev.Cca_core.acked /. float_of_int params.Cca_core.mss in
    if ys.decongest > 0.0 then begin
      let dec = Float.min ys.decongest acked_mss in
      ys.decongest <- ys.decongest -. dec;
      -.dec
    end
    else if ys.fast_mode then stcp_a *. acked_mss
    else acked_mss /. s.cwnd
  in
  let backoff (s : Loss_based.state) _ =
    let reduction = Float.max (ys.queue) (s.cwnd /. 8.0) in
    Float.max 2.0 (s.cwnd -. Float.min reduction (s.cwnd /. 2.0))
  in
  Loss_based.build ~name:"yeah" ~params ~on_event ~ca_increment ~backoff ()

type ww_state = {
  mutable bw_est : float;  (** bytes/s, low-pass filtered *)
  mutable sample_start : float;
  mutable sample_bytes : int;
  mutable rtt_min : float;
}

let create params =
  let ws = { bw_est = 0.0; sample_start = 0.0; sample_bytes = 0; rtt_min = infinity } in
  let on_event _ (ev : Cca_core.ack_event) =
    ws.rtt_min <- Float.min ws.rtt_min ev.sample.rtt;
    ws.sample_bytes <- ws.sample_bytes + ev.acked;
    let elapsed = ev.sample.now -. ws.sample_start in
    if elapsed >= ev.sample.srtt && elapsed > 0.0 then begin
      let sample = float_of_int ws.sample_bytes /. elapsed in
      ws.bw_est <-
        (if ws.bw_est = 0.0 then sample else (0.9 *. ws.bw_est) +. (0.1 *. sample));
      ws.sample_start <- ev.sample.now;
      ws.sample_bytes <- 0
    end
  in
  let ca_increment (s : Loss_based.state) (ev : Cca_core.ack_event) =
    let acked_mss = float_of_int ev.Cca_core.acked /. float_of_int params.Cca_core.mss in
    acked_mss /. s.cwnd
  in
  let backoff (s : Loss_based.state) _ =
    if ws.bw_est > 0.0 && Float.is_finite ws.rtt_min then
      ws.bw_est *. ws.rtt_min /. float_of_int params.Cca_core.mss
    else s.cwnd /. 2.0
  in
  Loss_based.build ~name:"westwood" ~params ~on_event ~ca_increment ~backoff ()

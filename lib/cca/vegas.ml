let alpha = 2.0
let beta = 4.0
let gamma = 1.0

type vegas_state = {
  mutable base_rtt : float;
  mutable epoch_min_rtt : float;
  mutable epoch_end : float;
  mutable pending : float;  (** window adjustment decided at epoch boundary *)
}

let create params =
  let vs = { base_rtt = infinity; epoch_min_rtt = infinity; epoch_end = 0.0; pending = 0.0 } in
  let on_event (s : Loss_based.state) (ev : Cca_core.ack_event) =
    vs.base_rtt <- Float.min vs.base_rtt ev.sample.rtt;
    vs.epoch_min_rtt <- Float.min vs.epoch_min_rtt ev.sample.rtt;
    if ev.sample.now >= vs.epoch_end then begin
      let rtt = if Float.is_finite vs.epoch_min_rtt then vs.epoch_min_rtt else ev.sample.rtt in
      let diff = s.cwnd *. (rtt -. vs.base_rtt) /. rtt in
      if Loss_based.in_slow_start s then begin
        (* leave slow start as soon as the backlog builds past gamma *)
        if diff > gamma then s.ssthresh <- Float.min s.ssthresh s.cwnd
      end
      else if diff < alpha then vs.pending <- 1.0
      else if diff > beta then vs.pending <- -1.0
      else vs.pending <- 0.0;
      vs.epoch_min_rtt <- infinity;
      vs.epoch_end <- ev.sample.now +. rtt
    end
  in
  let ca_increment (s : Loss_based.state) (ev : Cca_core.ack_event) =
    let acked_mss = float_of_int ev.Cca_core.acked /. float_of_int params.Cca_core.mss in
    (* spread the per-RTT +-1 MSS decision over the acks of the epoch *)
    vs.pending /. s.cwnd *. acked_mss
  in
  let backoff (s : Loss_based.state) _ = s.cwnd /. 2.0 in
  Loss_based.build ~name:"vegas" ~params ~on_event ~ca_increment ~backoff ()

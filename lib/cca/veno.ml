let beta = 3.0

type veno_state = { mutable base_rtt : float; mutable last_rtt : float }

let create params =
  let vs = { base_rtt = infinity; last_rtt = 0.0 } in
  let backlog (s : Loss_based.state) =
    if vs.last_rtt <= 0.0 then 0.0
    else s.cwnd *. (vs.last_rtt -. vs.base_rtt) /. vs.last_rtt
  in
  let on_event _ (ev : Cca_core.ack_event) =
    vs.base_rtt <- Float.min vs.base_rtt ev.sample.rtt;
    vs.last_rtt <- ev.sample.rtt
  in
  let ca_increment (s : Loss_based.state) (ev : Cca_core.ack_event) =
    let acked_mss = float_of_int ev.Cca_core.acked /. float_of_int params.Cca_core.mss in
    if backlog s < beta then acked_mss /. s.cwnd
    else acked_mss /. (2.0 *. s.cwnd) (* available bandwidth fully used *)
  in
  let backoff (s : Loss_based.state) _ =
    if backlog s < beta then s.cwnd *. 0.8 (* presume random, not congestive *)
    else s.cwnd /. 2.0
  in
  Loss_based.build ~name:"veno" ~params ~on_event ~ca_increment ~backoff ()

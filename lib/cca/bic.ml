let beta = 0.8
let s_max = 32.0
let s_min = 0.01
let low_window = 14.0

let create params =
  let w_max = ref 0.0 in
  let ca_increment (s : Loss_based.state) (ev : Cca_core.ack_event) =
    let acked_mss = float_of_int ev.Cca_core.acked /. float_of_int params.Cca_core.mss in
    let per_rtt =
      if s.cwnd < low_window then 1.0 (* standard TCP below the threshold *)
      else if s.cwnd < !w_max then begin
        (* binary search increase towards the previous maximum *)
        let dist = (!w_max -. s.cwnd) /. 2.0 in
        Float.min s_max (Float.max s_min dist)
      end
      else begin
        (* max probing: slow start away from w_max, capped *)
        let dist = s.cwnd -. !w_max +. 1.0 in
        Float.min s_max (Float.max s_min dist)
      end
    in
    per_rtt /. s.cwnd *. acked_mss
  in
  let backoff (s : Loss_based.state) _ =
    if s.cwnd < !w_max then
      (* fast convergence *)
      w_max := s.cwnd *. (2.0 -. beta) /. 2.0
    else w_max := s.cwnd;
    if s.cwnd < low_window then s.cwnd /. 2.0 else s.cwnd *. beta
  in
  Loss_based.build ~name:"bic" ~params ~ca_increment ~backoff ()

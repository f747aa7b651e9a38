let default_c = 0.4 (* MSS / s^3 *)
let default_beta = 0.7

type cubic_state = {
  mutable w_max : float;
  mutable k : float;
  mutable epoch_start : float;
  mutable tcp_epoch_cwnd : float;
}

let create_custom ?(c = default_c) ?(beta = default_beta) params =
  let cs = { w_max = 0.0; k = 0.0; epoch_start = nan; tcp_epoch_cwnd = 0.0 } in
  let ca_increment (s : Loss_based.state) (ev : Cca_core.ack_event) =
    if Float.is_nan cs.epoch_start then begin
      (* First congestion-avoidance ack of an epoch (e.g. after slow start
         ended without a loss): anchor the cubic at the current window. *)
      cs.epoch_start <- ev.sample.now;
      if cs.w_max < s.cwnd then begin
        cs.w_max <- s.cwnd;
        cs.k <- 0.0
      end
      else cs.k <- Float.cbrt (cs.w_max *. (1.0 -. beta) /. c);
      cs.tcp_epoch_cwnd <- s.cwnd
    end;
    let t = ev.sample.now -. cs.epoch_start in
    let target = cs.w_max +. (c *. ((t -. cs.k) ** 3.0)) in
    (* TCP-friendly region: the window standard TCP would have reached. *)
    let w_tcp =
      cs.tcp_epoch_cwnd
      +. (3.0 *. (1.0 -. beta) /. (1.0 +. beta) *. (t /. Float.max 1e-3 ev.sample.srtt))
    in
    let target = Float.max target w_tcp in
    if target > s.cwnd then (target -. s.cwnd) /. s.cwnd else 0.01 /. s.cwnd
  in
  let backoff (s : Loss_based.state) _ =
    (* Fast convergence: release bandwidth when the window stopped growing. *)
    if s.cwnd < cs.w_max then cs.w_max <- s.cwnd *. (1.0 +. beta) /. 2.0
    else cs.w_max <- s.cwnd;
    cs.epoch_start <- nan;
    s.cwnd *. beta
  in
  let after_loss _ _ = cs.epoch_start <- nan in
  Loss_based.build ~name:"cubic" ~params ~ca_increment ~backoff ~after_loss ()

let create params = create_custom params

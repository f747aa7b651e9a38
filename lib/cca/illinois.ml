let alpha_max = 10.0
let alpha_min = 0.3
let beta_min = 0.125
let beta_max = 0.5

type ill_state = { mutable base_rtt : float; mutable max_rtt : float; mutable avg_rtt : float }

let create params =
  let is = { base_rtt = infinity; max_rtt = 0.0; avg_rtt = 0.0 } in
  let on_event _ (ev : Cca_core.ack_event) =
    is.base_rtt <- Float.min is.base_rtt ev.sample.rtt;
    is.max_rtt <- Float.max is.max_rtt ev.sample.rtt;
    is.avg_rtt <-
      (if is.avg_rtt = 0.0 then ev.sample.rtt else (0.9 *. is.avg_rtt) +. (0.1 *. ev.sample.rtt))
  in
  let delays () =
    let da = Float.max 0.0 (is.avg_rtt -. is.base_rtt) in
    let dm = Float.max 1e-6 (is.max_rtt -. is.base_rtt) in
    (da, dm)
  in
  let alpha () =
    let da, dm = delays () in
    let d1 = 0.01 *. dm in
    if da <= d1 then alpha_max
    else begin
      (* alpha(d) = k1 / (k2 + d), fixed so alpha(d1)=alpha_max, alpha(dm)=alpha_min *)
      let k2 = ((dm -. d1) *. alpha_min /. (alpha_max -. alpha_min)) -. d1 in
      let k1 = (dm +. k2) *. alpha_min in
      Float.max alpha_min (k1 /. (k2 +. da))
    end
  in
  let beta () =
    let da, dm = delays () in
    let d2 = 0.1 *. dm and d3 = 0.8 *. dm in
    if da <= d2 then beta_min
    else if da >= d3 then beta_max
    else beta_min +. ((beta_max -. beta_min) *. (da -. d2) /. (d3 -. d2))
  in
  let ca_increment (s : Loss_based.state) (ev : Cca_core.ack_event) =
    let acked_mss = float_of_int ev.Cca_core.acked /. float_of_int params.Cca_core.mss in
    alpha () /. s.cwnd *. acked_mss
  in
  let backoff (s : Loss_based.state) _ = s.cwnd *. (1.0 -. beta ()) in
  Loss_based.build ~name:"illinois" ~params ~on_event ~ca_increment ~backoff ()

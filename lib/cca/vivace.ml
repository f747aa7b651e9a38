let epsilon = 0.05
let rtt_gradient_coeff = 900.0
let loss_coeff = 11.35
let exponent = 0.9

type probe_phase = Up | Down

type mi = {
  mutable start : float;
  mutable bytes : int;
  (* least-squares accumulators for the RTT-vs-time slope: a robust
     gradient, where last-minus-first would be swamped by ack jitter *)
  mutable n : int;
  mutable sum_t : float;
  mutable sum_r : float;
  mutable sum_tr : float;
  mutable sum_tt : float;
  mutable losses : int;
}

type vv_state = {
  mutable rate : float;  (** bytes/s base rate *)
  mutable phase : probe_phase;
  mutable mi : mi;
  mutable utility_up : float;
  mutable mi_end : float;
  mutable step : float;  (** multiplicative gradient step size *)
}

(* Vivace utility of a monitor interval, in packet-rate terms. *)
let utility ~rate ~rtt_gradient ~loss_rate =
  (rate ** exponent)
  -. (rtt_gradient_coeff *. rate *. Float.max 0.0 rtt_gradient)
  -. (loss_coeff *. rate *. loss_rate)

let fresh_mi now =
  { start = now; bytes = 0; n = 0; sum_t = 0.0; sum_r = 0.0; sum_tr = 0.0; sum_tt = 0.0;
    losses = 0 }

let mi_rtt_slope mi =
  if mi.n < 3 then 0.0
  else begin
    let nf = float_of_int mi.n in
    let denom = (nf *. mi.sum_tt) -. (mi.sum_t *. mi.sum_t) in
    if Float.abs denom < 1e-12 then 0.0
    else ((nf *. mi.sum_tr) -. (mi.sum_t *. mi.sum_r)) /. denom
  end

let create params =
  let s =
    {
      rate = 20_000.0;
      phase = Up;
      mi = fresh_mi 0.0;
      utility_up = 0.0;
      mi_end = 0.0;
      step = 0.02;
    }
  in
  let mss = float_of_int params.Cca_core.mss in
  let finish_mi (ev : Cca_core.ack_event) =
    (* accounting starts one RTT into the MI (see on_ack), so the window
       is the second half of a 2-RTT interval *)
    let elapsed = Float.max 1e-3 (ev.sample.now -. s.mi.start -. ev.sample.srtt) in
    let achieved = float_of_int s.mi.bytes /. elapsed /. mss in
    let rtt_gradient = mi_rtt_slope s.mi in
    (* dead-zone the fitted gradient: residual jitter must not masquerade
       as queue build-up (cf. PCC's robust monitor intervals) *)
    let rtt_gradient = if Float.abs rtt_gradient < 0.005 then 0.0 else rtt_gradient in
    let sent = achieved *. elapsed in
    let loss_rate =
      if sent > 0.0 then float_of_int s.mi.losses /. (sent +. float_of_int s.mi.losses)
      else 0.0
    in
    let u = utility ~rate:achieved ~rtt_gradient ~loss_rate in
    (match s.phase with
    | Up ->
      s.utility_up <- u;
      s.phase <- Down
    | Down ->
      (* move the base rate towards the better-scoring probe *)
      if s.utility_up > u then s.rate <- s.rate *. (1.0 +. s.step)
      else s.rate <- s.rate *. (1.0 -. s.step);
      s.rate <- Float.max 2_000.0 s.rate;
      s.phase <- Up);
    s.mi <- fresh_mi ev.sample.now;
    s.mi_end <- ev.sample.now +. (2.0 *. Float.max 0.05 ev.sample.srtt)
  in
  let on_ack (ev : Cca_core.ack_event) =
    let t = ev.sample.now -. s.mi.start in
    (* acks arriving in the first RTT of the MI were clocked by the
       previous probe rate; counting them would invert the gradient *)
    if t >= ev.sample.srtt then begin
      s.mi.bytes <- s.mi.bytes + ev.acked;
      s.mi.n <- s.mi.n + 1;
      s.mi.sum_t <- s.mi.sum_t +. t;
      s.mi.sum_r <- s.mi.sum_r +. ev.sample.rtt;
      s.mi.sum_tr <- s.mi.sum_tr +. (t *. ev.sample.rtt);
      s.mi.sum_tt <- s.mi.sum_tt +. (t *. t)
    end;
    if ev.sample.now >= s.mi_end then finish_mi ev
  in
  let on_loss _ = s.mi.losses <- s.mi.losses + 1 in
  let gain () = match s.phase with Up -> 1.0 +. epsilon | Down -> 1.0 -. epsilon in
  let pacing_rate () = Some (s.rate *. gain ()) in
  {
    Cca_core.name = "vivace";
    cwnd = (fun () -> 400.0 *. mss) (* safeguard only *);
    pacing_rate;
    snapshot =
      (fun snap ->
        snap.Cca_core.snap_cwnd <- 400.0 *. mss;
        snap.snap_ssthresh <- -1.0;
        snap.snap_pacing <- s.rate *. gain ();
        match s.phase with Up -> "probe_up" | Down -> "probe_down");
    on_ack;
    on_loss;
  }

type variant = V1 | V2 | V3

type mode =
  | Startup
  | Drain
  | Probe_bw of int  (** v1: index into the gain cycle *)
  | Cruise  (** v2/v3 steady sending at the estimated bandwidth *)
  | Probe_up
  | Probe_down
  | Probe_rtt of { until : float; resume : mode }

type state = {
  variant : variant;
  params : Cca_core.params;
  pacing_gain_up : float;
  bw_filter : Cca_core.Max_filter.f;
  mutable min_rtt : float;
  mutable min_rtt_stamp : float;
  mutable mode : mode;
  mutable full_bw : float;
  mutable full_bw_rounds : int;
  mutable round_end : float;
  mutable phase_end : float;
  mutable inflight_hi : float;  (** bytes; v2/v3 loss-adaptive ceiling *)
  mutable cwnd : float;  (** bytes *)
}

let startup_gain = 2.885

let probe_rtt_interval = function V1 -> 10.0 | V2 -> 5.0 | V3 -> 10.0
let probe_rtt_duration = 0.2
let cruise_len = function V2 -> 2.5 | V3 -> 3.0 | V1 -> 0.0

let v1_cycle ~up = [| up; 0.75; 1.0; 1.0; 1.0; 1.0; 1.0; 1.0 |]

let bw s = Cca_core.Max_filter.get s.bw_filter

let bdp s =
  let b = bw s in
  if b <= 0.0 || not (Float.is_finite s.min_rtt) then
    float_of_int (s.params.Cca_core.initial_cwnd * s.params.Cca_core.mss)
  else b *. s.min_rtt

let mss_f s = float_of_int s.params.Cca_core.mss

let pacing_gain s =
  match s.mode with
  | Startup -> startup_gain
  | Drain -> 1.0 /. startup_gain
  | Probe_bw i -> (v1_cycle ~up:s.pacing_gain_up).(i)
  | Cruise -> 1.1 (* window-bound: a flat, stable cruise *)
  | Probe_up -> s.pacing_gain_up
  | Probe_down -> 0.75
  | Probe_rtt _ -> 1.0

let cwnd_target s =
  let gain =
    match s.mode with
    | Startup | Drain -> startup_gain
    | Probe_rtt _ -> 0.0 (* collapses to the 4-MSS floor below *)
    | Probe_bw _ | Cruise | Probe_up | Probe_down -> 2.0
  in
  let base = Float.max (gain *. bdp s) (4.0 *. mss_f s) in
  match s.variant with
  | V1 -> base
  | V2 | V3 ->
    (* keep headroom below the loss-derived inflight ceiling *)
    if s.inflight_hi > 0.0 && s.mode <> Startup then Float.min base (0.9 *. s.inflight_hi)
    else base

let steady_mode s = match s.variant with V1 -> Probe_bw 0 | V2 | V3 -> Cruise

let enter_steady s now =
  s.mode <- steady_mode s;
  s.phase_end <- now +. (match s.variant with V1 -> s.min_rtt | V2 | V3 -> cruise_len s.variant)

let advance_phase s (ev : Cca_core.ack_event) =
  let now = ev.sample.now in
  match s.mode with
  | Startup ->
    (* declare the pipe full when bandwidth stops growing for 3 rounds *)
    if now >= s.round_end then begin
      s.round_end <- now +. ev.sample.srtt;
      let b = bw s in
      if b > s.full_bw *. 1.25 then begin
        s.full_bw <- b;
        s.full_bw_rounds <- 0
      end
      else begin
        s.full_bw_rounds <- s.full_bw_rounds + 1;
        if s.full_bw_rounds >= 3 then s.mode <- Drain
      end
    end
  | Drain -> if float_of_int ev.inflight <= bdp s then enter_steady s now
  | Probe_bw i ->
    if now >= s.phase_end then begin
      let next = (i + 1) mod 8 in
      s.mode <- Probe_bw next;
      s.phase_end <- now +. Float.max 1e-3 s.min_rtt
    end
  | Cruise ->
    if now >= s.phase_end then begin
      s.mode <- Probe_up;
      s.phase_end <- now +. (2.0 *. Float.max 1e-3 s.min_rtt)
    end
  | Probe_up ->
    let ceiling = if s.inflight_hi > 0.0 then s.inflight_hi else 1.25 *. bdp s in
    if now >= s.phase_end || float_of_int ev.inflight >= ceiling then begin
      (* a loss-free probe earns back inflight headroom *)
      if s.inflight_hi > 0.0 then s.inflight_hi <- s.inflight_hi *. 1.15;
      s.mode <- Probe_down;
      s.phase_end <- now +. (2.0 *. Float.max 1e-3 s.min_rtt)
    end
  | Probe_down -> if float_of_int ev.inflight <= bdp s then enter_steady s now
  | Probe_rtt { until; resume } ->
    if now >= until then begin
      s.min_rtt_stamp <- now;
      (match resume with
      | Cruise | Probe_bw _ -> enter_steady s now
      | other -> s.mode <- other)
    end

let maybe_enter_probe_rtt s now =
  match s.mode with
  | Probe_rtt _ | Startup | Drain -> ()
  | Probe_bw _ | Cruise | Probe_up | Probe_down ->
    if now -. s.min_rtt_stamp > probe_rtt_interval s.variant then
      s.mode <-
        Probe_rtt
          { until = now +. probe_rtt_duration +. Float.max 1e-3 s.min_rtt; resume = steady_mode s }

let create ?(pacing_gain_up = 1.25) variant params =
  let s =
    {
      variant;
      params;
      pacing_gain_up;
      bw_filter = Cca_core.Max_filter.create ~window:10.0;
      min_rtt = infinity;
      min_rtt_stamp = 0.0;
      mode = Startup;
      full_bw = 0.0;
      full_bw_rounds = 0;
      round_end = 0.0;
      phase_end = 0.0;
      inflight_hi = 0.0;
      cwnd = float_of_int (params.Cca_core.initial_cwnd * params.Cca_core.mss);
    }
  in
  let on_ack (ev : Cca_core.ack_event) =
    if ev.sample.rtt < s.min_rtt || not (Float.is_finite s.min_rtt) then begin
      s.min_rtt <- ev.sample.rtt;
      s.min_rtt_stamp <- ev.sample.now
    end;
    if not ev.app_limited then Cca_core.Max_filter.update s.bw_filter ~now:ev.sample.now ev.sample.delivery_rate;
    advance_phase s ev;
    maybe_enter_probe_rtt s ev.sample.now;
    s.cwnd <- cwnd_target s
  in
  let on_loss (ev : Cca_core.loss_event) =
    match s.variant with
    | V1 -> () (* v1 reacts to loss only through its cwnd cap *)
    | V2 | V3 ->
      let observed = float_of_int ev.inflight in
      s.inflight_hi <-
        (if s.inflight_hi > 0.0 then Float.min s.inflight_hi observed else observed);
      if s.mode = Probe_up then begin
        s.mode <- Probe_down;
        s.phase_end <- ev.now +. (2.0 *. Float.max 1e-3 s.min_rtt)
      end
  in
  let name = match variant with V1 -> "bbr" | V2 -> "bbr2" | V3 -> "bbr3" in
  let mode_label () =
    match s.mode with
    | Startup -> "startup"
    | Drain -> "drain"
    | Probe_bw _ -> "probe_bw"
    | Cruise -> "cruise"
    | Probe_up -> "probe_up"
    | Probe_down -> "probe_down"
    | Probe_rtt _ -> "probe_rtt"
  in
  let pacing_rate () =
    let b = bw s in
    if b <= 0.0 then None else Some (pacing_gain s *. b)
  in
  {
    Cca_core.name;
    cwnd = (fun () -> Float.max (s.cwnd) (mss_f s));
    pacing_rate;
    snapshot =
      (fun snap ->
        let b = bw s in
        snap.Cca_core.snap_cwnd <- Float.max s.cwnd (mss_f s);
        snap.snap_ssthresh <- -1.0;
        snap.snap_pacing <- (if b <= 0.0 then -1.0 else pacing_gain s *. b);
        mode_label ());
    on_ack;
    on_loss;
  }

let create_v1 params = create V1 params
let create_v2 params = create V2 params
let create_v3 params = create V3 params

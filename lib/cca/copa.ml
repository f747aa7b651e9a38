let delta = 0.5

type copa_state = {
  mutable min_rtt : float;
  mutable standing_rtt : float;  (** min RTT over the last srtt/2 window *)
  mutable standing_window_end : float;
  mutable standing_next : float;
  mutable velocity : float;
  mutable direction : int;  (** +1 growing, -1 shrinking *)
  mutable dir_since : float;
  mutable cwnd : float;  (** MSS units *)
  mutable slow_start : bool;
}

let create params =
  let s =
    {
      min_rtt = infinity;
      standing_rtt = infinity;
      standing_window_end = 0.0;
      standing_next = infinity;
      velocity = 1.0;
      direction = 1;
      dir_since = 0.0;
      cwnd = float_of_int params.Cca_core.initial_cwnd;
      slow_start = true;
    }
  in
  let mss = float_of_int params.Cca_core.mss in
  let on_ack (ev : Cca_core.ack_event) =
    let acked_mss = float_of_int ev.acked /. mss in
    s.min_rtt <- Float.min s.min_rtt ev.sample.rtt;
    (* standing RTT: sliding half-srtt window of RTT minima *)
    s.standing_next <- Float.min s.standing_next ev.sample.rtt;
    if ev.sample.now >= s.standing_window_end then begin
      s.standing_rtt <- s.standing_next;
      s.standing_next <- ev.sample.rtt;
      s.standing_window_end <- ev.sample.now +. (ev.sample.srtt /. 2.0)
    end;
    let dq = Float.max 1e-4 (s.standing_rtt -. s.min_rtt) in
    let target_rate = 1.0 /. (delta *. dq) in (* packets per second *)
    let current_rate = s.cwnd /. Float.max 1e-4 ev.sample.rtt in
    if s.slow_start then begin
      s.cwnd <- s.cwnd +. acked_mss;
      if current_rate >= target_rate then s.slow_start <- false
    end
    else begin
      let dir = if current_rate < target_rate then 1 else -1 in
      if dir <> s.direction then begin
        s.direction <- dir;
        s.velocity <- 1.0;
        s.dir_since <- ev.sample.now
      end
      else if ev.sample.now -. s.dir_since > 2.0 *. ev.sample.srtt then begin
        (* same direction for ~2 RTTs: accelerate *)
        s.velocity <- Float.min 32.0 (s.velocity *. 2.0);
        s.dir_since <- ev.sample.now
      end;
      let step = float_of_int dir *. s.velocity /. (delta *. s.cwnd) *. acked_mss in
      s.cwnd <- Float.max 2.0 (s.cwnd +. step)
    end
  in
  let on_loss (ev : Cca_core.loss_event) =
    if ev.by_timeout then s.cwnd <- 2.0
    (* Copa's default mode reacts to loss only through the delay signal *)
  in
  {
    Cca_core.name = "copa";
    cwnd = (fun () -> s.cwnd *. mss);
    pacing_rate = (fun () -> None);
    snapshot =
      (fun snap ->
        snap.Cca_core.snap_cwnd <- s.cwnd *. mss;
        snap.snap_ssthresh <- -1.0;
        snap.snap_pacing <- -1.0;
        if s.slow_start then "slow_start"
        else if s.direction >= 0 then "velocity_up"
        else "velocity_down");
    on_ack;
    on_loss;
  }

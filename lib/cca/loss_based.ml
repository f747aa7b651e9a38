type state = {
  mutable cwnd : float;
  mutable ssthresh : float;
  mutable last_loss_at : float;
}

let in_slow_start s = s.cwnd < s.ssthresh

let build ~name ~params ?(on_event = fun _ _ -> ()) ~ca_increment ~backoff
    ?(after_loss = fun _ _ -> ()) () =
  let s =
    {
      cwnd = float_of_int params.Cca_core.initial_cwnd;
      ssthresh = 1e9;
      last_loss_at = 0.0;  (* connection start opens the first epoch *)
    }
  in
  let mss = float_of_int params.Cca_core.mss in
  let on_ack (ev : Cca_core.ack_event) =
    on_event s ev;
    if not ev.in_recovery then begin
      let acked_mss = float_of_int ev.acked /. mss in
      if in_slow_start s then begin
        s.cwnd <- s.cwnd +. acked_mss;
        (* HyStart-style delay increase detection: leave slow start once
           queueing delay builds, instead of overshooting to 2x the pipe *)
        if ev.sample.rtt > 1.5 *. ev.sample.min_rtt then s.ssthresh <- Float.min s.ssthresh s.cwnd
      end
      else s.cwnd <- Float.max 1.0 (s.cwnd +. ca_increment s ev)
    end
  in
  let on_loss (ev : Cca_core.loss_event) =
    if ev.by_timeout then begin
      s.ssthresh <- Float.max 2.0 (s.cwnd /. 2.0);
      s.cwnd <- 1.0
    end
    else begin
      let next = Float.max 2.0 (backoff s ev) in
      s.ssthresh <- next;
      s.cwnd <- next
    end;
    s.last_loss_at <- ev.now;
    after_loss s ev
  in
  {
    Cca_core.name;
    cwnd = (fun () -> s.cwnd *. mss);
    pacing_rate = (fun () -> None);
    snapshot =
      (fun snap ->
        snap.Cca_core.snap_cwnd <- s.cwnd *. mss;
        snap.snap_ssthresh <- s.ssthresh *. mss;
        snap.snap_pacing <- -1.0;
        if in_slow_start s then "slow_start" else "avoidance");
    on_ack;
    on_loss;
  }

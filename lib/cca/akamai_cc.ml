let default_rate = 25_000.0 (* bytes/s: a provisioning constant, not a path property *)

type ak_state = {
  rng : Netsim.Rng.t;
  rate : float;
  mutable now : float;
  mutable epoch_end : float;
  mutable draining_until : float;
}

let drain_duration = 0.6
let drain_rate = 500.0 (* a trickle: the deep back-off visible in Fig. 10 *)

let create ?(seed = 1) params =
  let rng = Netsim.Rng.create (0x41AA + seed) in
  let s =
    {
      rng;
      (* a fixed provisioned rate above the capture bottleneck: the flow is
         then clocked by the bottleneck and its in-flight data plateaus at
         the window safeguard, giving the blocky traces of Fig. 10 *)
      rate = default_rate *. Netsim.Rng.uniform rng 1.05 1.4;
      now = 0.0;
      epoch_end = nan;
      draining_until = -1.0;
    }
  in
  let mss = float_of_int params.Cca_core.mss in
  let on_ack (ev : Cca_core.ack_event) =
    s.now <- ev.sample.now;
    if Float.is_nan s.epoch_end then s.epoch_end <- ev.sample.now +. Netsim.Rng.uniform s.rng 10.0 20.0;
    if ev.sample.now >= s.epoch_end then begin
      s.draining_until <- ev.sample.now +. drain_duration;
      s.epoch_end <- ev.sample.now +. drain_duration +. Netsim.Rng.uniform s.rng 10.0 20.0
    end
  in
  {
    Cca_core.name = "akamai_cc";
    (* the window is only a generous safeguard, as for all rate-based CCAs *)
    (* the safeguard sits just below pipe + buffer of the measurement
       profiles, so the plateau is flat and essentially loss-free (the
       paper: "this backoff was not triggered by dropped packets") *)
    cwnd = (fun () -> 30.0 *. mss);
    pacing_rate = (fun () -> if s.now < s.draining_until then Some drain_rate else Some s.rate);
    snapshot =
      (fun snap ->
        let draining = s.now < s.draining_until in
        snap.Cca_core.snap_cwnd <- 30.0 *. mss;
        snap.snap_ssthresh <- -1.0;
        snap.snap_pacing <- (if draining then drain_rate else s.rate);
        if draining then "drain" else "cruise");
    on_ack;
    on_loss = (fun _ -> ());
  }

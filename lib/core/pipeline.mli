(** Trace preparation: smoothening and segmentation (paper §3.4, Fig. 6).

    The raw BiF series is resampled to a uniform grid, low-pass filtered at
    1/RTT (variations faster than an RTT come from the network, not the
    CCA), and split into segments at "back-offs" — sustained spans of
    strongly negative first derivative. Slow start (everything before the
    first back-off, or the first quarter of a back-off-free trace) is
    discarded. *)

type backoff_info = {
  at : float;  (** absolute time the back-off starts *)
  depth : float;  (** relative drop: level just before vs just after *)
  trough : float;
      (** minimum inside the back-off over the trace's 95th percentile —
          near 0 for drains that empty the pipe (BBR ProbeRTT, AkamaiCC),
          noticeably higher for AIMD halvings *)
  dwell : float;
      (** seconds the signal stays near the trough: a ProbeRTT holds its
          floor for a couple hundred milliseconds, while estimator
          glitches bounce straight back *)
  pre_slope : float;
      (** relative slope (fraction of level per second) over the ~2.5 s
          before the back-off: near zero when the drain interrupts a flat
          cruise (BBR, AkamaiCC), clearly positive when a growing window
          hit the buffer (AIMD); infinite when the trace is too short to
          tell *)
}

type segment = {
  start_time : float;  (** absolute time of the first sample *)
  duration : float;
  values : float array;  (** smoothed BiF, uniform spacing [dt] *)
  raw_max : float;
  raw_min : float;
  drop_frac : float;
      (** relative depth of the back-off that ends this segment;
          0 when the trace simply ends *)
}

type t = {
  dt : float;
  rtt : float;
  t0 : float;
  smoothed : float array;
  derivative : float array;
  segments : segment list;
  backoffs : backoff_info list;
  mean_bif : float;
}

val prepare : ?dt:float -> ?smoothen:bool -> rtt:float -> Bif.series -> t
(** [rtt] is the nominal RTT under the measurement profile (known to Nebby
    since it configures the added delay). [smoothen:false] skips the FFT
    low-pass stage (for the ablation study only). *)

val segment_count : t -> int

val summary : t -> (string * float) list
(** The filter outputs at a glance — segment/back-off counts, covered
    segment seconds, deepest back-off, mean BiF, grid parameters — as
    named fields for a decision-provenance stage. *)

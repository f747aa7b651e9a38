(** Signature-extraction helpers shared by the rate-based classifiers
    (BBR, AkamaiCC, Copa, Vivace): drain periodicity, probe spikes, and
    plateau flatness. *)

val deep_drains :
  ?min_depth:float ->
  ?max_trough:float ->
  ?min_dwell:float ->
  ?max_pre_slope:float ->
  Pipeline.t ->
  float list
(** Times of back-offs at least [min_depth] (default 0.55) deep whose
    trough reaches below [max_trough] (default 0.40) of the trace's p95
    and dwells there for at least [min_dwell] seconds (default 0.25),
    not arriving from a rising ramp (relative pre-drain slope at most
    [max_pre_slope], default 0.08/s; falling approaches always pass) —
    pipe-emptying drains, as opposed to AIMD halvings or estimator
    glitches. *)

val intervals : float list -> float list
(** Gaps between consecutive times. *)

val interval_stats : float list -> (float * float) option
(** [(mean, coefficient_of_variation)] of a non-empty interval list. *)

val flatness : Pipeline.segment -> float
(** Fraction of segment samples within 10 % of the segment median; 1.0 is a
    perfect plateau. *)

val longest_flat_span : Pipeline.t -> Pipeline.segment -> float
(** Longest run (seconds) staying within 8 % of its local level — BBRv2's
    cruise detector. *)

val oscillation_period : Pipeline.t -> Pipeline.segment -> float option
(** Dominant oscillation period (seconds) from mean peak-to-peak distance
    of the detrended segment; [None] if fewer than 3 peaks. *)

val summary : Pipeline.t -> (string * float) list
(** The windowed signature signals at a glance — mean flatness, longest
    flat span, deep-drain count/cadence, minimum oscillation period in
    RTTs — as named fields for a decision-provenance stage. Fields whose
    signal is absent (no drains, no oscillation) are omitted. *)

(** Time-series utilities over (time, value) samples. *)

val resample : dt:float -> times:float array -> values:float array -> float * float array
(** [resample ~dt ~times ~values] converts an event-sampled series
    ([values.(k)] at [times.(k)], times nondecreasing) to a uniform grid of
    spacing [dt] using zero-order hold (the value persists until the next
    sample, matching how bytes-in-flight evolves between packets). Returns
    [(t0, grid)] where [grid.(i)] is the value at [t0 +. i *. dt].
    Empty input yields [(0., [||])]; arrays of different lengths raise
    [Invalid_argument]. *)

val derivative : dt:float -> float array -> float array
(** Central-difference first derivative of a uniform series; the result has
    the same length (one-sided differences at the edges). *)

val normalize : float array -> float array
(** Affine rescale to [\[0, 1\]]. A constant series maps to all zeros. *)

val sample_uniform : n:int -> float array -> float array
(** [sample_uniform ~n xs] picks [n] points uniformly spanning [xs] with
    linear interpolation (paper §3.4 step 3 uses n = 200). *)

val mean : float array -> float

val variance : float array -> float
(** Population variance; never negative (clamped against rounding), 0 for
    fewer than 2 samples. *)

val std : float array -> float
(** [sqrt (variance xs)]. *)

val quantile : float -> float array -> float
(** [quantile q xs] for [q] in [\[0, 1\]] (clamped), linearly interpolated
    between order statistics; [nan] on empty input. Monotone in [q]. *)

val select : int -> float array -> float
(** [select k xs] is [(sorted xs).(k)] under [Float.compare], found by an
    expected-linear quickselect on a copy ([xs] is not modified). Order
    statistics use it rather than a sort.
    @raise Invalid_argument unless [0 <= k < Array.length xs]. *)

val median : float array -> float
(** The middle order statistic, or the mean of the two middle ones for an
    even length; [0.] on empty input. *)

val minimum : float array -> float
val maximum : float array -> float

(** Time-series utilities over (time, value) samples. *)

type point = { t : float; v : float }

val of_pairs : (float * float) list -> point array

val resample : dt:float -> point array -> float * float array
(** [resample ~dt pts] converts an event-sampled series to a uniform grid of
    spacing [dt] using zero-order hold (the value persists until the next
    sample, matching how bytes-in-flight evolves between packets). Returns
    [(t0, values)] where [values.(i)] is the value at [t0 +. i *. dt].
    Empty input yields [(0., [||])]. *)

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

val minimum : float array -> float
val maximum : float array -> float

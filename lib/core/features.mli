(** Per-segment shape features (paper §3.4 steps 3-4).

    Each segment is normalized to the unit square, resampled to 200 points,
    and fitted with polynomials of degree 1-3. Fits are ranked by
    [score = mse * (1 + lambda * degree)] with [lambda = 0.7] — the paper's
    exact formula is cropped from the PDF; this matches its stated intent
    (Lasso-like penalty monotone in degree, see DESIGN.md). The feature
    vector additionally carries the segment's periodicity and back-off
    depth, implementing "frequency and shape". *)

type t = {
  coeffs : float array;  (** [| c1; c2; c3 |]: x, x^2, x^3 of the best fit *)
  degree : int;  (** best-scoring degree, 1-3 *)
  intercept : float;
  mse : float;
  score : float;
  duration : float;  (** seconds *)
  drop_frac : float;
  amp_ratio : float;  (** (max - min) / max of the raw segment *)
}

val of_segment : Pipeline.segment -> t option
(** [None] when the segment is too short or degenerate to fit. *)

val vector : rtt:float -> t -> float array
(** The 9-dimensional GNB feature vector: the fitted polynomial evaluated
    at 5 fixed abscissae (shape), log10(duration/rtt) (periodicity),
    drop_frac, amp_ratio, and the best-fit degree. *)

val dimensions : int

val trace_vector : Pipeline.t -> float array option
(** Mean feature vector across all usable segments of a trace ([None] when
    no segment is fittable) — combining the evidence of a trace's repeated
    segments into one stable shape descriptor. *)

(** Least-squares polynomial fitting (the role numpy's [polyfit] plays in
    the paper, §3.4 step 3). *)

val fit : degree:int -> xs:float array -> ys:float array -> float array
(** [fit ~degree ~xs ~ys] returns coefficients [c] with [c.(i)] multiplying
    [x^i], length [degree + 1], minimizing squared error. Solved by normal
    equations with partial-pivot Gaussian elimination, fine for the small
    degrees (<= 3) used here.
    @raise Invalid_argument on empty input or mismatched lengths. *)

type basis
(** Fixed abscissae with their power sums [sum x^k], [k <= 2 * max_degree]:
    the left-hand sides of every normal-equation system up to
    [max_degree]. *)

val basis : max_degree:int -> float array -> basis
(** @raise Invalid_argument on empty abscissae or a negative degree. *)

val fit_each : basis -> ys:float array -> float array array
(** [(fit_each b ~ys).(d - 1)] is [fit ~degree:d ~xs ~ys], bit for bit,
    for every [d] from 1 to [max_degree], with [xs] the basis's abscissae:
    the moment sums [sum x^k y] are accumulated once for all degrees.
    @raise Invalid_argument if [ys] and the abscissae differ in length. *)

val eval : float array -> float -> float
(** Evaluate a coefficient vector (Horner). *)

val mse : coeffs:float array -> xs:float array -> ys:float array -> float
(** Mean squared error of the fit over the points. *)

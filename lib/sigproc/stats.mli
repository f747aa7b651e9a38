(** Descriptive statistics and the normality tests used by the paper
    (Appendix B) to justify modeling polynomial coefficients as Gaussians. *)

val skewness : float array -> float
val kurtosis : float array -> float
(** Excess kurtosis (normal distribution = 0). *)

val dagostino_k2 : float array -> float * float
(** D'Agostino's K² omnibus test. Returns [(k2, p_value)]; the statistic is
    approximately chi-squared with 2 degrees of freedom under normality.
    Requires at least 8 samples ([Invalid_argument] otherwise). *)

val normality_soft_pass : float array -> bool
(** The paper's soft-fail rule: accept normality if either test passes
    (K² p-value > 0.05 or W' > 0.95). *)

val erf : float -> float
(** Error function (Abramowitz-Stegun 7.1.26 approximation). *)

val normal_cdf : float -> float

val normal_quantile : float -> float
(** Inverse standard normal CDF (Acklam's rational approximation). *)

(** Gaussian Naive Bayes classifier over fixed-size feature vectors.

    The paper (Appendix B) models each CCA's polynomial coefficients as a
    multivariate normal with independent components and classifies with a
    uniform prior; this module is that classifier. *)

type model

val fit : ?var_floor:float -> (string * float array list) list -> model
(** [fit classes] trains from per-class lists of feature vectors. All
    vectors must share one dimension; each class needs at least 2 samples.
    Variances are floored at [var_floor] (default 1e-6) to avoid
    degenerate likelihoods — pass a larger floor (e.g. 0.05) when the
    features are standardized, so no class collapses to a spike.
    @raise Invalid_argument on inconsistent input. *)

val log_likelihoods : model -> float array -> (string * float) list
(** Per-class log posterior (uniform prior), sorted most likely first. *)

val predict : ?margin:float -> model -> float array -> string option
(** Most likely class, or [None] when the runner-up is within [margin] nats
    (default 2.0) — the paper's "equally high probabilities" rule that maps
    ambiguous segments to Unknown. *)

val decide : ?margin:float -> (string * float) list -> (string * float) option
(** [predict]'s rule over scores already computed by {!log_likelihoods}:
    the best class with its log-likelihood, or [None] under the margin.
    [predict ?margin m x] is [Option.map fst (decide ?margin
    (log_likelihoods m x))]. *)

val class_stats : model -> string -> (float * float) array
(** Per-dimension (mean, std) for a class, for inspection/plotting
    (Figure 7). @raise Not_found for unknown classes. *)

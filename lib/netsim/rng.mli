(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic component of the simulator draws from an explicit
    [Rng.t] so that whole experiments are reproducible from a single seed.
    [split] derives an independent stream, which lets concurrent components
    consume randomness without perturbing each other.

    {2 The substream-forking scheme}

    There is deliberately {e no} global or ambient generator anywhere in
    the tree (no [Stdlib.Random], no module-level stream): a stream is
    always a value created from an explicit seed and owned by exactly one
    component, which is what makes simulations safe to run on concurrent
    domains — two workers can never race on hidden RNG state, and a job's
    randomness depends only on the job's own seed, never on which worker
    runs it or in what order.

    Streams fork three ways, each with a distinct contract:
    - {!substream} forks from [(seed, index)] by integer mixing — the
      entry point for parallel campaigns, giving job [index] a stream
      that is a pure function of the pair (so [jobs = 1] and [jobs = 8]
      runs are bit-identical);
    - {!split} advances the parent — for sibling components created in a
      fixed order inside one simulation (the two wide-area paths);
    - {!named} does {e not} advance the parent — for optional consumers
      (fault injection, retry backoff jitter) that must be able to appear
      or disappear without perturbing the base experiment. *)

type t

val create : int -> t
(** [create seed] makes a generator from a seed. *)

val split : t -> t
(** [split t] derives a new, statistically independent generator. [split]
    advances the parent stream: the order of splits matters. *)

val substream : seed:int -> int -> t
(** [substream ~seed index] forks the stream of job [index] within the
    campaign [seed]: two splitmix finalization rounds over the pair, so
    the result is a pure function of [(seed, index)] and distinct pairs
    with equal sums (e.g. [(1, 2)] and [(2, 1)]) stay decorrelated. This
    is how a parallel engine gives every job its own deterministic
    randomness regardless of worker assignment. *)

val named : t -> string -> t
(** [named t name] derives an independent substream keyed by [name]
    {e without advancing} the parent stream. Two calls with the same parent
    state and name yield identical streams; different names yield
    decorrelated streams. Optional consumers (e.g. fault injection) must
    use [named] rather than [split] so that enabling them cannot perturb
    draws made from the parent generator. *)

val float : t -> float
(** Uniform float in [\[0, 1)]. *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi] is uniform in [\[lo, hi)]. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. [n] must be positive. *)

val bool : t -> float -> bool
(** [bool t p] is [true] with probability [p]. *)

val gaussian : t -> mean:float -> std:float -> float
(** Normal deviate via the Box-Muller transform. *)

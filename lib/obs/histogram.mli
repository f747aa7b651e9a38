(** Log2-bucketed, mergeable histograms: the one distribution type.
    Span durations (["span.<name>"], ["span.virt.<name>"]), pipeline
    segment lengths and pool queue waits all record here.

    One bucket per power-of-two octave keeps them cheap enough to carry
    per-priority, per-task-class, or per-domain: a recorded value costs
    one [frexp] and one hash-table bump, and a snapshot is a handful of
    [(exponent, count)] pairs. Exact extrema
    and the running sum ride along, so [p50]/[p90]/[p99] estimates are
    clamped to the observed range and a single-value histogram reports
    that value exactly.

    {b Merging is lossless}: buckets are keyed by octave exponent, so
    absorbing a histogram adds bucket counts without re-quantization —
    the merged histogram is identical to one that observed every value
    itself (bucket counts and extrema exactly; the sum up to float
    addition order).

    {b Domain-locality.} Like {!Metrics}, the registry is per-domain:
    worker domains observe into their own tables with no locks, and
    {!Collector} {!drain}s them just before join and {!absorb}s the
    result into the caller's registry.

    {b Determinism.} [to_json] emits buckets in ascending exponent
    order with every number through the shared {!Json} writer, so
    serialize → parse → serialize is byte-identical; {!render} is a
    pure function of the snapshot. *)

type t

val create : ?name:string -> unit -> t
(** A fresh empty histogram, not attached to any registry. *)

val name : t -> string
val observe : t -> float -> unit
(** Record one value. Non-positive and non-finite values share a
    dedicated underflow bucket (their magnitude is not recoverable, but
    the count is). *)

val count : t -> int
val sum : t -> float
val min_value : t -> float
(** Smallest observed value; [nan] when empty. *)

val max_value : t -> float
(** Largest observed value; [nan] when empty. *)

val quantile : t -> float -> float
(** [quantile h q] estimates the [q]-th quantile ([q] clamped to
    [0,1]) by geometric interpolation within the bucket holding the
    ranked observation (the centered in-bucket rank placed as a
    fraction of the octave), clamped to [[min_value, max_value]].
    Worst-case relative error is a factor of 2 (one octave); unlike
    the former bucket-midpoint rule, a sparse tail bucket no longer
    reports its upper half regardless of where the observation fell.
    [nan] when empty; underflow-bucket ranks report 0. *)

val quantile_ub : t -> float -> float
(** [quantile_ub h q] is a guaranteed upper bound on the [q]-th ranked
    observation: the holding bucket's upper edge [2^e], tightened to
    [max_value]. This is (up to the old clamping) what {!quantile}
    used to report; perf ledgers keep it under [*_ub] keys so
    conservative gating survives the interpolation fix. [nan] when
    empty. *)

val merge_into : dst:t -> t -> unit
(** Fold a histogram into [dst] (bucket-exact, see above). The source
    is not modified. *)

val buckets : t -> (int * int) list
(** [(exponent, count)] pairs in ascending exponent order; bucket [e]
    covers [[2^(e-1), 2^e)]. The underflow bucket sorts first. *)

(** {1 Registry (domain-local)} *)

val get : string -> t
(** The calling domain's histogram registered under this name,
    creating it empty on first use. *)

val find : string -> t option
(** Like {!get} but does not create on miss. *)

val all : unit -> t list
(** Every histogram in the calling domain's registry, sorted by
    name. *)

val reset : unit -> unit

val drain : unit -> t list
(** Snapshot-and-clear the calling domain's registry: the returned
    histograms are detached (safe to hand to another domain). *)

val absorb : t list -> unit
(** Merge drained histograms into the calling domain's registry by
    name. *)

(** {1 Serialization and rendering} *)

val to_json : t -> Json.t
val of_json : Json.t -> t
(** Raises {!Json.Parse_error} on shape mismatch. *)

val render : t list -> string
(** Fixed-width text table (name, count, sum, p50/p90/p99, max).
    Empty histograms print ["-"] for the statistics; an empty list
    renders a one-line note. *)

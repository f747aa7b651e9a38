(** Log2-bucketed, mergeable histograms: the one distribution type, and
    a plain value built from the values it summarizes — serve's
    per-priority queue waits, the pool report's queue-wait and run times,
    and the [span.<name>] / [span.virt.<name>] rows {!Telemetry} folds
    out of a recording's spans.

    One bucket per power-of-two octave: a recorded value costs one
    [frexp] and one hash-table bump, and a snapshot is a handful of
    [(exponent, count)] pairs. Exact extrema and the running sum ride
    along, so [p50]/[p90]/[p99] estimates are clamped to the observed
    range and a single-value histogram reports that value exactly.

    {b Merging is lossless}: buckets are keyed by octave exponent, so a
    merged histogram is identical to one that observed every value
    itself (bucket counts and extrema exactly; the sum up to float
    addition order).

    {b Determinism.} [to_json] emits buckets in ascending exponent
    order with every number through the shared {!Json} writer, so
    serialize → parse → serialize is byte-identical; {!render} is a
    pure function of the snapshot. *)

type t

val create : ?name:string -> unit -> t
(** A fresh empty histogram. *)

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
    Worst-case relative error is a factor of 2 (one octave). [nan]
    when empty; underflow-bucket ranks report 0. *)

val merge_into : dst:t -> t -> unit
(** Fold a histogram into [dst] (bucket-exact, see above). The source
    is not modified. *)

val buckets : t -> (int * int) list
(** [(exponent, count)] pairs in ascending exponent order; bucket [e]
    covers [[2^(e-1), 2^e)]. The underflow bucket sorts first. *)

(** {1 Serialization and rendering} *)

val to_json : t -> Json.t
val of_json : Json.t -> t
(** Raises {!Json.Parse_error} on shape mismatch. *)

val render : t list -> string
(** Fixed-width text table (name, count, sum, p50/p90/p99, max).
    Empty histograms print ["-"] for the statistics; an empty list
    renders a one-line note. *)

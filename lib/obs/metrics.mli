(** A per-domain metrics registry: named counters and gauges.
    Distributions live in {!Histogram}.

    Handles are cheap mutable records; look one up once (by name) and keep
    it. Updates are plain field writes — instrumented hot paths guard on
    {!Runtime.armed} (or call {!bump}, which does) so a disabled run never
    touches the registry. Each domain owns an independent registry
    (handles are domain-local: never share one across domains); a pool
    worker's registry travels to the caller through {!Collector}. Within
    one domain the registry survives across runs; {!reset} clears it
    (tests, fresh experiment batches). *)

type counter
type gauge

val counter : string -> counter
(** Get or create. Raises [Invalid_argument] if the name is already
    registered as a gauge. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val bump : ?by:int -> string -> unit
(** [bump name] adds [by] (default 1) to the named counter when this
    domain is armed, and does nothing otherwise: the one-call form of
    [if Runtime.armed () then add (counter name) by]. *)

type hot

val hot : string -> hot
(** A handle on the named counter of this domain that a per-packet path
    keeps: {!tick} costs one armed check and a field test, where {!bump}
    hashes the name. The handle follows the counter across {!reset}.
    Like every handle it is domain-local. *)

val tick : hot -> unit
(** [bump] by one through a {!hot} handle. *)

val gauge : string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

(** Snapshots decouple rendering/serialization from the live registry, so
    the same table renderer works on metrics parsed back from a telemetry
    file. *)
type snap =
  | Counter_snap of { name : string; value : int }
  | Gauge_snap of { name : string; value : float }

val snapshot : unit -> snap list
(** All metrics registered on this domain, sorted by name. *)

val drain : unit -> snap list
(** {!snapshot} followed by {!reset}: empty this domain's registry and
    return its contents (a pool worker's parting flush). *)

val absorb : snap list -> unit
(** Merge drained snapshots into this domain's registry: counters add,
    gauges take the absorbed value. *)

val snap_name : snap -> string

val render : snap list -> string
(** Pretty-print a counter/gauge table. *)

val reset : unit -> unit

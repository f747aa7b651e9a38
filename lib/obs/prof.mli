(** Per-stage profiler over {!Span}.

    While enabled, every completed span is folded into a domain-local
    table keyed by its full root-first path ([path = "census;classify"]),
    accumulating call count, wall time, allocation (words) and major GC
    collections. The result is a {!profile} exportable three ways:

    - {!folded} — collapsed-stack text ([path self_microseconds] per
      line), directly consumable by Brendan Gregg's [flamegraph.pl] or
      [inferno-flamegraph];
    - {!to_json} — a JSON summary ([{"kind":"profile", "stages": ...}])
      carrying inclusive and self wall time plus GC deltas;
    - {!render} — a human-readable table, hottest stage first.

    The table is domain-local via DLS, like {!Metrics}: worker domains
    profile independently and their tables travel to the collector with
    {!drain}/{!absorb}, which {!Collector} calls at pool join. Enabling the
    profiler subscribes to {!Span.on_complete} and therefore arms the
    runtime, so span capture switches on with it. *)

type stat = {
  count : int;  (** completed spans folded into this path *)
  wall_s : float;  (** inclusive wall seconds *)
  alloc_words : float;  (** words allocated while open *)
  major_collections : int;  (** major GC cycles completed while open *)
}

type entry = { path : string; stat : stat }
(** [path] is the ';'-joined root-first span chain. *)

type profile = entry list
(** Sorted by [path]; one entry per distinct stack. *)

val enable : unit -> unit
(** Start folding spans into this domain's table. Counted: nested
    [enable]/[disable] pairs compose. *)

val disable : unit -> unit
val profiling : unit -> bool

val record : (unit -> 'a) -> 'a * profile
(** [record f] profiles [f] and returns its result with the drained
    profile. Disables on every exit path. *)

val drain : unit -> profile
(** Snapshot and reset — a worker's parting buffer flush. *)

val absorb : profile -> unit
(** Merge a drained profile into this domain's table (exact: stats add). *)

val find : profile -> string -> stat option
(** Look up one folded path. *)

val leaf_name : string -> string
(** Last frame of a ';'-joined path (["a;b;c"] → ["c"]). *)

val folded : profile -> string
(** Collapsed-stack lines ["a;b;c <self-microseconds>\n"], flamegraph
    input format. *)

val to_json : profile -> Json.t
val render : profile -> string

(** Per-stage profile: a fold over collected {!Span}s.

    {!of_spans} folds every span into one entry per full root-first path
    ([path = "census;classify"]), accumulating call count, wall time,
    allocation (words) and major GC collections. The result is a
    {!profile} exportable three ways:

    - {!folded} — collapsed-stack text ([path self_microseconds] per
      line), directly consumable by Brendan Gregg's [flamegraph.pl] or
      [inferno-flamegraph];
    - {!to_json} — a JSON summary ([{"kind":"profile", "stages": ...}])
      carrying inclusive and self wall time plus GC deltas;
    - {!render} — a human-readable table, hottest stage first.

    Pool workers' spans hang under the caller's open span (see
    {!Collector}), so a profile has the same paths and counts at any
    pool size. Folding is additive: [of_spans (a @ b)] adds the stats of
    [of_spans a] and [of_spans b] path by path. *)

type stat = {
  count : int;  (** completed spans folded into this path *)
  wall_s : float;  (** inclusive wall seconds *)
  self_s : float;  (** wall seconds outside direct child spans *)
  alloc_words : float;  (** words allocated while open *)
  major_collections : int;  (** major GC cycles completed while open *)
}

type entry = { path : string; stat : stat }
(** [path] is the ';'-joined root-first span chain. *)

type profile = entry list
(** Sorted by [path]; one entry per distinct stack. *)

val of_spans : Span.completed list -> profile
(** Fold spans (as returned by {!Span.record}) into a profile. *)

val find : profile -> string -> stat option
(** Look up one folded path. *)

val leaf_name : string -> string
(** Last frame of a ';'-joined path (["a;b;c"] → ["c"]). *)

val folded : profile -> string
(** Collapsed-stack lines ["a;b;c <self-microseconds>\n"], flamegraph
    input format. *)

val to_json : profile -> Json.t
val render : profile -> string

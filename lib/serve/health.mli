(** The live health surface of the continuous-census daemon.

    While [Service.run] executes, it periodically writes a {!snapshot}
    of its runtime state to the configured status file — atomically,
    with [Obs.Versioned.atomic_write], so a concurrent reader (another
    process running [nebby stats --live <file>], a scrape agent)
    always sees a complete document. Two renderings are produced per
    write: the schema-versioned JSON at [path], and a Prometheus text
    exposition at [path ^ ".prom"].

    {b Determinism.} Every field except [jobs_per_s] is a
    deterministic function of the workload: queue depths, overload
    arms, commit counts, and the per-priority admission-to-commit wait
    histograms are all measured in {e commit ticks} (journal commit
    sequence numbers), not wall time, so they are identical at any
    jobs count. [jobs_per_s] is wall-clock and only present in
    [phase = "running"] snapshots; the final snapshot ([phase =
    "final"], written after the graceful drain and compaction) carries
    [None] there and is therefore byte-identical at jobs=1 vs jobs=4 —
    check.sh diffs on exactly this. *)

type snapshot = {
  version : int;
  phase : string;  (** ["running"] or ["final"] *)
  epoch : int;  (** epoch being processed (or last, for final) *)
  queue_depths : int list;  (** per priority, index = level *)
  high_water : int;
  overloads : int;  (** Overloaded arms so far *)
  measured : int;
  recovered : int;
  carried : int;
  timeouts : int;
  commits : int;  (** journal puts so far *)
  journal_records : int;  (** live keys in the journal *)
  journal_lag : int;  (** admitted jobs not yet committed = total queue depth *)
  jobs_per_s : float option;  (** wall-clock rate; [None] in the final snapshot *)
  waits : (int * Obs.Histogram.t) list;
      (** per priority: admission-to-commit wait in commit ticks *)
}

val schema_version : int

val to_json : snapshot -> Obs.Json.t
val of_json : Obs.Json.t -> snapshot
(** Raises [Obs.Json.Parse_error] on a wrong kind or shape mismatch,
    [Obs.Versioned.Version_mismatch] on schema skew. *)

val to_prometheus : ?extra:string -> snapshot -> string
(** Prometheus text exposition (gauges, counters, and per-priority
    wait-quantile summaries under the [nebby_serve_] prefix). Every
    exposed metric carries both a [# HELP] and a [# TYPE] line —
    test_serve asserts this pairing. [extra] (default empty) is
    appended verbatim: the daemon passes {!Alerts.gauges} here so
    alert state rides the same scrape. *)

val render : snapshot -> string
(** Fixed-width text table for [nebby stats --live]. *)

val write : ?extra:string -> path:string -> snapshot -> unit
(** Atomically ([Obs.Versioned.atomic_write]) write the JSON snapshot
    to [path] and the Prometheus exposition (with [extra] appended) to
    [path ^ ".prom"]. *)

val read : string -> snapshot
(** Parse a snapshot file written by {!write}. *)

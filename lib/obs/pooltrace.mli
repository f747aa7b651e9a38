(** Scheduler task-lifecycle tracing for [Engine.Pool].

    Off by default. When enabled, every pool task records one {!task}
    sample — which worker claimed it, whether the claim was a steal,
    and wall-clock submit/start/finish stamps relative to the trace
    origin — into a domain-local buffer following the {!Flight}
    pattern: workers buffer locally with no locks, and {!Collector}
    drains their buffers just before join into the caller's. Each
    lifecycle phase is additionally mirrored into the flight recorder
    as [Flight.Pool] events.

    {b Cost.} The disabled path is one DLS lookup plus a branch per
    task (the clock is never read), so tracing can stay compiled into
    every pool entry point; the enabled path is two clock reads and a
    few conses per task — well under the 5% census-overhead budget the
    bench gates ([census_trace_overhead_frac]).

    {b Determinism.} Timestamps are wall-clock and therefore differ
    between runs; everything {e derived} from a captured trace —
    {!report}, {!to_chrome_string}, {!to_string} — is a pure function
    of the trace, so re-rendering a saved trace is byte-identical (the
    check.sh pool gates diff on exactly this). Task identity (index,
    owning shard) and totals (task count, per-index coverage) are
    identical at any jobs count. *)

type task = {
  index : int;  (** global job index within its pool run *)
  shard : int;  (** owning shard, [index mod workers] *)
  worker : int;  (** worker that actually ran it *)
  stolen : bool;  (** claimed from a foreign shard *)
  t_submit : float;  (** wall seconds since trace origin, at pool entry *)
  t_start : float;
  t_finish : float;
}

type t = {
  jobs : int;  (** tasks submitted across all runs in the trace *)
  workers : int;  (** widest worker fan-out seen *)
  tasks : task list;  (** sorted by [(t_start, index)] *)
}

(** {1 Recording} *)

val enabled : unit -> bool
val set_enabled : bool -> unit
(** Enable tracing in the calling domain. {!Collector} hands the flag
    and the trace origin to pool workers. *)

val on_run : jobs:int -> workers:int -> float
(** Caller side, at pool entry: stamp the trace origin on first use,
    account the run's job count and fan-out, fire the [submit] flight
    mark. Returns the run's submit time relative to the origin. Must
    only be called while {!enabled}. *)

val origin : unit -> float
(** The absolute trace origin of this domain (0 before the first run). *)

val import : origin:float -> unit
(** Worker side: adopt the caller's trace origin (and enable
    recording) in this domain. *)

val record :
  index:int -> shard:int -> worker:int -> stolen:bool -> t_submit:float ->
  t0:float -> t1:float -> unit
(** Record one finished task. [t0]/[t1] are absolute wall stamps
    (converted against the origin); [t_submit] is already relative.
    Also observes the task's queue wait and run time (microseconds)
    into this domain's [pool.queue_wait_us] / [pool.run_us]
    {!Histogram} registry entries. No-op when tracing is disabled. *)

val drain_tasks : unit -> task list
(** Snapshot-and-clear the calling domain's task buffer (pool workers,
    just before join). *)

val absorb_tasks : task list -> unit
(** Append drained worker tasks to the calling domain's buffer. *)

val drain : unit -> t
(** Collect everything recorded in this domain into a canonical trace
    and reset the buffer (origin included, so a later pool run starts
    a fresh trace). *)

(** {1 Analysis} *)

type domain_stat = {
  d_worker : int;
  d_tasks : int;
  d_stolen : int;
  d_busy_s : float;  (** summed task run time *)
  d_busy_frac : float;  (** busy_s / trace span *)
}

type summary = {
  s_jobs : int;
  s_workers : int;
  s_tasks : int;
  s_steals : int;
  s_span_s : float;  (** earliest submit to latest finish *)
  s_wait_us : Histogram.t;  (** queue wait (submit to start), microseconds *)
  s_run_us : Histogram.t;  (** task run time, microseconds *)
  s_domains : domain_stat list;  (** by worker id, ascending *)
}

val summarize : t -> summary

val report : t -> string
(** Fixed-width text table: totals, wait/run histograms, per-domain
    busy fractions. Pure function of the trace. *)

(** {1 Serialization} *)

val schema_version : int

val to_string : t -> string
(** Schema-versioned JSONL: one header line, one line per task.
    [to_string (of_string s) = s]. *)

val of_string : string -> t
(** Raises [Json.Parse_error] on malformed input,
    {!Versioned.Version_mismatch} on schema skew. *)

val to_chrome_string : t -> string
(** Chrome [trace_event] JSON (one complete ["X"] span per task,
    tid = worker, plus thread-name metadata): load in
    [chrome://tracing] or Perfetto. Deterministic for equal traces. *)

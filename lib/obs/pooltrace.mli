(** The pool scheduler report, read off collected spans.

    While the runtime is armed, [Engine.Pool] runs every task (one
    worker included) inside a ["pool.task"] {!Span} whose attributes
    say which task it was ([index], [shard = index mod workers]), which
    worker ran it, whether the claim was a steal ([stolen], 1 or 0) and
    when the pool run was submitted ([submit], wall seconds). The span
    itself gives the start and finish stamps. A telemetry recording
    therefore carries the whole task lifecycle, and everything here is a
    pure function of its spans: re-rendering a saved recording is
    byte-identical. Task identity (index, owning shard) and the task
    count are identical at any jobs count. *)

type task = {
  index : int;  (** global job index within its pool run *)
  shard : int;  (** owning shard, [index mod workers] *)
  worker : int;  (** worker that actually ran it *)
  stolen : bool;  (** claimed from a foreign shard *)
  t_submit : float;  (** wall clock seconds, when its pool run was submitted *)
  t_start : float;
  t_finish : float;
}

val task_name : string
(** ["pool.task"], the span name [Engine.Pool] opens per task. *)

val tasks : Span.completed list -> task list
(** The ["pool.task"] spans among [spans] as tasks, in span order;
    other spans are ignored. *)

type domain_stat = {
  d_worker : int;
  d_tasks : int;
  d_stolen : int;
  d_busy_s : float;  (** summed task run time *)
  d_busy_frac : float;  (** busy_s / trace span *)
}

type summary = {
  s_start : float;  (** earliest submit *)
  s_workers : int;  (** 1 + the highest worker id seen *)
  s_tasks : int;
  s_steals : int;
  s_span_s : float;  (** earliest submit to latest finish *)
  s_wait_us : Histogram.t;  (** queue wait (submit to start), microseconds *)
  s_run_us : Histogram.t;  (** task run time, microseconds *)
  s_domains : domain_stat list;  (** by worker id, ascending *)
}

val summarize : task list -> summary

val report : Span.completed list -> string
(** Fixed-width text table: totals, wait/run histograms, per-domain
    busy fractions. *)

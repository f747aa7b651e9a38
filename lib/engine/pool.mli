(** Multicore work execution on OCaml 5 domains, built for deterministic
    measurement campaigns.

    [map ~jobs:k] runs k workers over a sharded work queue: the calling
    domain is worker 0 and spawns the other k - 1 for the call. Job [i]
    of [n] belongs to shard [i mod k]; each worker drains its own shard
    first (cheap, contention-free claims on a per-shard atomic cursor)
    and then steals from the remaining shards, so uneven job costs
    cannot idle a worker. The caller claims job 0 before it spawns
    anyone, so job 0 always runs in the calling domain. At k = 1
    nothing is spawned and the caller runs every job in index order.
    Results are collected by index, which makes the output array's
    order {e canonical}: it never depends on the worker count, the
    scheduling, or completion order.

    Why the caller works rather than waits: OCaml 5 minor collections
    stop every domain, so a caller parked in [Domain.join] would make
    every minor GC of the workers wait on a domain doing nothing, and
    would hold a core back from measurement.

    Determinism contract: provided [f] derives all randomness from its
    input (the measurement stack seeds every simulation from the job
    itself — see [Netsim.Rng]), [map ~jobs:k f xs] returns bit-identical
    results for every [k]. The engine adds no hidden state of its own.

    Telemetry: worker 0 records straight into the caller's obs state.
    Every other worker is spawned through {!Obs.Collector}, so it
    inherits the caller's obs state (armed, level, flight recorder on or
    off, its innermost open span, span collection) and hands its
    counters and collected spans back to the caller at join, worker by
    worker in join order. The pool counts nothing of its own: its
    scheduling is in the ["pool.task"] spans below.

    Task tracing: when the caller is armed, every task (k = 1 included)
    runs inside a ["pool.task"] span whose attributes name the task, its
    shard, the worker that ran it, whether that was a steal, and the
    run's submit time; {!Obs.Pooltrace} reads the scheduler report back
    from those spans. Disarmed (the default), the cost is one check per
    pool run, so the determinism contract and the census-overhead budget
    are unaffected. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]: one worker per core, the
    caller included. On a single core this is 1, serial execution. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f xs] applies [f] to every element on up to [jobs]
    workers (default {!default_jobs}), the calling domain among them:
    [jobs = k] spawns at most k - 1 domains, and values [<= 1] run
    serially in the calling domain. The result array preserves input
    order. If
    any application raises, every job still runs to completion, worker
    telemetry is still flushed, and then the exception of the
    lowest-indexed failing job is re-raised in the caller. *)

val map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** {!map} over lists, preserving order. *)

val map_stream :
  ?jobs:int -> emit:(int -> 'b -> unit) -> ('a -> 'b) -> 'a array -> 'b array
(** {!map}, but each result is additionally handed to [emit i y] — in the
    calling domain, in strict index order — so a campaign can append
    per-seed records to a store the moment their prefix is complete.
    The caller emits the ready prefix after each of its own jobs, while
    later jobs may still be running on other workers; once it has no
    claims left it joins the other workers and emits the rest. Because
    emission waits for every earlier index, the emission sequence is
    exactly as canonical as the result array: it never depends on the
    worker count or scheduling. A job that raises is skipped by [emit];
    as with {!map}, all jobs still run to completion, telemetry is
    flushed, and the exception of the lowest-indexed failing job is
    then re-raised.

    If [emit] raises, no job starts after that, every spawned worker is
    joined and its telemetry absorbed, and then [emit]'s exception is
    re-raised; [emit] is not called again. *)

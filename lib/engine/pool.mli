(** Multicore work execution on OCaml 5 domains, built for deterministic
    measurement campaigns.

    A fixed-size pool of worker domains consumes a sharded work queue:
    job [i] of [n] belongs to shard [i mod workers], each worker drains
    its own shard first (cheap, contention-free claims on a per-shard
    atomic cursor) and then steals from the remaining shards, so uneven
    job costs cannot idle a worker. Results are collected by index, which
    makes the output array's order {e canonical}: it never depends on the
    worker count, the scheduling, or completion order.

    Determinism contract: provided [f] derives all randomness from its
    input (the measurement stack seeds every simulation from the job
    itself — see [Netsim.Rng]), [map ~jobs:k f xs] returns bit-identical
    results for every [k]. The engine adds no hidden state of its own.

    Telemetry: every worker is spawned through {!Obs.Collector}, so it
    inherits the caller's obs state (armed, level, profiler, provenance
    collection, flight recorder, task tracing, span collection) and its
    domain-local buffers are absorbed into the caller's at join, worker
    by worker in join order (so provenance reports arrive in join order,
    not submission order). When the caller is armed, the pool itself
    adds [engine.pool.jobs], [engine.pool.workers], [engine.pool.steals]
    and [engine.pool.local_pops] counters on the parallel path.

    Task tracing: when the caller has {!Obs.Pooltrace} enabled, every
    task (serial paths included) records a submit/start/finish lifecycle
    sample tagged with its claiming worker and steal flag, mirrored into
    the flight recorder, and feeds the [pool.queue_wait_us] /
    [pool.run_us] registry histograms. Disabled (the default), the per-task cost is a
    single branch on a captured bool — the clock is never read — so the
    determinism contract and the census-overhead budget are unaffected. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count () - 1], floored at 1: leave one
    core to the collector on multicore hosts, degrade to serial execution
    on a single core. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f xs] applies [f] to every element, running up to [jobs]
    worker domains (default {!default_jobs}; values [<= 1] run serially
    in the calling domain). The result array preserves input order. If
    any application raises, every job still runs to completion, worker
    telemetry is still flushed, and then the exception of the
    lowest-indexed failing job is re-raised in the caller. *)

val map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** {!map} over lists, preserving order. *)

val map_stream :
  ?jobs:int -> emit:(int -> 'b -> unit) -> ('a -> 'b) -> 'a array -> 'b array
(** {!map}, but each result is additionally handed to [emit i y] — in the
    calling domain, in strict index order, while later jobs may still be
    running — so a campaign can append per-seed records to a store the
    moment their prefix is complete. Because emission waits for every
    earlier index, the emission sequence is exactly as canonical as the
    result array: it never depends on the worker count or scheduling.
    A job that raises is skipped by [emit]; as with {!map}, all jobs
    still run to completion, telemetry is flushed, and the exception of
    the lowest-indexed failing job is then re-raised. [emit] must not
    raise. *)

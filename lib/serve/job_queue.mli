(** A bounded, prioritized measurement-job queue with explicit
    backpressure — the admission layer of the continuous census service.

    Jobs live in per-priority FIFO buckets (priority 0 is most urgent;
    the service uses 0 for decay re-measurements and watchdog retries,
    1 for bulk census sweeps). Total depth is bounded by [high_water]:
    a push that would exceed it returns [Overloaded] instead of growing
    without limit, and the producer decides what to do — the census
    scheduler drains a batch and retries, a remote client would shed the
    request. Watchdog re-pushes use [force] so work already admitted is
    never dropped by its own retry.

    Every admission decision is observable: the [serve.queue.enqueued] /
    [serve.queue.overloaded] counters and the [serve.queue.depth] gauge
    update when telemetry is armed, and each push records a [Serve]
    flight-recorder event ("enqueue" / "overloaded") carrying the depth.

    Handles are domain-safe behind a mutex; [pop] blocks until a job or
    shutdown. *)

type 'a t

type push_result = Accepted | Overloaded | Closed

val create : ?levels:int -> high_water:int -> unit -> 'a t
(** [levels] is the number of priority buckets (default 2: urgent and
    bulk); [high_water] the maximum total depth (at least 1). *)

val push : 'a t -> ?prio:int -> ?force:bool -> 'a -> push_result
(** Enqueue at [prio] (default: the lowest-urgency bucket, clamped into
    range). Returns [Overloaded] — without enqueueing — when the queue
    already holds [high_water] jobs, unless [force] is set (retries of
    admitted work bypass the high-water mark so backpressure can never
    drop a job mid-flight). Returns [Closed] after {!close}. *)

val pop : 'a t -> 'a option
(** Highest-priority job, FIFO within a priority; blocks while the queue
    is empty and open. [None] once the queue is closed {e and} drained —
    the graceful-shutdown contract: close, then keep popping until
    [None]. *)

val pop_batch : 'a t -> int -> 'a list
(** Up to [n] jobs in {!pop} order, without blocking (may be empty). One
    lock acquisition, so the batch is a consistent priority-ordered
    slice. *)

val depth : 'a t -> int

val depths : 'a t -> int list
(** Per-priority depths (index = priority level), one consistent
    locked snapshot; sums to {!depth}. *)

val high_water : 'a t -> int
val overloads : 'a t -> int
(** Pushes rejected with [Overloaded] over this queue's lifetime. *)

val close : 'a t -> unit
(** Stop admitting ([push] returns [Closed]); queued jobs stay poppable.
    Wakes blocked {!pop}s. *)

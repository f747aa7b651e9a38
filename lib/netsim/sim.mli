(** Discrete-event simulation driver.

    A simulation owns a virtual clock and an event queue of thunks. All
    simulator components (links, paths, endpoints) schedule their work here;
    [run] executes events in time order until the queue drains or a time
    horizon is reached.

    {2 Event order}

    Events fire by time, then by the order in which they were scheduled.
    That order is a key taken when the event is scheduled, not when it
    enters the heap: {!reserve} takes the key early and {!at_reserved}
    pushes the event under it later. {!Delay_line} and {!Timer} rely on
    this to keep one heap entry per FIFO hop or logical timer while every
    event fires exactly where an immediate {!at} would have put it. *)

type t

val create : unit -> t

val now : t -> float
(** Current virtual time in seconds. *)

val at : t -> float -> (unit -> unit) -> unit
(** [at t time f] schedules [f] at absolute [time]. Scheduling in the past
    raises [Invalid_argument]. *)

val reserve : t -> int
(** Take the order key of an event scheduled now but pushed later. *)

val at_reserved : t -> float -> order:int -> (unit -> unit) -> unit
(** [at_reserved t time ~order f] schedules [f] at [time] under an order
    key from {!reserve}. Scheduling in the past raises [Invalid_argument]. *)

val after : t -> float -> (unit -> unit) -> unit
(** [after t delay f] schedules [f] [delay] seconds from now. *)

val at_clamped : t -> float -> (unit -> unit) -> unit
(** [at_clamped t time f] is [at t time f], except a [time] in the past is
    clamped to the current clock instead of raising. Used by fault plans
    whose activation times are user data, not invariants. *)

val run : ?until:float -> t -> unit
(** Execute events in order. With [until], stop once the next event would
    fire strictly after that time (the clock is then advanced to [until]). *)

val last_event : t -> float
(** Time of the last event {!run} executed, [0.0] before any. Unlike
    {!now}, it does not move to a run's horizon. *)

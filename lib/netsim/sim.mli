(** Discrete-event simulation driver.

    A simulation owns a virtual clock and an event queue of thunks. All
    simulator components (links, paths, endpoints) schedule their work here;
    [run] executes events in time order until the queue drains or a time
    horizon is reached. *)

type t

val create : unit -> t

val now : t -> float
(** Current virtual time in seconds. *)

val at : t -> float -> (unit -> unit) -> unit
(** [at t time f] schedules [f] at absolute [time]. Scheduling in the past
    raises [Invalid_argument]. *)

val after : t -> float -> (unit -> unit) -> unit
(** [after t delay f] schedules [f] [delay] seconds from now. *)

val at_clamped : t -> float -> (unit -> unit) -> unit
(** [at_clamped t time f] is [at t time f], except a [time] in the past is
    clamped to the current clock instead of raising. Used by fault plans
    whose activation times are user data, not invariants. *)

val run : ?until:float -> t -> unit
(** Execute events in order. With [until], stop once the next event would
    fire strictly after that time (the clock is then advanced to [until]). *)

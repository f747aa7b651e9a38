(** A logical timer: at most one pending deadline, re-armed and cancelled
    many times over a run.

    Arming reserves the deadline's event-order key on the spot, so the
    action fires exactly where [Sim.at sim at action] scheduled at arming
    time would have fired it. Re-arming does not leave a stale event per
    arm in the queue: only the earliest pending key is queued, and when
    that entry pops before a deadline that has moved later, it is pushed
    again at the current deadline's key. *)

type t

val create : Sim.t -> (unit -> unit) -> t
(** A disarmed timer that runs the action when a deadline is reached. *)

val arm : t -> at:float -> unit
(** Set the deadline to absolute time [at], replacing any pending one,
    earlier or later. Raises [Invalid_argument] if [at] is in the past. *)

val cancel : t -> unit
(** Drop the pending deadline, if any. *)

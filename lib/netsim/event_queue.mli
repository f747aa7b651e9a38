(** Priority queue of timed events, ordered by time with FIFO tie-breaking.

    Implemented as a binary min-heap. Every event carries a key
    [(time, order)], where [order] is a counter taken when the event was
    scheduled: events at the same instant fire in the order they were
    scheduled, which keeps simulations deterministic. {!reserve} takes that
    counter early, so a component can schedule an event now and push it
    later under the key an immediate {!push} would have given it. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int

val push : 'a t -> time:float -> 'a -> unit
(** Insert an event at the given time; its order is the next counter value. *)

val reserve : 'a t -> int
(** Take the next order counter without inserting anything. *)

val push_reserved : 'a t -> time:float -> order:int -> 'a -> unit
(** Insert an event under a key whose [order] came from {!reserve}. Raises
    [Invalid_argument] if [order] was never handed out. *)

val min_time : 'a t -> float
(** Time of the earliest event. Raises [Invalid_argument] when empty. *)

val pop : 'a t -> 'a
(** Remove and return the earliest event. Raises [Invalid_argument] when
    empty. *)

(** An order-preserving hop: items leave in the order they entered, at
    nondecreasing delivery times.

    Only the head of the line sits in the simulation's event queue, and no
    closure is allocated per item. Each item's event-order key is reserved
    when it is sent, so every delivery fires exactly where
    [Sim.at sim at (fun () -> sink x)] would have fired it, ties with other
    events included. *)

type 'a t

val create : Sim.t -> sink:('a -> unit) -> 'a t
(** A line that hands each item to [sink] at its delivery time. *)

val send : 'a t -> at:float -> 'a -> unit
(** [send t ~at x] delivers [x] at absolute time [at]. Raises
    [Invalid_argument] if [at] is in the past or earlier than the delivery
    time of an item already in the line. *)

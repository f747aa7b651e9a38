(** Bottleneck link: serialization at a fixed rate behind a droptail queue,
    followed by a fixed extra one-way delay.

    This models the Mahimahi shell that Nebby uses as its capture-point
    bottleneck: packets are enqueued into a FIFO buffer bounded in bytes
    (arrivals that would overflow are dropped), drained at [rate] bytes/s,
    and then delayed by [extra_delay] before reaching the sink. *)

type t

val create :
  Sim.t ->
  rate:float ->
  buffer_bytes:int ->
  ?extra_delay:float ->
  sink:(Packet.t -> unit) ->
  unit ->
  t
(** [rate] is in bytes per second; [buffer_bytes] bounds the queue
    (not counting the packet in service); [extra_delay] defaults to 0. *)

val send : t -> Packet.t -> unit
(** Offer a packet to the link; it is dropped if the buffer is full. *)

val set_rate : t -> float -> unit
(** Renegotiate the drain rate mid-simulation (bytes per second). Takes
    effect from the next packet dequeued; non-positive rates are ignored.
    Models a mid-flow bandwidth renegotiation (e.g. a DOCSIS/LTE rate
    change). *)

val rate : t -> float
(** Current drain rate, bytes per second. *)

val set_up : t -> bool -> unit
(** Take the link down (stop dequeuing; arrivals still queue and overflow
    into drops) or bring it back up (resume serving the backlog). Models a
    mid-flow link flap. A packet already being serialized when the link
    goes down still delivers. *)

val queue_bytes : t -> int
(** Bytes currently waiting (excluding the packet in service). *)

val drops : t -> int
(** Number of packets dropped so far. *)

val delivered : t -> int
(** Number of packets delivered so far. *)

(** Packets exchanged between the simulated endpoints.

    TCP packets carry visible sequence/acknowledgement numbers; QUIC packets
    are fully encrypted, so the capture point sees only direction and size
    (see {!Trace.view}). Sequence numbers address bytes: a data packet with
    sequence [seq] and payload [payload] covers bytes
    [seq .. seq + payload - 1]. *)

type dir =
  | To_client  (** data direction: server towards the measuring client *)
  | To_server  (** acknowledgement direction *)

type proto = Tcp | Quic

type t = {
  id : int;  (** unique per connection, for bookkeeping *)
  proto : proto;
  dir : dir;
  size : int;  (** bytes on the wire, headers included *)
  payload : int;  (** data bytes carried (0 for pure ACKs) *)
  seq : int;  (** first payload byte (data), or 0 *)
  ack : int;  (** cumulative acknowledgement (ACKs), or 0 *)
  hole_end : int;
      (** SACK-style hint on ACKs: end of the first missing byte range at
          the receiver, 0 when the stream is contiguous *)
  received_total : int;
      (** total payload bytes the receiver holds, out-of-order data
          included — the delivery counter SACK-based rate estimation needs *)
  is_ack : bool;
  is_retx : bool;  (** retransmission flag, sender-side bookkeeping only *)
}
(** A packet carries no send time: the sender keeps each segment's send
    time in its own window, and the capture point stamps what it sees. *)

val header_size : proto -> int
(** Wire overhead for a packet of the given protocol. *)

val data : proto -> id:int -> seq:int -> payload:int -> retx:bool -> t
(** Build a server-to-client data packet. *)

val ack : proto -> id:int -> ack:int -> hole_end:int -> received_total:int -> t
(** Build a client-to-server cumulative acknowledgement. [hole_end] is the
    SACK-style first-hole hint (0 = none). Both counters are required
    arguments, so building an ack allocates the packet and nothing else. *)

val pp : Format.formatter -> t -> unit

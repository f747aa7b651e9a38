(** Client-side receiver: reassembles the byte stream and generates
    cumulative acknowledgements.

    In-order data is acknowledged every [ack_every] packets (1 mimics wget's
    TCP stack under our small MSS; QUIC stacks commonly use a constant
    frequency of 2, §3.2). Out-of-order data triggers an immediate duplicate
    ACK so the sender's fast retransmit works. *)

type t

val create :
  Netsim.Sim.t ->
  proto:Netsim.Packet.proto ->
  ?ack_every:int ->
  ?ack_delay:float ->
  out:(Netsim.Packet.t -> unit) ->
  unit ->
  t
(** [ack_delay] adds processing latency before each ACK leaves (default 0). *)

val handle_data : t -> Netsim.Packet.t -> unit
val bytes_received : t -> int
(** Contiguous bytes received so far. *)

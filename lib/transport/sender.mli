(** Bulk-transfer sender: the server side of a measured connection.

    Implements the transport machinery every CCA plugs into — sequence
    numbering, cumulative-ACK processing, RTT and delivery-rate estimation,
    NewReno-style fast retransmit (3 dupacks) with one congestion
    notification per recovery episode, exponentially backed-off RTOs, and
    optional pacing when the CCA requests a rate. The same machinery serves
    TCP and QUIC; the protocol only changes what the capture point can see.

    The sender also exports its ground-truth bytes-in-flight series, which
    stands in for the socket-level logs the paper exports from its control
    servers (§3.1-3.2). *)

type t

val create :
  Netsim.Sim.t ->
  cca:Cca.t ->
  proto:Netsim.Packet.proto ->
  params:Cca.params ->
  total_bytes:int ->
  out:(Netsim.Packet.t -> unit) ->
  t
(** The sender transmits [total_bytes] of payload through [out]. *)

val start : t -> unit
(** Begin transmitting at the current simulation time. *)

val handle_ack : t -> Netsim.Packet.t -> unit
(** Feed an acknowledgement that arrived back at the server. *)

val finished : t -> bool
(** All payload bytes acknowledged. *)

val bif_samples : t -> (float * int) list
(** Time-stamped ground-truth bytes-in-flight, sampled at every
    transmission and acknowledgement, oldest first. *)

val retransmissions : t -> int

(** {2 Fault-injection controls}

    Used by the fault-injection harness to model misbehaving servers; both
    are no-ops for a well-behaved measurement. *)

val stall : t -> until:float -> unit
(** Application stall: suspend all transmissions (fresh data and repairs)
    until the given virtual time. Ack processing continues. *)

val reset : t -> unit
(** Mid-flow reset: the sender goes permanently silent — no further sends,
    no RTO wakeups, and arriving acks are ignored. *)

val was_reset : t -> bool

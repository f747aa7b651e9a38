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

(** {2 Ground-truth bytes in flight} *)

val bif_log : t -> run:int -> Obs.Flight.inflight_log
(** The bytes in flight sampled at every transmission and acknowledgement,
    oldest first, tagged with the flight-recorder [run] of the simulation.
    The arrays are the sender's own, not copies; they are longer than the
    count, and a later sample may replace them with grown ones, so take
    the log once the run is over. *)

val retransmissions : t -> int

val expected_samples : mss:int -> total_bytes:int -> int
(** The slots the BiF columns are presized with: about one sample per
    transmission and one per ack, so twice the segment count plus a
    quarter for repairs, between 1024 and 2^16 (a transfer meant to be
    cut short by its time limit does not reserve its whole page). A
    capture of the same transfer holds about as many packets, so
    [Testbed] sizes its trace with it too. *)

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

(** One-way wide-area path segment with Internet-style noise.

    Models everything between the target server and Nebby's capture point:
    fixed propagation delay, delay jitter, independent cross-traffic losses,
    and ACK compression (short batching of acknowledgements, a common source
    of noise in BiF traces, cf. paper §3.4). Delivery order is preserved:
    jitter never reorders packets. *)

type noise = {
  jitter_std : float;  (** std-dev of extra one-way delay, seconds *)
  drop_prob : float;  (** iid loss probability from cross traffic *)
  ack_compress_prob : float;  (** probability an ACK gets held and batched *)
  ack_compress_delay : float;  (** how long compressed ACKs are held *)
}

val quiet : noise
(** No noise at all: lab conditions. *)

val mild : noise
(** Typical Internet path: light jitter, rare loss, some ACK compression. *)

val heavy : noise
(** A congested or long path: strong jitter and frequent ACK compression. *)

val scale : noise -> float -> noise
(** [scale n k] multiplies every noise magnitude by [k]. *)

type fault_decision =
  | Pass  (** deliver normally *)
  | Fault_drop  (** the fault eats the packet *)
  | Fault_delay of float
      (** hold the packet this many extra seconds; later packets may
          overtake it (reordering) *)
  | Fault_duplicate of float
      (** deliver normally, plus a copy after this many extra seconds *)

type t

val create :
  Sim.t -> Rng.t -> delay:float -> noise:noise -> sink:(Packet.t -> unit) -> t
(** [delay] is the one-way propagation delay in seconds. *)

val set_fault : t -> (now:float -> Packet.t -> fault_decision) -> unit
(** Install a per-packet fault hook, consulted before the built-in noise
    model on every send. At most one hook is installed; composition of
    several fault rules happens in the [Faults] library. *)

val send : t -> Packet.t -> unit
val dropped : t -> int

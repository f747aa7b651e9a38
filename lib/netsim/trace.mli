(** Packet trace recorded at the capture point.

    An observation is what a passive tap can legally see. For TCP the
    sequence and acknowledgement numbers are visible; for QUIC the payload
    is encrypted and only the direction and size remain (paper §3.2).

    The trace is stored as columns, one per field, indexed by capture
    position [0 .. length t - 1]; the accessors below read one field of one
    observation. The list view ({!obs}, {!observations},
    {!of_observations}) serializes and rebuilds captures. *)

type view =
  | Tcp_view of { seq : int; payload : int; ack : int; is_ack : bool }
  | Opaque  (** encrypted transport: QUIC *)

type obs = { time : float; dir : Packet.dir; size : int; view : view }

type t

val create : ?capacity:int -> unit -> t
(** An empty trace. Its columns start with room for [capacity]
    observations (default 0) and double whenever they fill, so a capture
    whose length is known in advance is recorded without regrowing. *)

val record : t -> now:float -> Packet.t -> unit
(** Append the capture-point view of a packet. *)

val length : t -> int

val duration : t -> float
(** Time of last observation minus time of first (0 if fewer than 2). *)

(** {2 Columns} *)

val times : t -> float array
(** A fresh copy of the capture timestamps, in capture order. *)

(** The accessors below read one field of observation [i] and raise
    [Invalid_argument] unless [0 <= i < length t]. *)

val dir : t -> int -> Packet.dir
val size : t -> int -> int

val opaque : t -> int -> bool
(** The observation has no TCP view (QUIC). The TCP fields below read 0
    and [false] for it. *)

val seq : t -> int -> int
val payload : t -> int -> int
val ack : t -> int -> int
val is_ack : t -> int -> bool

(** {2 List view} *)

val observations : t -> obs list
(** Observations in capture order. *)

val of_observations : obs list -> t
(** Rebuild a trace from observations in capture order — the inverse of
    {!observations}, used to replay serialized captures (golden-trace
    regression fixtures). *)

(** Unit conventions and conversions.

    Throughout the simulator: time is in seconds (float), sizes in bytes
    (int), and rates in bytes per second (float). *)

val bytes_per_sec_of_kbps : float -> float
(** Convert kilobits per second to bytes per second. *)

val kbps_of_bytes_per_sec : float -> float

val ms : float -> float
(** [ms x] is [x] milliseconds expressed in seconds. *)

val kib : int -> int
(** [kib x] is [x] kibibytes in bytes. *)

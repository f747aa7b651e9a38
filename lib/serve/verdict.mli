(** Serve's per-site, per-epoch verdict record, typed. On disk it is
    {v {"label":L,"confidence":C,"margin":M,"attempts":A,"failures":[F,...]} v}
    Reading never fails: unreadable text or a missing field takes the
    defaults below, which lean towards re-measuring. *)

type t = {
  label : string;  (** ["unknown"] when missing, not a string, or unreadable *)
  confidence : float option;  (** [None] when missing or not a number *)
  margin : float option;  (** [None] when missing or not a number *)
  attempts : int;  (** 0 when missing *)
  failures : string list;  (** failure reason labels *)
  readable : bool;  (** [false] when the text is not JSON *)
}

val of_report : Nebby.Measurement.report -> t
(** Confidence and margin are 0 without provenance. *)

val timed_out : attempts:int -> t
(** What the watchdog commits once a site's timeout retry budget is gone:
    ["unknown"] at zero confidence and margin, one ["timeout"] failure per
    attempt, the shape of an exhausted measurement. *)

val to_string : t -> string
(** A missing confidence or margin is written as 0. *)

val of_string : string -> t
(** Reads {!to_string}'s own spelling in one scan, calling
    [float_of_string] on the same digits the general reader would; any
    other text (whitespace, another field order, escapes, [null]) goes
    to {!of_string_general}. Both give the same [t] for any text. *)

val of_string_general : string -> t
(** The reader over an [Obs.Json] tree, for any text. *)

val stable : confidence_floor:float -> margin_floor:float -> t -> bool
(** Both confidence and margin present and neither below its floor, so
    the verdict may be carried to the next epoch. Otherwise it has
    decayed (unreadable text included) and is measured again. *)

val timed_out_chain : t -> bool
(** A ["timeout"] failure is in the chain. *)

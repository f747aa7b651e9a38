(** A minimal self-contained JSON representation, writer, and parser.

    Exists so the telemetry subsystem carries no external dependencies; it
    supports exactly the JSON this library itself emits (scalars, strings,
    arrays, objects). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_string : t -> string
(** Compact single-line encoding (safe for JSONL). Control characters
    (0x00–0x1f and DEL) are emitted as [\u] escapes; bytes [>= 0x80] pass
    through untouched, so UTF-8 text stays UTF-8 on the wire and arbitrary
    byte strings (site names scraped from anywhere) survive a
    [to_string] / [of_string] round trip byte-for-byte. *)

val escape : Buffer.t -> string -> unit
(** Append a string as a JSON string literal, quotes included, exactly as
    {!to_string} writes it. *)

val max_depth : int
(** How deeply arrays and objects may nest: 512. *)

val of_string : string -> t
(** Parse one JSON value. Raises {!Parse_error} on malformed input and
    on nesting deeper than {!max_depth}, so any input bytes give a value
    or a [Parse_error], never a stack overflow. [\uXXXX] escapes decode
    to UTF-8 (surrogate pairs combined; an unpaired surrogate becomes
    U+FFFD rather than corrupting the stream). *)

(** Accessors returning [None] on shape mismatch. *)

val member : string -> t -> t option
val to_float : t -> float option
val to_str : t -> string option
val to_list : t -> t list option

(** Accessors that raise {!Parse_error} on shape mismatch. The first
    argument names the calling reader and prefixes the message, e.g.
    [get_num "drift" "epoch" j] fails with ["drift: missing field
    \"epoch\""]. *)

val shape_error : string -> string -> 'a
(** [shape_error ctx what] raises [Parse_error (ctx ^ ": " ^ what)]. *)

val num : string -> t -> float
val str : string -> t -> string
val arr : string -> t -> t list

val field : string -> string -> t -> t
(** [field ctx key j]: member [key] of [j], which must be present. *)

val get_num : string -> string -> t -> float
val get_int : string -> string -> t -> int
(** A number field, truncated to an int. *)

val get_str : string -> string -> t -> string
val get_arr : string -> string -> t -> t list

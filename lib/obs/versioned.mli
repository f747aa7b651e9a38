(** The versioned-file contract every on-disk format shares: the verdict
    journal, campaign stores, drift ledgers, flight dumps, provenance
    reports, alert rules and logs, serve status snapshots and
    adversarial fixtures.

    A versioned document is a JSON object (or, for JSONL files, a header
    line) whose first two fields are ["kind"] and ["version"]. Readers
    check the kind first, then the version, with one rule (see {!check});
    the CLI maps every failure to exit code 2. *)

exception Version_mismatch of { kind : string; expected : int; got : int }
(** The document is the right kind but another schema version. A missing
    version reads as [got = 0]. *)

val fields : kind:string -> version:int -> (string * Json.t) list
(** [[("kind", Str kind); ("version", Num version)]]: the leading pair of
    every versioned document. *)

val check : kind:string -> version:int -> Json.t -> unit
(** The one gate rule:
    - a wrong or missing kind raises [Json.Parse_error];
    - a missing version raises {!Version_mismatch} with [got = 0];
    - a version that is not an integer raises [Json.Parse_error];
    - any other version but [version] raises {!Version_mismatch}. *)

val mismatch_message : kind:string -> expected:int -> got:int -> string
(** The one-line report of a {!Version_mismatch}, as every reader of a
    versioned file prints it. *)

val lines : string -> string list
(** The non-blank lines of a JSONL text, in order. *)

val write_file : string -> (out_channel -> 'a) -> 'a
(** [write_file path write] opens [path], runs [write] on it and closes
    it with [close_out], so a failed final flush (a full disk) raises
    [Sys_error] instead of passing silently. The channel is closed on
    every path; only the exception path swallows close errors, and the
    first exception propagates. *)

val atomic_write : string -> (out_channel -> unit) -> unit
(** [atomic_write path write] writes [path ^ ".tmp"] with [write], closes
    it, and only then renames it over [path], so a reader never sees a
    torn file. If writing or closing fails (a full disk, an I/O error),
    the temp file is removed, [path] keeps its old bytes and the
    exception ([Sys_error]) propagates. No fsync: this survives a killed
    process, not a power loss. *)

(** A durable, append-only, schema-versioned key/value journal that
    lets a census service survive a SIGKILL and resume exactly where it
    stopped.

    The file layout is one header line

    {v {"kind":"nebby_journal","version":1} v}

    followed by one CRC-framed record per line:

    {v <crc32 of payload, 8 hex digits> {"key":K,"value":V} v}

    Every [put] appends one record and flushes it, so the journal on disk
    is always a valid prefix of the run plus at most one torn tail record
    (a write cut mid-line by a crash). On {!open_} the tail is scanned:
    the first record that is incomplete, fails its CRC, or does not parse
    is dropped together with everything after it, the file is truncated
    back to the last good record, and [on_warning] is told — a torn tail
    is logged and repaired, never propagated as an exception.

    Within one journal the last record for a key wins, so a [put] is also
    an update. {!compact} rewrites the file in canonical form — one record
    per live key, sorted by key — which makes compaction idempotent:
    compacting twice produces byte-identical files, and two runs that
    performed the same [put]s in any order compact to the same bytes
    (tools/check.sh gates both properties).

    A record's line is canonical when it is byte for byte what [put]
    writes: the CRC as 8 lowercase hex digits and the payload as encoded
    by [Obs.Json]. [put]'s records are canonical by construction. {!open_}
    also accepts hand-written records (the CRC is read with
    [int_of_string], so ["DEADBEEF"] and ["1234_567"] pass, and the
    payload may hold whitespace) and marks the ones that are not
    canonical.

    Resident memory stays flat under [?max_entries]: the full key index (key ->
    byte offset) is always in memory, but record values are held in a
    bounded cache with FIFO eviction. {!open_} fills that cache from the
    values its replay has just parsed and CRC-checked (the latest record
    per key, up to [max_entries] keys), so reads after a reopen are served
    from memory like reads after a [put]. A miss re-reads the record from
    disk and re-checks its CRC.

    Handles are domain-safe behind an internal mutex. *)

type t

val schema_version : int

val open_ : ?max_entries:int -> ?on_warning:(string -> unit) -> string -> t
(** Open (or create) the journal at a path. [max_entries] bounds the
    in-memory value cache (default: unbounded); [on_warning] receives a
    human-readable message when a torn tail is dropped (default: print
    to stderr). The header goes through [Obs.Versioned.check]: it raises
    [Obs.Versioned.Version_mismatch] on schema skew and [Json.Parse_error]
    when the file exists but is not a journal. *)

val put : t -> key:string -> value:string -> unit
(** Append one record and flush it to disk. Last write per key wins. *)

val find : t -> string -> string option
(** Value of the latest record for a key, from the cache or from disk. *)

val mem : t -> string -> bool
val length : t -> int
(** Number of live keys. *)

val keys : t -> string list
(** Live keys in ascending order. *)

val count_prefix : t -> string -> int
(** Number of live keys that start with a prefix (no sort). *)

val fold : (string -> string -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over live (key, value) pairs in ascending key order. *)

val torn_dropped : t -> int
(** Records dropped from the tail when this handle was opened. *)

val compact : t -> unit
(** Rewrite the file canonically (one record per key, sorted) with
    [Obs.Versioned.atomic_write]. Idempotent and byte-deterministic. It
    reads the file once and copies each canonical record's verified line
    unchanged, re-framing only the records open marked; the value cache
    plays no part, so a bounded journal compacts at the same cost and to
    the same bytes. If the read or write fails the exception propagates
    and the journal keeps its old file and stays open. *)

val close : t -> unit
(** Flush and close the append channel. [put]/[compact] raise after
    this; reads keep working. *)

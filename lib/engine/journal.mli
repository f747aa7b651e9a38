(** A durable, append-only, schema-versioned key/value journal that
    lets a census service survive a SIGKILL and resume exactly where it
    stopped.

    The file layout is one header line

    {v {"kind":"nebby_journal","version":1} v}

    followed by one CRC-framed record per line:

    {v <crc32 of payload, 8 hex digits> {"key":K,"value":V} v}

    Every [put] appends one record and flushes it; {!put_group} appends
    several and flushes once. Either way the journal on disk is always a
    valid prefix of the run plus at most one torn tail record (a write
    cut mid-line by a crash). On {!open_} the tail is scanned:
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
    canonical. It decides that with its own scan of [put]'s spelling:
    one pass over a line checks the CRC, decodes the key and the value,
    and in doing so proves the line canonical; only a line the scan
    declines goes through the general [Obs.Json] reader, and it is
    marked not canonical. Which records are accepted, and what they
    read as, is the same as the general reader alone would give.

    The journal keeps one table entry per live key: where its latest
    record sits (byte offset and length) and, when cached, its value.
    The entries also sit in an array in first-insertion order (the
    file's order after a compaction), which {!keys}, {!fold} and
    {!compact} sort by key.
    Resident memory stays flat under [?max_entries]: every key's
    location is always in memory, but at most [max_entries] entries
    hold a value, evicted first-cached-first (FIFO). {!open_} fills the
    values from its replay, which has just decoded and CRC-checked them
    (the latest record per key, up to [max_entries] keys), so reads
    after a reopen are served from memory like reads after a [put]. A
    miss re-reads the record from disk and re-checks its CRC.

    Handles are domain-safe behind an internal mutex; [put] and
    {!put_group} frame each record in a scratch buffer of the handle
    under that mutex. *)

type t

val schema_version : int

val open_ : ?max_entries:int -> ?on_warning:(string -> unit) -> string -> t
(** Open (or create) the journal at a path. [max_entries] bounds the
    number of cached values (default: unbounded); [on_warning] receives a
    human-readable message when a torn tail is dropped (default: print
    to stderr). The header goes through [Obs.Versioned.check]: it raises
    [Obs.Versioned.Version_mismatch] on schema skew and [Json.Parse_error]
    when the file exists but is not a journal. *)

val put : t -> key:string -> value:string -> unit
(** Append one record and flush it to disk. Last write per key wins. *)

val put_group : t -> (string * string) list -> unit
(** [put_group t records] appends each [(key, value)] record in order
    and flushes once, after the last. The file's bytes and every read
    afterwards are those of the same records [put] one at a time; the
    records reach the table only after the flush. Until then the channel
    may have written part of the group: a crash during a group leaves
    on disk a valid prefix of the run (the group's first records among
    it) plus at most one torn record, which {!open_} drops as it drops
    any torn tail. *)

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

(** {2 Replay, exposed for tests} *)

type record = {
  key : string;
  value : string;
  off : int;  (** the payload's byte offset; the line starts 9 bytes earlier *)
  len : int;  (** the payload's length in bytes *)
  canonical : bool;
}

val replay : ?general_only:bool -> string -> int -> record list * int
(** [replay text from] is {!open_}'s replay of a journal's [text] from
    the line start [from] (just past the header): its good records in
    file order, and the offset where they end (the text's length, or
    the start of the first torn line). With [~general_only:true] every
    line goes through the general reader and no record is marked
    canonical. *)

val crc32 : string -> int -> int -> int
(** [crc32 s off len]: the CRC-32 (IEEE) of [len] bytes of [s] from
    [off], eight bytes a step. *)

(** Decision provenance: the structured verdict report behind every
    classification.

    A {!report} records everything that went into one label: the raw
    per-profile feature vectors, per-stage intermediates (BiF estimate
    stats, pipeline filter outputs, trace-signature window summaries) as
    named numeric fields, every candidate the classifiers scored, and the
    winning margin and confidence. The schema is generic — stages and
    candidates are (name, number) data, so this module stays free of any
    dependency on the classification layers that fill it in.

    {b Stability guarantees.} Reports carry {!schema_version}. Within a
    version: field names and meanings never change; renderers may add
    lines but never reorder or drop existing ones; numbers are formatted
    with [%.6g]. Reading a report whose version differs raises
    {!Versioned.Version_mismatch} — readers must fail loudly (the CLI maps it to
    exit code 2) rather than misinterpret fields. Any breaking change
    bumps the version. *)

val schema_version : int

type candidate = {
  source : string;  (** which classifier scored it ("loss_gnb", "bbr", …) *)
  label : string;
  score : float;  (** source-specific: GNB log-likelihood, or confidence *)
  confidence : float;  (** 0 unless this candidate became a verdict *)
}

type stage = { stage : string; fields : (string * float) list }
(** One pipeline stage's summary, e.g.
    [{stage = "pipeline:delay_50ms"; fields = [("segments", 3.); …]}]. *)

type report = {
  version : int;
  subject : string;  (** what was measured: CCA name, site name, … *)
  label : string;  (** the final verdict ("unknown" when unclassified) *)
  confidence : float;
  margin : float;  (** top-1 minus top-2 score of the deciding source *)
  features : (string * float array) list;  (** per-profile feature vectors *)
  stages : stage list;
  candidates : candidate list;  (** best first, per source *)
}

val make :
  subject:string ->
  label:string ->
  confidence:float ->
  margin:float ->
  features:(string * float array) list ->
  stages:stage list ->
  candidates:candidate list ->
  report
(** Stamp a report with the current {!schema_version}. *)

val to_json : report -> Json.t
(** [{"kind":"provenance","version":N, ...}] — one JSONL record. *)

val of_json : Json.t -> report
(** Gated by {!Versioned.check}: raises {!Versioned.Version_mismatch}
    if the version differs (or is missing), {!Json.Parse_error} on a
    wrong kind or a shape mismatch. *)

val write_jsonl : out_channel -> report -> unit

val read_jsonl : string -> report list
(** All reports in a JSONL file (blank lines skipped). Raises
    {!Versioned.Version_mismatch} / {!Json.Parse_error} like {!of_json}. *)

val render : report -> string
(** Deterministic human-readable rendering: verdict line, candidate
    scores, stage summaries, feature vectors. Contains no wall-clock or
    host-dependent data, so it is diffable across runs. *)

(** {2 Aggregation} — per-label score distributions for a census. *)

type dist = { n : int; mean : float; min_v : float; max_v : float }

val confidence_dists : report list -> (string * dist) list
val margin_dists : report list -> (string * dist) list
val render_dists : header:string -> (string * dist) list -> string

(** {2 Collection} — a domain-local report buffer, flushed across domain
    joins by {!Collector} via {!drain_reports}/{!absorb_reports}. Arrival order after a
    parallel flush follows worker join order, not submission order. *)

val collecting : unit -> bool
val enable_collect : unit -> unit
(** Counted: nested [enable_collect]/[disable_collect] pairs compose. *)

val disable_collect : unit -> unit

val emit : report -> unit
(** Buffer a report in this domain (no-op unless {!collecting}). *)

val drain_reports : unit -> report list
val absorb_reports : report list -> unit

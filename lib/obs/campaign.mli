(** Multi-seed campaign bookkeeping: the per-seed result store, the
    statistical aggregation, and the pass gates.

    A campaign fans one experiment (a census, a chaos matrix, an accuracy
    sweep) across N seeds and turns the per-seed results into a summary a
    PR can be judged against: per-cell mean, stddev, 95% confidence
    interval, median and extrema, plus the expected-vs-got confusion
    tallies and the seeds that sit farthest from the pack. The schema is
    generic — cells are (name, number) data and outcomes are
    (subject, expected, got) strings — so this module stays free of any
    dependency on the measurement layers that fill it in, exactly like
    {!Provenance}.

    {b Stability guarantees.} Stores and summaries carry
    {!schema_version}. Within a version field names and meanings never
    change; every record is gated by {!Versioned.check}, so a version
    skew raises {!Versioned.Version_mismatch} — readers must fail loudly
    (the CLI maps it to exit code 2) rather than misinterpret fields. All serialization and
    rendering is deterministic: cells are sorted by name, every float
    goes through {!Json} number formatting or a fixed [%.6g], and no
    wall-clock data is consulted — aggregating the same runs twice (or
    at a different worker count) yields byte-identical output. *)

val schema_version : int

(** {1 Seed specifications} — shared by [nebby campaign], [nebby chaos]
    and the bench harness, so every CLI accepts the same
    [--seeds N] / [--seed-list a,b,c] pair with the same validation. *)

val resolve_seeds :
  ?count:int -> ?seed_list:int list -> base:int -> unit -> (int list, string) result
(** Resolve a seed specification to the explicit seed list of a campaign.

    - [seed_list] alone: used verbatim.
    - [count] alone: [base, base+1, …, base+count-1].
    - neither: [[base]] (the single-seed behavior every command had
      before campaigns).
    - both: [Error] — the two flags are alternatives, not a union.

    Returns [Error] with a human-readable message on an empty list
    ([count <= 0] or [--seed-list] with no entries) and on overlapping
    seeds (a duplicate entry in [seed_list]), naming the offender. *)

(** {1 The per-seed store} *)

type outcome = {
  subject : string;
      (** what was measured — a CCA registry name or a site name; the
          same subject id the provenance reports and flight dumps of
          that measurement carry, so an outlier row can be replayed with
          [nebby explain <subject>] *)
  expected : string;  (** ground truth (the CCA actually running) *)
  got : string;  (** the label the classifier produced *)
}

type seed_run = {
  seed : int;
  metrics : (string * float) list;
      (** named per-seed cells, e.g. [("accuracy.cubic", 1.)] *)
  outcomes : outcome list;  (** per-subject verdicts, for the confusion tally *)
}

val write_store : out_channel -> experiment:string -> seed_run list -> unit
(** Schema-versioned JSONL: one header line
    [{"kind":"campaign","version":N,"experiment":…}], then one
    [campaign_seed] line per run. Byte-stable under
    {!read_store}/[write_store] round trips. *)

val write_header : out_channel -> experiment:string -> runs:int -> unit
val write_seed_line : out_channel -> seed_run -> unit
(** The streaming halves of {!write_store}: a campaign whose seed count
    is known up front writes the header once and appends each seed's
    line the moment the engine emits it, so a killed run leaves a
    readable prefix. *)

val read_store : string -> string * seed_run list
(** Parse a store file back to [(experiment, runs)]. A truncated {e
    final} record — the signature a SIGKILL leaves on a streamed store —
    is dropped with a warning on stderr and the readable prefix is
    returned, so [--from] works on the store of a crashed campaign.
    Raises {!Versioned.Version_mismatch} on schema skew, [Json.Parse_error] on a
    malformed header or non-final record, [Sys_error] if unreadable. *)

(** {1 Aggregation} *)

type stat = {
  n : int;  (** seeds that carried this cell (with a finite value) *)
  mean : float;
  stddev : float;  (** population standard deviation *)
  ci95 : float;
      (** half-width of the 95% confidence interval of the mean
          (normal approximation over the sample variance); [0.] for
          fewer than two samples — a single seed has no interval *)
  median : float;
  min_v : float;
  max_v : float;
}

type outlier = {
  o_seed : int;
  value : float;  (** this seed's value of the outlier metric *)
  z : float;  (** absolute z-score against the campaign's mean/stddev *)
  misses : string list;
      (** this seed's wrong verdicts, ["subject->got"] (or
          ["subject:expected->got"] when the subject is not the ground
          truth itself) — the provenance subjects to replay *)
}

type summary = {
  version : int;
  experiment : string;
  seeds : int list;  (** in campaign order *)
  cells : (string * stat) list;  (** sorted by cell name *)
  confusion : (string * (string * int) list) list;
      (** expected label -> (got label, count), count-descending *)
  outliers : outlier list;  (** strongest deviation first *)
}

val aggregate : ?outlier_metric:string -> experiment:string -> seed_run list -> summary
(** Fold per-seed runs into a summary. Non-finite metric values are
    dropped before any statistic is computed (the NaN/inf guard), so
    every [stat] field is finite whenever [n > 0]. [outlier_metric]
    (default ["accuracy"]) selects the cell the outlier table ranks
    seeds by; seeds within 1.5 standard deviations are not outliers. *)

(** {1 Pass gates} *)

type gate_stat = Mean | Ci_width | Min_value | Max_value
(** Which statistic of the cell the gate reads. [Ci_width] is the full
    interval width, [2 *. ci95]. *)

type gate_op = Floor | Ceiling  (** value must be [>= bound] / [<= bound] *)

type gate = {
  gate_name : string;
  metric : string;
  gstat : gate_stat;
  op : gate_op;
  bound : float;
}

type gate_status =
  | Pass
  | Fail
  | Skip  (** the metric is absent from the summary and the extras *)

type gate_result = { gate : gate; value : float option; status : gate_status }

val evaluate :
  gates:gate list -> ?extra:(string * float) list -> summary -> gate_result list
(** Evaluate every gate against the summary's cells, falling back to
    [extra] (externally measured single values — bench timings,
    overhead fractions — always read as their own [Mean]) when the cell
    is absent. A gate whose metric appears in neither is [Skip]ped; a
    non-finite value [Fail]s (never silently passes). Result order
    follows [gates]. *)

val gates_pass : gate_result list -> bool
(** True iff no gate [Fail]ed ([Skip]s do not fail a campaign). *)

val gate_describe : gate -> string
(** ["mean(accuracy) >= 0.7"] — the clause the gate enforces. *)

(** {1 Serialization and rendering} *)

val summary_to_json : ?gates:gate_result list -> summary -> Json.t
(** [{"kind":"campaign_summary","version":N, …}] with cells sorted by
    name and a ["gates"] array when provided. Deterministic. *)

val summary_of_json : Json.t -> summary
(** Raises {!Versioned.Version_mismatch} / [Json.Parse_error] like {!read_store}.
    Gate results are not read back (they are re-derivable). *)

val render : ?gates:gate_result list -> summary -> string
(** Fixed-width text: the cell table (n, mean, stddev, ci95, median,
    extrema), the confusion tally, the outlier list, and one line per
    gate with its PASS/FAIL/SKIP status. Deterministic. *)

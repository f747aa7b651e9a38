(** Declarative alerting over the continuous census.

    A {!rule} names one {!signal} and bounds it with a ceiling or a
    floor; an {!engine} evaluates every rule once per epoch and reports
    only the {e transitions} — a rule fires when its signal has been in
    breach for [for_epochs] consecutive evaluations and resolves when
    the breach clears. Steady state (still firing, still quiet) emits
    nothing, which is what keeps the JSONL alert log deduplicated: one
    line per edge, never one per epoch.

    Every input is a deterministic per-epoch statistic (ledger point
    fields, drift-event magnitudes, commit-tick health counters), so
    the transition stream is byte-identical at any jobs count.

    {b Stability guarantees.} Rule files and alert-log lines carry
    {!schema_version}; readers raise [Obs.Versioned.Version_mismatch] on
    skew (the CLI maps it to exit code 2). *)

val schema_version : int

type signal =
  | Unknown_share  (** percent of the epoch's verdicts left Unclassified *)
  | Mean_confidence  (** mean verdict confidence this epoch *)
  | Mean_margin  (** mean winning margin this epoch *)
  | Timeouts  (** verdicts that exhausted the timeout budget this epoch *)
  | Drift_rate
      (** largest [rate_per_epoch] among drift events alarming this
          epoch; 0 when none *)
  | Journal_lag  (** admitted-but-uncommitted jobs (health surface) *)
  | Overload_share
      (** percent of admission attempts bounced at the high-water mark *)

val signal_name : signal -> string

type bound = Ceiling | Floor

type rule = {
  name : string;
  signal : signal;
  bound : bound;
  limit : float;  (** breach is value > limit (ceiling) / < limit (floor) *)
  for_epochs : int;  (** consecutive breached epochs before firing (>= 1) *)
}

val default_rules : rule list
(** unknown-share ceiling 45, mean-confidence floor 0.5, timeouts
    ceiling 0, drift-rate ceiling 2.5 pts/epoch, journal-lag ceiling
    512, overload-share ceiling 50%. *)

val rules_to_json : rule list -> Obs.Json.t
val rules_of_json : Obs.Json.t -> rule list
(** Raises [Obs.Versioned.Version_mismatch] on skew,
    [Obs.Json.Parse_error] on a wrong kind or a malformed document
    (unknown signal, missing bound, non-positive [for_epochs]). *)

val load_rules : string -> rule list
(** Read a rules file; same exceptions as {!rules_of_json}, plus
    [Sys_error] on an unreadable path. *)

(** {1 The engine} *)

type t

val create : rule list -> t
(** Fresh engine: every rule quiet with an empty breach streak. *)

type action = Fire | Resolve

type transition = {
  epoch : int;
  rule : string;
  action : action;
  value : float;  (** the signal value that caused the edge *)
  limit : float;
}

val transition_to_json : transition -> Obs.Json.t
val transition_of_json : Obs.Json.t -> transition
(** Raises like {!rules_of_json}. *)

val write_log : string -> transition list -> unit
(** The JSONL alert log: one {!transition_to_json} line per transition,
    written with [Obs.Versioned.atomic_write] so a watcher never reads a
    torn log. *)

val read_log : string -> transition list
(** Read a log written by {!write_log}; raises like {!load_rules}. *)

val signal_values :
  ?health:Health.snapshot ->
  ?point:Obs.Drift.point ->
  ?events:Obs.Drift.event list ->
  unit ->
  signal ->
  float
(** The standard signal lookup: ledger-point signals read 0 when
    [point] is absent, health signals read 0 when [health] is absent,
    [Drift_rate] is the largest event magnitude in [events]. Partial
    application gives {!evaluate} its [signal_value]. *)

val evaluate : t -> epoch:int -> signal_value:(signal -> float) -> transition list
(** Evaluate every rule against this epoch's signals, update
    fire/resolve state, and return the edges (sorted by rule name).
    Call exactly once per epoch, in epoch order. *)

val firing : t -> (string * bool) list
(** Current state per rule, sorted by rule name. *)

val gauges : t -> string
(** Prometheus exposition block: a [nebby_alert{rule="…"}] gauge (1
    firing / 0 quiet) per rule, with HELP and TYPE, for appending to
    {!Health.to_prometheus}'s output. *)

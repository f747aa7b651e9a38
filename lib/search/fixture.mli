(** Schema-versioned adversarial regression fixtures.

    A fixture is one minimized counterexample, committed under
    [test/adversarial/] so the scenario diversity the search discovered
    compounds across PRs: the genome, the verdict it provoked (expected
    versus observed label, confidence, margin, failure chain), the exact
    training and measurement configuration needed to reproduce it, the
    flight-recorder coverage signature that made it novel, and the search
    provenance (seed, budget, evaluation index, minimizer effort).

    {b Stability.} Fixtures carry {!schema_version}; reading a fixture
    whose version differs raises [Obs.Versioned.Version_mismatch] (the
    CLI maps it to exit code 2). {!to_string} is deterministic — fixed field order,
    numbers through the JSON writer — and round-trips byte-identically
    through {!of_string}. *)

val schema_version : int

type verdict_class = Misclassified | Margin_collapse | Typed_failure | Correct

val class_label : verdict_class -> string
val class_of_label : string -> (verdict_class, string) result

type t = {
  version : int;
  name : string;  (** fixture identity; also its file basename *)
  genome : Genome.t;
  expected : string;  (** the CCA actually running (= [genome.cca]) *)
  got : string;  (** the label the classifier returned *)
  verdict_class : verdict_class;  (** never {!Correct} — see {!make} *)
  confidence : float;
  margin : float;
  failures : string list;  (** typed failure chain of the measurement *)
  signature : string;  (** coverage signature that admitted the find *)
  flight_kinds : (string * int) list;  (** flight event-kind counts *)
  training_runs : int;
  training_quic_runs : int;
  training_seed : int;
  max_attempts : int;
  confidence_floor : float;  (** margin-collapse thresholds at find time *)
  margin_floor : float;
  search_seed : int;
  search_budget : int;
  found_at : int;  (** evaluation index that first hit the signature *)
  minimize_steps : int;  (** evaluations the minimizer spent *)
  original_specs : int;  (** spec count before minimization *)
}

val make :
  name:string ->
  genome:Genome.t ->
  got:string ->
  verdict_class:verdict_class ->
  confidence:float ->
  margin:float ->
  failures:string list ->
  signature:string ->
  flight_kinds:(string * int) list ->
  training_runs:int ->
  training_quic_runs:int ->
  training_seed:int ->
  max_attempts:int ->
  confidence_floor:float ->
  margin_floor:float ->
  search_seed:int ->
  search_budget:int ->
  found_at:int ->
  minimize_steps:int ->
  original_specs:int ->
  t
(** Stamp a fixture with the current {!schema_version}. Raises
    [Invalid_argument] when [verdict_class] is {!Correct} (an empty
    counterexample) or the genome fails [Genome.validate] — a fixture
    that cannot reproduce a failure must never reach disk. *)

val to_string : t -> string
(** One-line JSON plus trailing newline; deterministic. *)

val of_string : string -> (t, string) result
(** Round-trips with {!to_string}. Raises [Obs.Versioned.Version_mismatch]
    on a schema skew (loud, like every other versioned reader); a wrong
    kind, a non-integer version and shape errors return [Error]. *)

val load : string -> (t, string) result
(** Read one fixture file. *)

val save : dir:string -> t -> string
(** Write the fixture as [dir/name.json] (creating [dir] if needed) with
    [Obs.Versioned.atomic_write]; returns the path. *)

(** The coverage-guided adversarial search loop.

    Candidate genomes are generated {e before} dispatch from one seeded
    stream, evaluated through the real measurement pipeline on an
    [Engine.Pool] (results folded in canonical index order), and admitted
    to the corpus only when their coverage signature — verdict shape plus
    flight-recorder event-kind histogram — is novel. Each new
    counterexample class is delta-debugged ({!Minimize.genome}) down to a
    minimal scenario and packaged as a {!Fixture.t}.

    Everything is a pure function of [(control, config, seed)]: the same
    inputs give a byte-identical corpus and fixture set at any [jobs]
    count. *)

type eval = {
  genome : Genome.t;
  got : string;  (** the classifier's label *)
  verdict_class : Fixture.verdict_class;
  confidence : float;
  margin : float;
  failures : string list;  (** typed failure chain, oldest first *)
  flight_kinds : (string * int) list;
      (** flight event-kind counts for this evaluation, sorted by kind *)
  signature : string;  (** coverage signature, see {!Corpus} *)
  fitness : float;  (** misclassified > margin collapse > typed failure *)
}

type config = {
  budget : int;  (** search evaluations (minimization is extra) *)
  jobs : int;  (** worker domains; any value yields the same corpus *)
  targets : string list;  (** CCAs the search may attack *)
  max_attempts : int;  (** measurement attempts per evaluation *)
  confidence_floor : float;  (** below ⇒ margin collapse (default 0.6) *)
  margin_floor : float;  (** below ⇒ margin collapse (default 0.5) *)
  batch : int;
      (** candidates generated per dispatch — fixed, so scheduling can
          never leak into corpus content (default 8) *)
  training_runs : int;
  training_quic_runs : int;
  training_seed : int;  (** recorded in fixtures so replay can retrain *)
}

val default_config : config
(** budget 256, jobs 1, targets [Cca.Registry.kernel_ccas], 2 attempts,
    floors 0.6/0.5, batch 8, training 3/2 runs at seed 7. *)

val control_of_config : config -> Nebby.Training.control
(** [Training.train] with the config's training knobs. *)

type finding = {
  fixture : Fixture.t;
  minimized : eval;  (** the minimized genome's own evaluation *)
}

type result = {
  findings : finding list;  (** one per counterexample class, in discovery order *)
  corpus : (string * float * Genome.t) list;
      (** (signature, fitness, genome) in admission order *)
  evals : int;  (** search evaluations spent (= budget unless exhausted early) *)
  minimize_evals : int;  (** extra evaluations spent minimizing *)
}

val run :
  ?log:(string -> unit) ->
  control:Nebby.Training.control ->
  config:config ->
  seed:int ->
  unit ->
  result
(** The search: seed the corpus with each target's baseline genome and
    the chaos standard suite (clamped into the genome box), then breed —
    fitness-weighted parent pick, one mutation each — in fixed-size
    batches until the budget is spent. The first evaluation to reach a
    new [(cca, class, got)] counterexample key is minimized immediately
    (serially, in the calling domain) and becomes a fixture. [log]
    receives one-line progress notes. *)

type replay_status =
  | Reproduced  (** same verdict class and label as recorded *)
  | Fixed  (** the scenario now classifies correctly *)
  | Changed  (** still failing, but differently than recorded *)

val replay_status_label : replay_status -> string

val replay : control:Nebby.Training.control -> Fixture.t -> replay_status * eval
(** Re-evaluate a fixture's genome under its recorded measurement
    settings and compare against its recorded verdict. *)

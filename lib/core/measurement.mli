(** The measurement orchestrator: how Nebby measures one target server.

    Each attempt downloads the target page under both network profiles
    (§3.3), classifies each trace, and combines: agreement or a single
    decisive profile yields a classification; anything else is diagnosed
    into a typed {!failure_reason} and retried under seeded-jittered
    exponential backoff, within per-reason retry budgets (§2.1, "Handling
    Noisy Measurements"). A measurement never raises on malformed input:
    it degrades to an ["unknown"] report carrying the reason chain. *)

type failure_reason =
  | Trace_truncated
      (** the capture covers much less of the flow than the sender sent *)
  | Too_few_oscillations
      (** the preparation pipeline produced no usable segments *)
  | Low_confidence  (** classifiers disagreed or abstained *)
  | Flow_reset  (** the server went silent mid-flow (RST) *)
  | Timeout  (** the transfer did not finish within the time limit *)

val failure_reason_label : failure_reason -> string
(** Stable snake_case tag, used in telemetry and CLI diagnostics. *)

type config = {
  max_attempts : int;  (** measurement attempts before giving up (default 5) *)
  retry_budgets : (failure_reason * int) list;
      (** max retries after each occurrence of a reason; reasons not
          listed are limited only by [max_attempts] *)
  sleep : float -> unit;
      (** invoked with each backoff delay; defaults to [ignore] because
          the testbed is simulated — a live deployment passes
          [Unix.sleepf] *)
  flight_confidence : float;
      (** verdicts whose confidence falls below this trigger a flight
          dump (default 0.6; set to 2 to force a dump on every verdict) *)
  flight_margin : float;
      (** verdicts whose winning margin falls below this trigger a
          flight dump (default 0.5) *)
}

val default_config : config
(** The paper's policy: 5 attempts and tight budgets for reasons that
    indicate a misbehaving server (one retry after a reset or timeout, two
    after truncation). The backoff is fixed: a 0.5 s first delay doubling
    per retry, plus up to 25% jitter drawn from a substream of the
    measurement seed. An anomaly dump keeps each run's trailing 10 virtual
    seconds. *)

type report = {
  label : string;  (** final classification, or ["unknown"] *)
  attempts : int;  (** measurement attempts consumed *)
  per_profile : (string * string) list;
      (** (profile name, label) for the last attempt *)
  failures : failure_reason list;
      (** one reason per failed attempt, oldest first; empty iff the first
          attempt classified *)
  backoff_total : float;  (** total backoff delay accrued, seconds *)
  provenance : Obs.Provenance.report option;
      (** the decision provenance of the verdict (built on the attempt
          that classified, or the last failed attempt); [None] only when
          the last attempt never classified: the server reset the flow,
          or the pipeline broke on a malformed trace *)
  flight : Obs.Flight.dump option;
      (** packet-level flight-recorder dump captured at the first anomaly
          trigger of this measurement — any typed failure (hence every
          retried attempt), or a verdict under the configured
          confidence/margin thresholds; [None] when nothing triggered.
          Cross-linked to [provenance] by the shared subject id. *)
}

val report_metrics : report -> (string * float) list
(** Flatten a report to the named numeric cells a campaign aggregates:
    [attempts], [failures] (count), [backoff_s], and — when the verdict
    carries provenance — [confidence] and [margin]. Order is fixed;
    absent provenance simply omits its two cells. *)

val prepare_result :
  ?transform:(rtt:float -> Bif.series -> Bif.series) ->
  ?smoothen:bool ->
  profile:Profile.t ->
  Testbed.result ->
  Pipeline.t
(** Estimate BiF and run the preparation pipeline for one captured trace.
    [transform] degrades the series first (metric ablations). *)

val capture_truncated : Netsim.Trace.t -> sender_end:float -> bool
(** The capture is truncated when it holds under 16 packets, or covers
    less than 80% of the time the sender ran: [sender_end] is the time of
    the sender's last ground-truth BiF sample
    ({!Testbed.simulation.sender_end}). A measurement diagnoses such an
    attempt as [Trace_truncated]. *)

val explain_prepared :
  ?plugins:Plugin.t list ->
  ?proto:Netsim.Packet.proto ->
  control:Training.control ->
  subject:string ->
  (string * Bif.series * Pipeline.t) list ->
  Classifier.outcome * (string * string) list * Obs.Provenance.report
(** Classify (profile name, BiF estimate, prepared trace) triples in one
    pass ({!Classifier.explain_measurement}) and return the outcome, the
    (profile name, label) of each profile on its own, and the full
    verdict report: BiF/pipeline/trace-signature stage summaries,
    per-profile feature vectors, every candidate score, margin and
    confidence. Every attempt of {!measure} classifies through it, and
    the CLI's [explain] uses it on replayed fixtures. *)

val measure :
  ?plugins:Plugin.t list ->
  ?profiles:Profile.t list ->
  ?transform:(rtt:float -> Bif.series -> Bif.series) ->
  ?smoothen:bool ->
  ?noise:Netsim.Path.noise ->
  ?proto:Netsim.Packet.proto ->
  ?page_bytes:int ->
  ?seed:int ->
  ?config:config ->
  ?faults:Faults.plan ->
  ?subject:string ->
  control:Training.control ->
  make_cca:(Cca.params -> Cca.t) ->
  unit ->
  report
(** Measure a simulated target server end to end. [faults] forwards a
    fault plan to every {!Testbed.simulate} of every attempt. When the runtime
    is armed, attempts, failed attempts, retries and finished
    measurements are counted ([measurement.attempts],
    [measurement.attempt_failures], [measurement.retries],
    [measurement.done]).

    Every attempt that classifies builds the verdict report carried in
    [report.provenance], and every anomaly trigger captures a flight
    dump; [subject] names the measured target in both. *)

val measure_cca :
  ?plugins:Plugin.t list ->
  ?noise:Netsim.Path.noise ->
  ?proto:Netsim.Packet.proto ->
  ?seed:int ->
  ?config:config ->
  ?faults:Faults.plan ->
  control:Training.control ->
  string ->
  report
(** Convenience wrapper resolving the CCA by registry name (which also
    becomes the provenance subject). *)

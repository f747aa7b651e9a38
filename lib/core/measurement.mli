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
  backoff_base : float;  (** first retry delay, seconds (default 0.5) *)
  backoff_factor : float;  (** exponential growth per retry (default 2) *)
  backoff_jitter : float;
      (** uniform jitter fraction added to each delay, drawn from a
          substream of the measurement seed (default 0.25) *)
  retry_budgets : (failure_reason * int) list;
      (** max retries after each occurrence of a reason; reasons not
          listed are limited only by [max_attempts] *)
  sleep : float -> unit;
      (** invoked with each backoff delay; defaults to [ignore] because
          the testbed is simulated — a live deployment passes
          [Unix.sleepf] *)
  flight_window_s : float;
      (** trailing virtual seconds of each run captured in an anomaly
          dump (default 10) *)
  flight_confidence : float;
      (** verdicts whose confidence falls below this trigger a flight
          dump (default 0.6; set to 2 to force a dump on every verdict) *)
  flight_margin : float;
      (** verdicts whose winning margin falls below this trigger a
          flight dump (default 0.5) *)
}

val default_config : config
(** The paper's policy: 5 attempts, 0.5 s base delay doubling with 25%
    jitter, and tight budgets for reasons that indicate a misbehaving
    server (one retry after a reset or timeout, two after truncation). *)

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
          that classified, or the last failed attempt); [None] when
          collection was disabled or the pipeline broke before
          classifying *)
  flight : Obs.Flight.dump option;
      (** packet-level flight-recorder dump captured at the first anomaly
          trigger of this measurement — any typed failure (hence every
          retried attempt), or a verdict under the configured
          confidence/margin thresholds; [None] when nothing triggered or
          when [provenance] collection was disabled (the label-only hot
          path skips dump capture along with verdict reports).
          Cross-linked to [provenance] by the shared subject id. *)
}

val report_metrics : report -> (string * float) list
(** Flatten a report to the named numeric cells a campaign aggregates:
    [attempts], [failures] (count), [backoff_s], and — when the verdict
    carries provenance — [confidence] and [margin]. Order is fixed;
    absent provenance simply omits its two cells. *)

val prepare_result :
  ?transform:(rtt:float -> (float * float) list -> (float * float) list) ->
  ?smoothen:bool ->
  profile:Profile.t ->
  Testbed.result ->
  Pipeline.t
(** Estimate BiF and run the preparation pipeline for one captured trace.
    [transform] degrades the series first (metric ablations). *)

val explain_prepared :
  ?plugins:Plugin.t list ->
  ?proto:Netsim.Packet.proto ->
  control:Training.control ->
  subject:string ->
  (string * (float * float) list * Pipeline.t) list ->
  Classifier.outcome * Obs.Provenance.report
(** Classify (profile name, BiF estimate, prepared trace) triples and
    build the full verdict report: BiF/pipeline/trace-signature stage
    summaries, per-profile feature vectors, every candidate score, margin
    and confidence. This is the provenance builder behind {!measure} and
    the CLI's [explain] on replayed fixtures. *)

val measure :
  ?plugins:Plugin.t list ->
  ?profiles:Profile.t list ->
  ?transform:(rtt:float -> (float * float) list -> (float * float) list) ->
  ?smoothen:bool ->
  ?noise:Netsim.Path.noise ->
  ?proto:Netsim.Packet.proto ->
  ?page_bytes:int ->
  ?seed:int ->
  ?config:config ->
  ?faults:Faults.plan ->
  ?provenance:bool ->
  ?subject:string ->
  control:Training.control ->
  make_cca:(Cca.params -> Cca.t) ->
  unit ->
  report
(** Measure a simulated target server end to end. [faults] forwards a
    fault plan to every {!Testbed.run} of every attempt. When the runtime
    is armed, attempts, failed attempts, retries and finished
    measurements are counted ([measurement.attempts],
    [measurement.attempt_failures], [measurement.retries],
    [measurement.done]).

    [provenance] (default [true]) builds the verdict report carried in
    [report.provenance] and hands it to {!Obs.Provenance.emit} (a no-op
    unless a collector is active); [subject] names the measured target in
    that report. Disabling skips the extra scoring work on hot paths that
    only need the label. *)

val measure_cca :
  ?plugins:Plugin.t list ->
  ?noise:Netsim.Path.noise ->
  ?proto:Netsim.Packet.proto ->
  ?seed:int ->
  ?config:config ->
  ?faults:Faults.plan ->
  ?provenance:bool ->
  control:Training.control ->
  string ->
  report
(** Convenience wrapper resolving the CCA by registry name (which also
    becomes the provenance subject). *)

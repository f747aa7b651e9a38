type failure_reason =
  | Trace_truncated
  | Too_few_oscillations
  | Low_confidence
  | Flow_reset
  | Timeout

let failure_reason_label = function
  | Trace_truncated -> "trace_truncated"
  | Too_few_oscillations -> "too_few_oscillations"
  | Low_confidence -> "low_confidence"
  | Flow_reset -> "flow_reset"
  | Timeout -> "timeout"

type config = {
  max_attempts : int;
  retry_budgets : (failure_reason * int) list;
  sleep : float -> unit;
  flight_confidence : float;
  flight_margin : float;
}

(* retry n waits base * factor^(n - 1), plus up to [backoff_jitter] of that *)
let backoff_base = 0.5
let backoff_factor = 2.0
let backoff_jitter = 0.25
let flight_window_s = 10.0  (* trailing virtual seconds of each run in a dump *)

let default_config =
  {
    max_attempts = 5;
    (* a server that resets or times out once will usually do it again;
       don't burn the whole attempt budget on it *)
    retry_budgets = [ (Flow_reset, 1); (Timeout, 1); (Trace_truncated, 2) ];
    sleep = ignore;
    (* confident verdicts sit at confidence ~1 and margins in the tens;
       anything under these marks is worth a packet-level post-mortem *)
    flight_confidence = 0.6;
    flight_margin = 0.5;
  }

let retry_budget config reason =
  match List.assoc_opt reason config.retry_budgets with Some n -> n | None -> max_int

type report = {
  label : string;
  attempts : int;
  per_profile : (string * string) list;
  failures : failure_reason list;
  backoff_total : float;
  provenance : Obs.Provenance.report option;
  flight : Obs.Flight.dump option;
}

let report_metrics r =
  [
    ("attempts", float_of_int r.attempts);
    ("failures", float_of_int (List.length r.failures));
    ("backoff_s", r.backoff_total);
  ]
  @
  match r.provenance with
  | Some p ->
    [
      ("confidence", p.Obs.Provenance.confidence); ("margin", p.Obs.Provenance.margin);
    ]
  | None -> []

let prepare_result ?(transform = fun ~rtt:_ pts -> pts) ?smoothen ~profile
    (result : Testbed.result) =
  let rtt = Profile.rtt profile in
  let bif = transform ~rtt (Bif.estimate result.Testbed.trace) in
  Pipeline.prepare ?smoothen ~rtt bif

let explain_prepared ?plugins ?proto ~control ~subject entries =
  let prepared = List.map (fun (name, _, p) -> (name, p)) entries in
  let outcome, _verdicts, expl =
    Classifier.explain_measurement ?plugins ?proto ~control prepared
  in
  let label = Classifier.outcome_label outcome in
  let stages =
    List.concat_map
      (fun (name, bif, p) ->
        [
          { Obs.Provenance.stage = "bif:" ^ name; fields = Bif.stats bif };
          { Obs.Provenance.stage = "pipeline:" ^ name; fields = Pipeline.summary p };
          { Obs.Provenance.stage = "trace_sig:" ^ name; fields = Trace_sig.summary p };
        ])
      entries
    @ List.map
        (fun (key, fields) -> { Obs.Provenance.stage = "signals:" ^ key; fields })
        expl.Classifier.signals
  in
  let features =
    List.filter_map
      (fun (name, _, p) -> Option.map (fun v -> (name, v)) (Features.trace_vector p))
      entries
  in
  let report =
    Obs.Provenance.make ~subject ~label ~confidence:expl.Classifier.confidence
      ~margin:expl.Classifier.margin ~features ~stages
      ~candidates:expl.Classifier.candidates
  in
  (outcome, expl.Classifier.per_profile, report)

let capture_truncated trace ~sender_end =
  Netsim.Trace.length trace < 16 || Netsim.Trace.duration trace < 0.8 *. sender_end

let run_truncated (r : Testbed.simulation) =
  capture_truncated r.Testbed.trace ~sender_end:r.Testbed.sender_end

(* Truncation outranks timeout: a truncated capture misses most of what the
   sender sent, while a timed-out transfer is still fully captured — so when
   both hold, the capture gap is the actionable cause. *)
let diagnose runs ~segments =
  if List.exists (fun (_, (r : Testbed.simulation)) -> r.flow_reset) runs then Flow_reset
  else if List.exists (fun (_, r) -> run_truncated r) runs then Trace_truncated
  else if List.exists (fun (_, (r : Testbed.simulation)) -> not r.finished) runs then Timeout
  else if segments = 0 then Too_few_oscillations
  else Low_confidence

let measure ?plugins ?profiles ?transform ?smoothen ?(noise = Netsim.Path.mild)
    ?(proto = Netsim.Packet.Tcp) ?(page_bytes = Profile.default_page_bytes) ?(seed = 99)
    ?(config = default_config) ?faults ?(subject = "measurement")
    ~control ~make_cca () =
  let profiles = match profiles with Some p -> p | None -> control.Training.profiles in
  (* jitter draws come from a named substream of the measurement seed, so
     backoff randomization can never perturb the measurement itself *)
  let backoff_rng = Netsim.Rng.named (Netsim.Rng.create seed) "measurement.backoff" in
  (* Anomaly-triggered flight dump: the first trigger of the measurement —
     a typed failure (hence also every retry) or a verdict under the
     confidence/margin thresholds — snapshots the ring's trailing window
     with the attempt's BiF. First trigger wins: the dump captures the
     dynamics that first went wrong, not whatever the last attempt
     happened to look like. (It is attempt 1: a later verdict comes only
     after a failure, which triggered.) *)
  let flight_since = Obs.Flight.mark () in
  let flight_dump = ref None in
  let trigger_flight ~attempt ~trigger runs =
    if !flight_dump = None then
      flight_dump :=
        Some
          (Obs.Flight.capture ~subject ~trigger ~attempt ~since:flight_since
             ~window_s:flight_window_s
             ~bif:(List.map (fun (_, (r : Testbed.simulation)) -> r.bif) runs)
             ())
  in
  let simulate n =
    Obs.Metrics.bump "measurement.attempts";
    List.mapi
      (fun i profile ->
        let run_seed = seed + (7919 * n) + (31 * i) in
        ( profile,
          Testbed.simulate ~seed:run_seed ~noise ~proto ~page_bytes ?faults ~profile
            ~make_cca () ))
      profiles
  in
  let classify runs =
    if List.exists (fun (_, (r : Testbed.simulation)) -> r.flow_reset) runs then
      `Failed (Flow_reset, [], None)
    else begin
      match
        Obs.Flight.stage ~time:0.0 ~name:"prepare";
        let full =
          List.map
            (fun (p, (r : Testbed.simulation)) ->
              let rtt = Profile.rtt p in
              let tf = match transform with Some f -> f | None -> fun ~rtt:_ pts -> pts in
              let bif = tf ~rtt (Bif.estimate r.trace) in
              (p.Profile.name, bif, Pipeline.prepare ?smoothen ~rtt bif))
            runs
        in
        Obs.Flight.stage ~time:0.0 ~name:"classify";
        let outcome, per_profile, prov =
          explain_prepared ?plugins ~proto ~control ~subject full
        in
        let segments =
          List.fold_left (fun acc (_, _, prep) -> acc + Pipeline.segment_count prep) 0 full
        in
        (outcome, per_profile, segments, prov)
      with
      | Classifier.Known label, per_profile, _, prov -> `Classified (label, per_profile, prov)
      | Classifier.Unknown, per_profile, segments, prov ->
        `Failed (diagnose runs ~segments, per_profile, Some prov)
      | exception _ ->
        (* a malformed trace broke the pipeline: diagnose rather than raise *)
        let reason =
          if List.exists (fun (_, r) -> run_truncated r) runs then Trace_truncated
          else Low_confidence
        in
        `Failed (reason, [], None)
    end
  in
  let rec go n failures backoff_total =
    let runs = simulate n in
    match classify runs with
    | `Classified (label, per_profile, prov) ->
      if
        prov.Obs.Provenance.confidence < config.flight_confidence
        || prov.Obs.Provenance.margin < config.flight_margin
      then trigger_flight ~attempt:n ~trigger:"low_confidence" runs;
      {
        label;
        attempts = n;
        per_profile;
        failures = List.rev failures;
        backoff_total;
        provenance = Some prov;
        flight = !flight_dump;
      }
    | `Failed (reason, per_profile, prov) ->
      trigger_flight ~attempt:n ~trigger:("failure:" ^ failure_reason_label reason) runs;
      Obs.Metrics.bump "measurement.attempt_failures";
      let failures = reason :: failures in
      let occurrences = List.length (List.filter (( = ) reason) failures) in
      if n >= config.max_attempts || occurrences > retry_budget config reason then
        {
          label = "unknown";
          attempts = n;
          per_profile;
          failures = List.rev failures;
          backoff_total;
          provenance = prov;
          flight = !flight_dump;
        }
      else begin
        let jitter = 1.0 +. (backoff_jitter *. Netsim.Rng.float backoff_rng) in
        let delay = backoff_base *. (backoff_factor ** float_of_int (n - 1)) *. jitter in
        Obs.Metrics.bump "measurement.retries";
        config.sleep delay;
        go (n + 1) failures (backoff_total +. delay)
      end
  in
  let report = go 1 [] 0.0 in
  Obs.Metrics.bump "measurement.done";
  report

let measure_cca ?plugins ?noise ?proto ?seed ?config ?faults ~control name =
  measure ?plugins ?noise ?proto ?seed ?config ?faults ~subject:name
    ~control ~make_cca:(Cca.Registry.create name) ()

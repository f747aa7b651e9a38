(* Tests for the fault-injection harness: plan serialization, RNG substream
   isolation, determinism under faults, graceful degradation of the
   measurement pipeline, and defensive trace validation. *)

let profile = Nebby.Profile.delay_50ms

(* Smaller than the main suite's fixture: these tests only need *some*
   trained control, not a well-calibrated one. *)
let control = lazy (Nebby.Training.train ~runs_per_cca:5 ~quic_runs_per_cca:2 ())

let run_with ?faults ~seed cca =
  Nebby.Testbed.run ~seed ?faults ~profile ~make_cca:(Cca.Registry.create cca) ()

let trace_fingerprint (r : Nebby.Testbed.result) =
  List.map
    (fun (o : Netsim.Trace.obs) -> (o.time, o.dir = Netsim.Packet.To_client, o.size))
    (Netsim.Trace.observations r.trace)

(* ---- plan serialization ---- *)

let full_plan =
  {
    Faults.seed = 77;
    specs =
      [
        Faults.Link_flap { at = 1.0; duration = 0.5 };
        Faults.Rate_change { at = 2.0; factor = 0.25 };
        Faults.Burst_loss
          { at = 3.0; duration = 1.0; dir = Netsim.Packet.To_client; prob = 0.5 };
        Faults.Reorder
          { at = 4.0; duration = 1.0; dir = Netsim.Packet.To_server; prob = 0.1; max_extra = 0.05 };
        Faults.Duplicate { at = 5.0; duration = 1.0; dir = Netsim.Packet.To_client; prob = 0.2 };
        Faults.Ack_storm { at = 6.0; duration = 1.0; hold = 0.1 };
        Faults.Capture_loss { at = 7.0; duration = 1.0; prob = 0.05 };
        Faults.Capture_jitter { std = 0.001 };
        Faults.Truncate_capture { at = 8.0 };
        Faults.Server_stall { at = 9.0; duration = 1.0 };
        Faults.Flow_reset { at = 10.0 };
      ];
  }

let test_plan_json_roundtrip () =
  let s = Faults.to_string full_plan in
  match Faults.of_string s with
  | Error e -> Alcotest.fail ("round-trip failed: " ^ e)
  | Ok plan ->
    Alcotest.(check string) "identical serialization" s (Faults.to_string plan);
    Alcotest.(check int) "seed preserved" 77 plan.Faults.seed;
    Alcotest.(check int) "all specs preserved" (List.length full_plan.Faults.specs)
      (List.length plan.Faults.specs)

let test_plan_json_rejects_garbage () =
  (match Faults.of_string "{\"nonsense\":true}" with
  | Ok _ -> Alcotest.fail "accepted a plan without fields"
  | Error _ -> ());
  match Faults.of_string "not json at all" with
  | Ok _ -> Alcotest.fail "accepted non-JSON"
  | Error _ -> ()

let test_family_names () =
  List.iter
    (fun spec ->
      let fam = Faults.spec_family spec in
      Alcotest.(check bool) (fam ^ " is a registered family") true
        (List.mem fam Faults.families))
    full_plan.Faults.specs

(* ---- RNG substreams ---- *)

let test_named_does_not_advance_parent () =
  let a = Netsim.Rng.create 123 and b = Netsim.Rng.create 123 in
  let _sub = Netsim.Rng.named a "faults.burst_loss#0" in
  let da = List.init 8 (fun _ -> Netsim.Rng.int a 1_000_000) in
  let db = List.init 8 (fun _ -> Netsim.Rng.int b 1_000_000) in
  Alcotest.(check (list int)) "parent stream untouched by forking" db da

let test_named_streams_distinct () =
  let root = Netsim.Rng.create 9 in
  let s1 = Netsim.Rng.named root "burst_loss#0" in
  let s2 = Netsim.Rng.named root "burst_loss#1" in
  let d1 = List.init 8 (fun _ -> Netsim.Rng.int s1 1_000_000) in
  let d2 = List.init 8 (fun _ -> Netsim.Rng.int s2 1_000_000) in
  Alcotest.(check bool) "different names, different streams" true (d1 <> d2)

(* ---- determinism ---- *)

let chaos_plan =
  {
    Faults.seed = 31;
    specs =
      [
        Faults.Burst_loss
          { at = 4.0; duration = 2.0; dir = Netsim.Packet.To_client; prob = 0.3 };
        Faults.Reorder
          { at = 7.0; duration = 4.0; dir = Netsim.Packet.To_client; prob = 0.1; max_extra = 0.02 };
        Faults.Capture_jitter { std = 0.001 };
      ];
  }

let test_identical_seeds_identical_traces () =
  let r1 = run_with ~faults:chaos_plan ~seed:6 "cubic" in
  let r2 = run_with ~faults:chaos_plan ~seed:6 "cubic" in
  Alcotest.(check bool) "fault plan actually fired" true (r1.faults_injected > 0);
  Alcotest.(check int) "same injection count" r1.faults_injected r2.faults_injected;
  Alcotest.(check bool) "identical capture" true
    (trace_fingerprint r1 = trace_fingerprint r2)

let test_empty_plan_is_transparent () =
  (* arming an empty plan must not perturb a single RNG draw of the base
     simulation: the capture must be byte-identical to a fault-free run *)
  let plain = run_with ~seed:11 "newreno" in
  let armed = run_with ~faults:Faults.empty ~seed:11 "newreno" in
  Alcotest.(check int) "no injections" 0 armed.faults_injected;
  Alcotest.(check bool) "identical capture" true
    (trace_fingerprint plain = trace_fingerprint armed)

let test_link_flap_changes_capture () =
  let plain = run_with ~seed:3 "cubic" in
  let flapped =
    run_with
      ~faults:{ Faults.seed = 1; specs = [ Faults.Link_flap { at = 5.0; duration = 1.0 } ] }
      ~seed:3 "cubic"
  in
  Alcotest.(check bool) "flap fired" true (flapped.faults_injected > 0);
  Alcotest.(check bool) "capture differs from fault-free run" true
    (trace_fingerprint plain <> trace_fingerprint flapped)

(* ---- graceful degradation: the acceptance criterion ---- *)

let quick_config = { Nebby.Measurement.default_config with max_attempts = 2 }

let test_no_fault_raises () =
  let control = Lazy.force control in
  List.iter
    (fun (family, plan) ->
      List.iter
        (fun cca ->
          match
            Nebby.Measurement.measure_cca ~control ~config:quick_config ~faults:plan
              ~seed:2024 cca
          with
          | report ->
            let ok =
              report.Nebby.Measurement.label <> "unknown"
              || report.Nebby.Measurement.failures <> []
            in
            Alcotest.(check bool)
              (Printf.sprintf "%s under %s: classification or typed unknown" cca family)
              true ok
          | exception e ->
            Alcotest.fail
              (Printf.sprintf "%s under %s raised %s" cca family (Printexc.to_string e)))
        [ "newreno"; "cubic"; "bbr" ])
    (Nebby.Chaos.standard_suite ~seed:13 ())

let test_flow_reset_diagnosed () =
  let control = Lazy.force control in
  let plan = { Faults.seed = 4; specs = [ Faults.Flow_reset { at = 5.0 } ] } in
  let report = Nebby.Measurement.measure_cca ~control ~faults:plan ~seed:8 "cubic" in
  Alcotest.(check string) "cannot classify a reset flow" "unknown"
    report.Nebby.Measurement.label;
  Alcotest.(check bool) "reason chain names the reset" true
    (List.mem Nebby.Measurement.Flow_reset report.Nebby.Measurement.failures);
  (* retry budget for resets is 1: one retry then give up *)
  Alcotest.(check int) "budgeted attempts" 2 report.Nebby.Measurement.attempts

let test_truncation_diagnosed () =
  let control = Lazy.force control in
  let plan = { Faults.seed = 4; specs = [ Faults.Truncate_capture { at = 2.0 } ] } in
  let report =
    Nebby.Measurement.measure_cca ~control ~config:quick_config ~faults:plan ~seed:8 "cubic"
  in
  Alcotest.(check string) "unknown" "unknown" report.Nebby.Measurement.label;
  Alcotest.(check bool) "truncation in the chain" true
    (List.mem Nebby.Measurement.Trace_truncated report.Nebby.Measurement.failures)

let test_max_attempts_config () =
  let control = Lazy.force control in
  let plan = { Faults.seed = 4; specs = [ Faults.Flow_reset { at = 1.0 } ] } in
  let config = { Nebby.Measurement.default_config with max_attempts = 1 } in
  let report = Nebby.Measurement.measure_cca ~control ~config ~faults:plan ~seed:8 "cubic" in
  Alcotest.(check int) "single attempt honoured" 1 report.Nebby.Measurement.attempts

let test_backoff_accrues () =
  let control = Lazy.force control in
  let slept = ref [] in
  let config =
    {
      Nebby.Measurement.default_config with
      max_attempts = 3;
      retry_budgets = [];
      sleep = (fun d -> slept := d :: !slept);
    }
  in
  let plan = { Faults.seed = 4; specs = [ Faults.Truncate_capture { at = 1.0 } ] } in
  let report = Nebby.Measurement.measure_cca ~control ~config ~faults:plan ~seed:8 "cubic" in
  Alcotest.(check int) "all attempts consumed" 3 report.Nebby.Measurement.attempts;
  Alcotest.(check int) "one sleep per retry" 2 (List.length !slept);
  Alcotest.(check (float 1e-9)) "report sums the delays"
    (List.fold_left ( +. ) 0.0 !slept)
    report.Nebby.Measurement.backoff_total;
  (* exponential growth: second delay exceeds the first even with jitter,
     because base doubles and jitter adds at most 25% *)
  match List.rev !slept with
  | [ d1; d2 ] -> Alcotest.(check bool) "backoff grows" true (d2 > d1)
  | _ -> Alcotest.fail "expected exactly two delays"

let test_retry_budget_exhausted_before_max_attempts () =
  let control = Lazy.force control in
  let slept = ref [] in
  let config =
    {
      Nebby.Measurement.default_config with
      max_attempts = 10;
      retry_budgets = [ (Nebby.Measurement.Flow_reset, 1) ];
      sleep = (fun d -> slept := d :: !slept);
    }
  in
  let plan = { Faults.seed = 4; specs = [ Faults.Flow_reset { at = 1.0 } ] } in
  let report = Nebby.Measurement.measure_cca ~control ~config ~faults:plan ~seed:8 "cubic" in
  Alcotest.(check string) "exhaustion degrades to unknown" "unknown"
    report.Nebby.Measurement.label;
  (* budget 1: the first reset earns one retry, the second exhausts the
     budget — the measurement stops at 2 attempts with 8 still allowed *)
  Alcotest.(check int) "budget, not max_attempts, ends the measurement" 2
    report.Nebby.Measurement.attempts;
  Alcotest.(check (list string)) "failure chain ordered oldest-first"
    [ "flow_reset"; "flow_reset" ]
    (List.map Nebby.Measurement.failure_reason_label report.Nebby.Measurement.failures);
  Alcotest.(check int) "only the performed retry slept" 1 (List.length !slept);
  Alcotest.(check (float 1e-9)) "backoff_total sums only performed backoffs"
    (List.fold_left ( +. ) 0.0 !slept)
    report.Nebby.Measurement.backoff_total

(* ---- defensive trace validation ---- *)

let test_validate_empty_trace () =
  let t = Netsim.Trace.create () in
  Alcotest.(check bool) "empty trace flagged" true
    (List.mem Nebby.Bif.Empty_trace (Nebby.Bif.validate t));
  Alcotest.(check int) "estimate of empty trace" 0
    (Array.length (Nebby.Bif.estimate t).times)

let test_validate_malformed_trace () =
  let t = Netsim.Trace.create () in
  let data ~seq ~payload ~now =
    Netsim.Trace.record t ~now
      (Netsim.Packet.data Netsim.Packet.Tcp ~id:0 ~seq ~payload ~retx:false)
  in
  data ~seq:0 ~payload:1000 ~now:0.1;
  data ~seq:1000 ~payload:0 ~now:0.2;
  (* capture-point clock stepping backwards *)
  data ~seq:2000 ~payload:1000 ~now:0.15;
  let issues = Nebby.Bif.validate t in
  Alcotest.(check bool) "zero-length segment flagged" true
    (List.exists (function Nebby.Bif.Zero_length_segments 1 -> true | _ -> false) issues);
  Alcotest.(check bool) "non-monotonic timestamps flagged" true
    (List.exists
       (function Nebby.Bif.Non_monotonic_timestamps 1 -> true | _ -> false)
       issues);
  (* the estimator must tolerate it: sorted, zero-length ignored, no raise *)
  let bif = Nebby.Bif.estimate t in
  Alcotest.(check bool) "estimate still produced" true (Array.length bif.times > 0);
  Alcotest.(check bool) "estimate timestamps sorted" true
    (let ts = Array.copy bif.times in
     Array.sort Float.compare ts;
     ts = bif.times)

let test_pipeline_tolerates_empty () =
  let p = Nebby.Pipeline.prepare ~rtt:0.12 { Nebby.Bif.times = [||]; values = [||] } in
  Alcotest.(check int) "no segments from nothing" 0 (Nebby.Pipeline.segment_count p)

(* ---- chaos matrix ---- *)

let test_chaos_matrix_shape () =
  let control = Lazy.force control in
  let matrix =
    Nebby.Chaos.run_matrix ~ccas:[ "cubic" ]
      ~families:[ "flow_reset"; "capture_jitter" ]
      ~config:quick_config ~seed:3 ~control ()
  in
  Alcotest.(check string) "baseline row" Nebby.Chaos.baseline_family
    matrix.Nebby.Chaos.baseline.Nebby.Chaos.family;
  Alcotest.(check int) "one row per requested family" 2
    (List.length matrix.Nebby.Chaos.rows);
  Alcotest.(check int) "no invariant violations" 0
    (List.length matrix.Nebby.Chaos.violations);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "render mentions every family" true
    (let rendered = Nebby.Chaos.render matrix in
     List.for_all
       (fun (r : Nebby.Chaos.row) -> contains rendered r.Nebby.Chaos.family)
       matrix.Nebby.Chaos.rows)

let suite =
  [
    Alcotest.test_case "plan json roundtrip" `Quick test_plan_json_roundtrip;
    Alcotest.test_case "plan rejects garbage" `Quick test_plan_json_rejects_garbage;
    Alcotest.test_case "family names registered" `Quick test_family_names;
    Alcotest.test_case "named rng leaves parent intact" `Quick test_named_does_not_advance_parent;
    Alcotest.test_case "named rng streams distinct" `Quick test_named_streams_distinct;
    Alcotest.test_case "identical seeds identical traces" `Quick test_identical_seeds_identical_traces;
    Alcotest.test_case "empty plan transparent" `Quick test_empty_plan_is_transparent;
    Alcotest.test_case "link flap perturbs capture" `Quick test_link_flap_changes_capture;
    Alcotest.test_case "no fault family raises" `Slow test_no_fault_raises;
    Alcotest.test_case "flow reset diagnosed" `Quick test_flow_reset_diagnosed;
    Alcotest.test_case "truncation diagnosed" `Quick test_truncation_diagnosed;
    Alcotest.test_case "max_attempts configurable" `Quick test_max_attempts_config;
    Alcotest.test_case "backoff grows and accrues" `Quick test_backoff_accrues;
    Alcotest.test_case "retry budget exhausts before max_attempts" `Quick
      test_retry_budget_exhausted_before_max_attempts;
    Alcotest.test_case "validate empty trace" `Quick test_validate_empty_trace;
    Alcotest.test_case "validate malformed trace" `Quick test_validate_malformed_trace;
    Alcotest.test_case "pipeline tolerates empty input" `Quick test_pipeline_tolerates_empty;
    Alcotest.test_case "chaos matrix shape" `Quick test_chaos_matrix_shape;
  ]

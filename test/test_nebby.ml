(* Tests for the core Nebby library: BiF estimation, the preparation
   pipeline, the classifiers, and end-to-end measurement. *)

(* One shared (lazily built) training fixture keeps the suite fast. *)
let control = lazy (Nebby.Training.train ~runs_per_cca:10 ~quic_runs_per_cca:5 ())

let profile = Nebby.Profile.delay_50ms
let rtt = Nebby.Profile.rtt profile

(* ---- profiles ---- *)

let test_profile_constants () =
  Alcotest.(check (float 1e-6)) "200 kbps in bytes/s" 25_000.0 profile.Nebby.Profile.bandwidth;
  Alcotest.(check (float 1e-6)) "rtt = 2*(base+extra)" 0.12 rtt;
  Alcotest.(check int) "buffer = 2 BDP" 6_000 profile.Nebby.Profile.buffer_bytes;
  Alcotest.(check (float 1e-6)) "bdp" 3_000.0 (Nebby.Profile.bdp profile)

let test_profile_pair_distinct () =
  match Nebby.Profile.default_pair with
  | [ a; b ] ->
    Alcotest.(check bool) "second has more delay" true
      (b.Nebby.Profile.extra_delay > a.Nebby.Profile.extra_delay)
  | _ -> Alcotest.fail "expected exactly two profiles"

(* ---- BiF estimation ---- *)

let test_tcp_bif_accuracy () =
  let r = Nebby.Testbed.run_cca ~profile ~seed:3 "cubic" in
  let acc =
    Nebby.Bif.accuracy
      ~estimate:(Nebby.Bif.estimate r.Nebby.Testbed.trace)
      ~truth:r.ground_truth_bif
  in
  Alcotest.(check bool) (Printf.sprintf "tcp accuracy %.2f > 0.85" acc) true (acc > 0.85)

let test_quic_bif_accuracy () =
  let r = Nebby.Testbed.run_cca ~profile ~proto:Netsim.Packet.Quic ~seed:3 "bbr" in
  let acc =
    Nebby.Bif.accuracy
      ~estimate:(Nebby.Bif.estimate r.Nebby.Testbed.trace)
      ~truth:r.ground_truth_bif
  in
  Alcotest.(check bool) (Printf.sprintf "quic accuracy %.2f > 0.75" acc) true (acc > 0.75)

let test_bif_nonnegative () =
  List.iter
    (fun proto ->
      let r = Nebby.Testbed.run_cca ~profile ~proto ~seed:9 "newreno" in
      Array.iter
        (fun v -> Alcotest.(check bool) "BiF >= 0" true (v >= 0.0))
        (Nebby.Bif.estimate r.Nebby.Testbed.trace).values)
    [ Netsim.Packet.Tcp; Netsim.Packet.Quic ]

let test_bif_accuracy_improves_with_delay () =
  (* Figure 3's mechanism: more added delay -> more of the pipe visible ->
     better BiF estimates *)
  let acc extra =
    let p = Nebby.Profile.make ~extra_delay:extra () in
    let r = Nebby.Testbed.run ~profile:p ~seed:5 ~make_cca:(Cca.Registry.create "cubic") () in
    Nebby.Bif.accuracy
      ~estimate:(Nebby.Bif.estimate r.Nebby.Testbed.trace)
      ~truth:r.ground_truth_bif
  in
  Alcotest.(check bool) "90 ms beats 5 ms" true (acc 0.090 > acc 0.005)

let test_retransmission_correction () =
  (* hand-build a trace: 10 data packets, one retransmitted; the estimate
     must subtract the lost original *)
  let trace = Netsim.Trace.create () in
  let mss = 250 in
  for i = 0 to 9 do
    Netsim.Trace.record trace ~now:(0.01 *. float_of_int i)
      (Netsim.Packet.data Netsim.Packet.Tcp ~id:i ~seq:(i * mss) ~payload:mss ~retx:false)
  done;
  (* retransmission of segment 3 observed at t=0.2 *)
  Netsim.Trace.record trace ~now:0.2
    (Netsim.Packet.data Netsim.Packet.Tcp ~id:99 ~seq:(3 * mss) ~payload:mss ~retx:true);
  let values = (Nebby.Bif.estimate trace).values in
  if Array.length values = 0 then Alcotest.fail "no estimate";
  Alcotest.(check (float 1.0)) "retx credited" (float_of_int (9 * mss))
    values.(Array.length values - 1)

(* ---- pipeline ---- *)

(* [n] samples of [f] every 20 ms *)
let sampled n f =
  let times = Array.init n (fun i -> 0.02 *. float_of_int i) in
  { Nebby.Bif.times; values = Array.map f times }

let synthetic_sawtooth ~period ~n () =
  (* 1 Hz-ish sawtooth from 5 kB up to 10 kB with sharp drops *)
  sampled n (fun t ->
      let phase = Float.rem t period /. period in
      5000.0 +. (5000.0 *. phase))

let test_pipeline_segments_sawtooth () =
  let points = synthetic_sawtooth ~period:5.0 ~n:1500 () in
  let p = Nebby.Pipeline.prepare ~rtt:0.12 points in
  Alcotest.(check bool) "multiple back-offs found"
    true
    (List.length p.Nebby.Pipeline.backoffs >= 3);
  Alcotest.(check bool) "multiple segments extracted" true
    (Nebby.Pipeline.segment_count p >= 2)

let test_pipeline_flat_trace_single_segment () =
  let points = sampled 1000 (fun _ -> 5000.0) in
  let p = Nebby.Pipeline.prepare ~rtt:0.12 points in
  Alcotest.(check int) "no back-offs" 0 (List.length p.Nebby.Pipeline.backoffs);
  Alcotest.(check int) "one segment (minus slow-start head)" 1 (Nebby.Pipeline.segment_count p)

let test_pipeline_smoothing_removes_fast_noise () =
  let rng = Netsim.Rng.create 4 in
  let points = sampled 1000 (fun _ -> 5000.0 +. Netsim.Rng.gaussian rng ~mean:0.0 ~std:300.0) in
  let p = Nebby.Pipeline.prepare ~rtt:0.12 points in
  let sd = Sigproc.Series.std p.Nebby.Pipeline.smoothed in
  Alcotest.(check bool) "noise attenuated" true (sd < 200.0)

let test_segment_values_positive () =
  let r = Nebby.Testbed.run_cca ~profile ~seed:3 "cubic" in
  let p = Nebby.Measurement.prepare_result ~profile r in
  List.iter
    (fun (seg : Nebby.Pipeline.segment) ->
      Alcotest.(check bool) "nonnegative" true (seg.raw_min >= 0.0);
      Alcotest.(check bool) "duration positive" true (seg.duration > 0.0))
    p.Nebby.Pipeline.segments

(* ---- features ---- *)

let test_features_of_linear_segment () =
  let seg =
    {
      Nebby.Pipeline.start_time = 0.0;
      duration = 4.0;
      values = Array.init 200 (fun i -> float_of_int i);
      raw_max = 199.0;
      raw_min = 0.0;
      drop_frac = 0.5;
    }
  in
  match Nebby.Features.of_segment seg with
  | None -> Alcotest.fail "linear segment must be fittable"
  | Some f ->
    Alcotest.(check int) "degree 1" 1 f.Nebby.Features.degree;
    Alcotest.(check (float 0.05)) "slope 1 after normalization" 1.0 f.coeffs.(0)

let test_features_of_cubic_segment () =
  let seg =
    {
      Nebby.Pipeline.start_time = 0.0;
      duration = 4.0;
      values = Array.init 200 (fun i ->
          let x = float_of_int i /. 199.0 in
          ((2.0 *. x) -. 1.0) ** 3.0);
      raw_max = 1.0;
      raw_min = -1.0;
      drop_frac = 0.0;
    }
  in
  match Nebby.Features.of_segment seg with
  | None -> Alcotest.fail "cubic segment must be fittable"
  | Some f -> Alcotest.(check int) "degree 3" 3 f.Nebby.Features.degree

let test_feature_vector_dimensions () =
  let seg =
    {
      Nebby.Pipeline.start_time = 0.0;
      duration = 4.0;
      values = Array.init 100 float_of_int;
      raw_max = 99.0;
      raw_min = 0.0;
      drop_frac = 0.3;
    }
  in
  match Nebby.Features.of_segment seg with
  | Some f ->
    Alcotest.(check int) "advertised dimensionality" Nebby.Features.dimensions
      (Array.length (Nebby.Features.vector ~rtt:0.12 f))
  | None -> Alcotest.fail "fittable"

(* ---- classifiers (integration) ---- *)

let classify_once ?proto name seed =
  let control = Lazy.force control in
  let plugins = Nebby.Classifier.extended_plugins control in
  (Nebby.Measurement.measure_cca ~control ~plugins ?proto ~seed name).Nebby.Measurement.label

let test_classifies_cubic () = Alcotest.(check string) "cubic" "cubic" (classify_once "cubic" 501)
let test_classifies_bbr () = Alcotest.(check string) "bbr" "bbr" (classify_once "bbr" 502)
let test_classifies_vegas () = Alcotest.(check string) "vegas" "vegas" (classify_once "vegas" 503)

let test_classifies_bbr2 () =
  Alcotest.(check string) "bbr2" "bbr2" (classify_once "bbr2" 504)

let test_bbr3_lands_unknown_bbr () =
  (* Appendix E: the tool was not tuned for v3 any more than the paper's
     was; what matters is that a v3 sender never passes as v1 or v2 *)
  let label = classify_once "bbr3" 505 in
  Alcotest.(check bool)
    ("bbr3 not mistaken for v1/v2 (got " ^ label ^ ")")
    true
    (label = Nebby.Bbr_classifier.label_unknown_bbr || label = "unknown")

let test_classifies_akamai () =
  Alcotest.(check string) "akamai_cc" "akamai_cc" (classify_once "akamai_cc" 506)

let test_classifies_copa () =
  (* the Copa extension reaches ~88% in the paper; take the best of a few
     seeds rather than depending on one measurement *)
  let labels = List.map (classify_once "copa") [ 507; 607; 707 ] in
  Alcotest.(check bool)
    ("copa recognized in one of three runs: " ^ String.concat "," labels)
    true
    (List.mem "copa" labels)

let test_classifies_over_quic () =
  Alcotest.(check string) "quic bbr" "bbr" (classify_once ~proto:Netsim.Packet.Quic "bbr" 508)

let test_conflicting_verdicts_unknown () =
  let verdicts =
    [ { Nebby.Plugin.label = "cubic"; confidence = 0.8 };
      { Nebby.Plugin.label = "bbr"; confidence = 0.75 } ]
  in
  (match Nebby.Classifier.combine verdicts with
  | Nebby.Classifier.Unknown -> ()
  | Nebby.Classifier.Known l -> Alcotest.fail ("conflict resolved to " ^ l));
  (* a decisively more confident verdict wins *)
  match
    Nebby.Classifier.combine
      [ { Nebby.Plugin.label = "cubic"; confidence = 0.9 };
        { Nebby.Plugin.label = "bbr"; confidence = 0.4 } ]
  with
  | Nebby.Classifier.Known "cubic" -> ()
  | _ -> Alcotest.fail "decisive verdict should win"

let test_empty_verdicts_unknown () =
  match Nebby.Classifier.combine [] with
  | Nebby.Classifier.Unknown -> ()
  | Nebby.Classifier.Known _ -> Alcotest.fail "no verdicts must stay unknown"

let test_measurement_retries_bounded () =
  let control = Lazy.force control in
  let report =
    Nebby.Measurement.measure ~control ~noise:Netsim.Path.heavy ~seed:1
      ~make_cca:(Cca.Registry.create "vivace") ()
  in
  Alcotest.(check bool) "attempts within bound" true
    (report.Nebby.Measurement.attempts >= 1
    && report.Nebby.Measurement.attempts <= Nebby.Measurement.default_config.max_attempts)

(* ---- training ---- *)

let test_training_covers_loss_based () =
  let control = Lazy.force control in
  List.iter
    (fun name ->
      match List.assoc_opt name control.Nebby.Training.samples with
      | Some (_ :: _) -> ()
      | Some [] | None -> Alcotest.fail ("no training samples for " ^ name))
    Cca.Registry.loss_based

let test_training_degree_hist () =
  let control = Lazy.force control in
  List.iter
    (fun name ->
      let d = Nebby.Training.dominant_degree control name in
      Alcotest.(check bool) (name ^ " degree in 1..3") true (d >= 1 && d <= 3))
    Cca.Registry.loss_based

let test_training_coefficient_normality () =
  (* Appendix B applies D'Agostino/Shapiro soft-fail tests to the training
     coefficients. Our per-segment features are rougher than the paper's
     polyfit coefficients (several dimensions are bounded or discrete), so
     this asserts the machinery works and a nontrivial share of
     (class, dimension) pairs look Gaussian, not the paper's all-pass. *)
  let control = Lazy.force control in
  let total = ref 0 and pass = ref 0 in
  List.iter
    (fun (_, vecs) ->
      if List.length vecs >= 8 then begin
        let dims = Array.length (List.hd vecs) in
        for d = 0 to dims - 1 do
          let xs = Array.of_list (List.map (fun v -> v.(d)) vecs) in
          incr total;
          if Sigproc.Stats.normality_soft_pass xs then incr pass
        done
      end)
    control.Nebby.Training.samples;
  Alcotest.(check bool)
    (Printf.sprintf "%d/%d (class, dim) pairs look normal" !pass !total)
    true
    (!total > 50 && !pass * 10 >= !total)

let test_scaler_standardizes () =
  let control = Lazy.force control in
  let bundle = Nebby.Training.bundle_for control Netsim.Packet.Tcp in
  let vec = Array.map fst bundle.Nebby.Training.joint_scaler in
  let out = Nebby.Training.apply_scaler bundle.Nebby.Training.joint_scaler vec in
  Array.iter (fun x -> Alcotest.(check (float 1e-9)) "mean maps to 0" 0.0 x) out

(* report_metrics must flatten degenerate reports too: an all-unknown
   report without provenance omits exactly its confidence/margin cells,
   never crashes or pads them *)
let test_report_metrics_edge_cases () =
  let report =
    {
      Nebby.Measurement.label = "unknown";
      attempts = 3;
      per_profile = [];
      failures = [ Nebby.Measurement.Timeout; Nebby.Measurement.Low_confidence ];
      backoff_total = 1.25;
      provenance = None;
      flight = None;
    }
  in
  Alcotest.(check (list (pair string (float 1e-9))))
    "unknown verdict flattens without provenance cells"
    [ ("attempts", 3.0); ("failures", 2.0); ("backoff_s", 1.25) ]
    (Nebby.Measurement.report_metrics report);
  let provenance =
    Obs.Provenance.make ~subject:"cubic" ~label:"cubic" ~confidence:0.8 ~margin:1.5
      ~features:[] ~stages:[] ~candidates:[]
  in
  let report =
    {
      report with
      Nebby.Measurement.label = "cubic";
      failures = [];
      provenance = Some provenance;
    }
  in
  Alcotest.(check (list (pair string (float 1e-9))))
    "provenance appends confidence and margin in fixed order"
    [
      ("attempts", 3.0); ("failures", 0.0); ("backoff_s", 1.25); ("confidence", 0.8);
      ("margin", 1.5);
    ]
    (Nebby.Measurement.report_metrics report)

(* ---- simulate and run's list view ---- *)

(* [run] is [simulate] plus the sender's BiF columns as a list: the two
   agree sample for sample, and on everything a measurement reads. *)
let check_run_is_simulate what ~run ~simulate =
  let (r : Nebby.Testbed.result) = run () and (s : Nebby.Testbed.simulation) = simulate () in
  let columns =
    List.init s.bif.log_count (fun i -> (s.bif.log_times.(i), float_of_int s.bif.log_bytes.(i)))
  in
  let same (t, b) (t', b') = Float.equal t t' && Float.equal b b' in
  Alcotest.(check bool) (what ^ ": list equals the columns pairwise") true
    (List.equal same r.ground_truth_bif columns);
  let last = match List.rev r.ground_truth_bif with (t, _) :: _ -> t | [] -> 0.0 in
  Alcotest.(check (float 0.0)) (what ^ ": sender_end is the list's last time") last
    s.sender_end;
  Alcotest.(check bool) (what ^ ": same truncation diagnosis") true
    (Nebby.Measurement.capture_truncated r.trace ~sender_end:last
    = Nebby.Measurement.capture_truncated s.trace ~sender_end:s.sender_end);
  Alcotest.(check bool) (what ^ ": same capture") true
    (Netsim.Trace.observations r.trace = Netsim.Trace.observations s.trace);
  Alcotest.(check bool) (what ^ ": same result fields") true
    (r.finished = s.finished && Float.equal r.duration s.duration
    && r.bottleneck_drops = s.bottleneck_drops && r.retransmissions = s.retransmissions
    && r.cca_name = s.cca_name && r.flow_reset = s.flow_reset
    && r.faults_injected = s.faults_injected);
  s

let test_run_is_simulate_plus_list () =
  List.iter
    (fun name ->
      List.iter
        (fun profile ->
          let make_cca = Cca.Registry.create name and noise = Netsim.Path.mild in
          ignore
            (check_run_is_simulate
               (Printf.sprintf "%s on %s" name profile.Nebby.Profile.name)
               ~run:(fun () -> Nebby.Testbed.run ~seed:5 ~noise ~profile ~make_cca ())
               ~simulate:(fun () -> Nebby.Testbed.simulate ~seed:5 ~noise ~profile ~make_cca ())))
        Nebby.Profile.default_pair)
    Cca.Registry.all;
  let make_cca = Cca.Registry.create "cubic" in
  let timed_out =
    check_run_is_simulate "timed-out transfer"
      ~run:(fun () -> Nebby.Testbed.run ~seed:5 ~time_limit:2.0 ~profile ~make_cca ())
      ~simulate:(fun () -> Nebby.Testbed.simulate ~seed:5 ~time_limit:2.0 ~profile ~make_cca ())
  in
  Alcotest.(check bool) "the time limit cut the transfer" false timed_out.finished;
  let faults = { Faults.seed = 4; specs = [ Faults.Flow_reset { at = 1.0 } ] } in
  let reset =
    check_run_is_simulate "reset flow"
      ~run:(fun () -> Nebby.Testbed.run ~seed:5 ~faults ~profile ~make_cca ())
      ~simulate:(fun () -> Nebby.Testbed.simulate ~seed:5 ~faults ~profile ~make_cca ())
  in
  Alcotest.(check bool) "the fault plan reset the flow" true reset.flow_reset

(* A transfer that finishes early ends its simulated time at its last
   event, not at the time limit, and the simulate span's virtual time
   reads the same. *)
let test_duration_is_the_last_event () =
  let s, spans =
    Obs.Span.record (fun () ->
        Nebby.Testbed.simulate ~seed:5 ~profile ~make_cca:(Cca.Registry.create "cubic") ())
  in
  Alcotest.(check bool) "finished" true s.finished;
  Alcotest.(check bool) "ends after the sender's last sample" true (s.duration >= s.sender_end);
  Alcotest.(check bool) "ends well before the 60 s limit" true (s.duration < 59.0);
  match List.filter (fun (c : Obs.Span.completed) -> c.name = "simulate") spans with
  | [ c ] -> Alcotest.(check (option (float 0.0))) "span virtual time" (Some s.duration) c.virt_s
  | l -> Alcotest.failf "%d simulate spans" (List.length l)

let suite =
  [
    Alcotest.test_case "profile constants match the paper" `Quick test_profile_constants;
    Alcotest.test_case "profile pair is ordered by delay" `Quick test_profile_pair_distinct;
    Alcotest.test_case "TCP BiF estimate tracks ground truth" `Quick test_tcp_bif_accuracy;
    Alcotest.test_case "QUIC BiF estimate tracks ground truth" `Quick test_quic_bif_accuracy;
    Alcotest.test_case "BiF estimates never go negative" `Quick test_bif_nonnegative;
    Alcotest.test_case "added delay improves BiF accuracy (Fig 3)" `Slow
      test_bif_accuracy_improves_with_delay;
    Alcotest.test_case "retransmissions are corrected" `Quick test_retransmission_correction;
    Alcotest.test_case "pipeline segments a sawtooth" `Quick test_pipeline_segments_sawtooth;
    Alcotest.test_case "flat traces yield one segment" `Quick test_pipeline_flat_trace_single_segment;
    Alcotest.test_case "smoothing attenuates sub-RTT noise" `Quick
      test_pipeline_smoothing_removes_fast_noise;
    Alcotest.test_case "segments carry sane values" `Quick test_segment_values_positive;
    Alcotest.test_case "linear segments fit degree 1" `Quick test_features_of_linear_segment;
    Alcotest.test_case "cubic segments fit degree 3" `Quick test_features_of_cubic_segment;
    Alcotest.test_case "feature vectors have the advertised size" `Quick
      test_feature_vector_dimensions;
    Alcotest.test_case "classifies cubic end to end" `Slow test_classifies_cubic;
    Alcotest.test_case "classifies bbr end to end" `Slow test_classifies_bbr;
    Alcotest.test_case "classifies vegas end to end" `Slow test_classifies_vegas;
    Alcotest.test_case "classifies bbr2 end to end" `Slow test_classifies_bbr2;
    Alcotest.test_case "bbr3 detected as a BBR-like unknown" `Slow test_bbr3_lands_unknown_bbr;
    Alcotest.test_case "classifies akamai_cc via its plugin" `Slow test_classifies_akamai;
    Alcotest.test_case "classifies copa via its plugin" `Slow test_classifies_copa;
    Alcotest.test_case "classifies bbr over QUIC" `Slow test_classifies_over_quic;
    Alcotest.test_case "conflicting verdicts stay unknown" `Quick test_conflicting_verdicts_unknown;
    Alcotest.test_case "no verdicts stay unknown" `Quick test_empty_verdicts_unknown;
    Alcotest.test_case "measurement retries stay within 5" `Slow test_measurement_retries_bounded;
    Alcotest.test_case "report metrics survive degenerate reports" `Quick
      test_report_metrics_edge_cases;
    Alcotest.test_case "training covers every loss-based CCA" `Slow test_training_covers_loss_based;
    Alcotest.test_case "dominant fit degrees are in range" `Slow test_training_degree_hist;
    Alcotest.test_case "coefficients look normal (App. B)" `Slow test_training_coefficient_normality;
    Alcotest.test_case "the scaler standardizes its own mean" `Slow test_scaler_standardizes;
    Alcotest.test_case "run is simulate plus the BiF list" `Quick
      test_run_is_simulate_plus_list;
    Alcotest.test_case "simulated time ends at the last event" `Quick
      test_duration_is_the_last_event;
  ]

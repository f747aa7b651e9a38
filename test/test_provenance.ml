(* Tests for decision provenance (Obs.Provenance) and the per-stage
   profiler (Obs.Prof): schema round trips, version gating, measurement
   attachment, census aggregation, and the worker spans Engine.Pool
   hands back at join. *)

let small_control =
  lazy (Nebby.Training.train ~runs_per_cca:4 ~quic_runs_per_cca:2 ~seed:7 ())

let sample_report =
  Obs.Provenance.make ~subject:"test-subject" ~label:"cubic" ~confidence:0.9 ~margin:12.5
    ~features:[ ("p50", [| 1.0; -2.5; 0.0 |]) ]
    ~stages:[ { Obs.Provenance.stage = "bif:p50"; fields = [ ("points", 100.0) ] } ]
    ~candidates:
      [
        {
          Obs.Provenance.source = "loss_gnb";
          label = "cubic";
          score = -10.0;
          confidence = 0.9;
        };
        { Obs.Provenance.source = "loss_gnb"; label = "bic"; score = -20.0; confidence = 0.0 };
      ]

(* ---- schema round trips and version gating ---- *)

let test_report_roundtrip () =
  let r = sample_report in
  Alcotest.(check int) "stamped with the current schema version"
    Obs.Provenance.schema_version r.Obs.Provenance.version;
  let r' = Obs.Provenance.of_json (Obs.Provenance.to_json r) in
  Alcotest.(check bool) "report round trips structurally" true (r = r')

let with_version_field f json =
  match json with
  | Obs.Json.Obj fields -> Obs.Json.Obj (f fields)
  | _ -> Alcotest.fail "provenance json is not an object"

let test_version_gate () =
  let json = Obs.Provenance.to_json sample_report in
  let bumped =
    with_version_field
      (List.map (fun (k, v) -> if k = "version" then (k, Obs.Json.Num 999.0) else (k, v)))
      json
  in
  Alcotest.check_raises "future version raises"
    (Obs.Versioned.Version_mismatch
       { kind = "provenance"; expected = Obs.Provenance.schema_version; got = 999 })
    (fun () -> ignore (Obs.Provenance.of_json bumped));
  let stripped =
    with_version_field (List.filter (fun (k, _) -> k <> "version")) json
  in
  Alcotest.check_raises "missing version raises"
    (Obs.Versioned.Version_mismatch
       { kind = "provenance"; expected = Obs.Provenance.schema_version; got = 0 })
    (fun () -> ignore (Obs.Provenance.of_json stripped))

let test_jsonl_roundtrip () =
  let path = Filename.temp_file "prov_test" ".jsonl" in
  let oc = open_out path in
  Obs.Provenance.write_jsonl oc sample_report;
  Obs.Provenance.write_jsonl oc sample_report;
  close_out oc;
  let rs = Obs.Provenance.read_jsonl path in
  Sys.remove path;
  Alcotest.(check int) "both records read back" 2 (List.length rs);
  Alcotest.(check bool) "records identical to the original" true
    (List.for_all (fun r -> r = sample_report) rs)

let test_render_deterministic () =
  let a = Obs.Provenance.render sample_report in
  let b =
    Obs.Provenance.render (Obs.Provenance.of_json (Obs.Provenance.to_json sample_report))
  in
  Alcotest.(check string) "render is stable across a round trip" a b;
  Alcotest.(check bool) "render starts with the verdict line" true
    (String.length a >= 7 && String.sub a 0 7 = "verdict")

(* ---- measurement attachment ---- *)

let test_measure_attaches_provenance () =
  let control = Lazy.force small_control in
  let r = Nebby.Measurement.measure_cca ~control ~seed:42 "cubic" in
  (match r.Nebby.Measurement.provenance with
  | Some p ->
    Alcotest.(check string) "subject is the measured CCA" "cubic" p.Obs.Provenance.subject;
    Alcotest.(check string) "provenance label matches the report"
      r.Nebby.Measurement.label p.Obs.Provenance.label;
    Alcotest.(check bool) "candidates recorded" true (p.Obs.Provenance.candidates <> []);
    Alcotest.(check bool) "stage summaries recorded" true (p.Obs.Provenance.stages <> []);
    Alcotest.(check bool) "feature vectors recorded" true (p.Obs.Provenance.features <> [])
  | None -> Alcotest.fail "measure attaches provenance")

let test_explain_prepared () =
  let control = Lazy.force small_control in
  let profile = Nebby.Profile.delay_50ms in
  let result = Nebby.Testbed.run_cca ~profile ~seed:11 "cubic" in
  let bif = Nebby.Bif.estimate result.Nebby.Testbed.trace in
  let prep = Nebby.Pipeline.prepare ~rtt:(Nebby.Profile.rtt profile) bif in
  let outcome, _, report =
    Nebby.Measurement.explain_prepared ~control ~subject:"one-trace"
      [ (profile.Nebby.Profile.name, bif, prep) ]
  in
  Alcotest.(check string) "report label matches the outcome"
    (Nebby.Classifier.outcome_label outcome)
    report.Obs.Provenance.label;
  let stage_names = List.map (fun s -> s.Obs.Provenance.stage) report.Obs.Provenance.stages in
  List.iter
    (fun prefix ->
      Alcotest.(check bool)
        (prefix ^ " stage present") true
        (List.exists
           (fun s ->
             String.length s >= String.length prefix
             && String.sub s 0 (String.length prefix) = prefix)
           stage_names))
    [ "bif:"; "pipeline:"; "trace_sig:" ];
  (* the GNB candidate list is sorted best-first *)
  let gnb =
    List.filter
      (fun c -> c.Obs.Provenance.source = "loss_gnb")
      report.Obs.Provenance.candidates
  in
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      a.Obs.Provenance.score >= b.Obs.Provenance.score && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "loss candidates sorted by score" true (sorted gnb)

(* ---- census aggregation ---- *)

let test_census_explained () =
  let control = Lazy.force small_control in
  let region = Internet.Region.Ohio and proto = Netsim.Packet.Tcp in
  let websites = Internet.Population.generate ~n:6 ~seed:77 () in
  let labels = Internet.Census.labels ~jobs:2 ~control ~proto ~region websites in
  let explained = Internet.Census.explained ~jobs:2 ~control ~proto ~region websites in
  Alcotest.(check (list string)) "labels bit-identical with provenance on"
    (List.map snd labels)
    (List.map (fun (_, r) -> r.Nebby.Measurement.label) explained);
  let reports = Internet.Census.provenance_reports explained in
  Alcotest.(check bool) "confidence distributions non-empty" true
    (Obs.Provenance.confidence_dists reports <> []);
  Alcotest.(check bool) "margin distributions non-empty" true
    (Obs.Provenance.margin_dists reports <> [])

(* ---- the profiler ---- *)

(* the profiler: a fold over the spans of one record *)
let profile_of f =
  let x, spans = Obs.Span.record f in
  (x, Obs.Prof.of_spans spans)

let test_prof_record () =
  let x, profile =
    profile_of (fun () ->
        Obs.Span.with_ ~name:"a" (fun () ->
            Obs.Span.with_ ~name:"b" (fun () ->
                (* enough minor-heap traffic to cross minor collections:
                   quick_stat's counters only advance at GC points *)
                for _ = 1 to 10_000 do
                  ignore (Sys.opaque_identity (Array.make 128 0.0))
                done));
        Obs.Span.with_ ~name:"a" (fun () -> ());
        41 + 1)
  in
  Alcotest.(check int) "record is transparent" 42 x;
  Alcotest.(check bool) "runtime disarmed afterwards" false (Obs.Runtime.armed ());
  (match Obs.Prof.find profile "a" with
  | Some s -> Alcotest.(check int) "two calls folded into one path" 2 s.Obs.Prof.count
  | None -> Alcotest.fail "path a missing");
  match Obs.Prof.find profile "a;b" with
  | Some s ->
    Alcotest.(check int) "nested call keyed by full path" 1 s.Obs.Prof.count;
    Alcotest.(check bool) "allocation attributed" true (s.Obs.Prof.alloc_words >= 10_000.0)
  | None -> Alcotest.fail "path a;b missing"

let test_prof_folded_and_json () =
  let _, profile =
    profile_of (fun () ->
        Obs.Span.with_ ~name:"outer" (fun () ->
            Obs.Span.with_ ~name:"inner" (fun () -> ())))
  in
  let folded = Obs.Prof.folded profile in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' folded) in
  Alcotest.(check int) "one folded line per path" 2 (List.length lines);
  List.iter
    (fun line ->
      match String.rindex_opt line ' ' with
      | Some i ->
        ignore
          (float_of_string (String.sub line (i + 1) (String.length line - i - 1)))
      | None -> Alcotest.fail ("malformed folded line: " ^ line))
    lines;
  Alcotest.(check bool) "nested stack present in collapsed form" true
    (List.exists
       (fun l -> String.length l >= 11 && String.sub l 0 11 = "outer;inner")
       lines);
  match Obs.Json.member "stages" (Obs.Prof.to_json profile) with
  | Some (Obs.Json.Arr stages) ->
    Alcotest.(check int) "both stages in the json summary" 2 (List.length stages)
  | _ -> Alcotest.fail "profile json has no stages array"

(* folding is additive: the fold of a concatenation adds the two folds
   path by path *)
let test_prof_fold_concat () =
  let span name = Obs.Span.with_ ~name (fun () -> ()) in
  let (), a = Obs.Span.record (fun () -> span "x"; span "y") in
  let (), b = Obs.Span.record (fun () -> span "x") in
  let fa = Obs.Prof.of_spans a and fb = Obs.Prof.of_spans b in
  let merged = Obs.Prof.of_spans (a @ b) in
  (match Obs.Prof.find merged "x" with
  | Some s -> Alcotest.(check int) "concatenation adds counts" 2 s.Obs.Prof.count
  | None -> Alcotest.fail "merged profile missing path x");
  List.iter
    (fun (e : Obs.Prof.entry) ->
      let get p f = Option.fold ~none:0.0 ~some:f (Obs.Prof.find p e.Obs.Prof.path) in
      let adds what f =
        Alcotest.(check (float 0.0)) (e.Obs.Prof.path ^ ": " ^ what ^ " add")
          (get fa f +. get fb f) (f e.Obs.Prof.stat)
      in
      adds "counts" (fun s -> float_of_int s.Obs.Prof.count);
      adds "wall times" (fun s -> s.Obs.Prof.wall_s);
      adds "self times" (fun s -> s.Obs.Prof.self_s);
      adds "allocations" (fun s -> s.Obs.Prof.alloc_words))
    merged

(* ---- Engine.Pool hands worker spans back at join ---- *)

let test_pool_flushes_spans () =
  let results, profile =
    profile_of (fun () ->
        Engine.Pool.map ~jobs:3
          (fun i -> Obs.Span.with_ ~name:"work" (fun () -> i * 2))
          (Array.init 8 (fun i -> i)))
  in
  Alcotest.(check (array int)) "results in canonical order"
    (Array.init 8 (fun i -> i * 2))
    results;
  match Obs.Prof.find profile "pool.task;work" with
  | Some s ->
    Alcotest.(check int) "worker spans merged into the caller's profile" 8
      s.Obs.Prof.count
  | None -> Alcotest.fail "work path missing from merged profile"

let suite =
  [
    Alcotest.test_case "report json round trip" `Quick test_report_roundtrip;
    Alcotest.test_case "schema version gate fails loudly" `Quick test_version_gate;
    Alcotest.test_case "jsonl write/read round trip" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "render is deterministic" `Quick test_render_deterministic;
    Alcotest.test_case "measure attaches provenance" `Quick test_measure_attaches_provenance;
    Alcotest.test_case "explain_prepared builds full report" `Quick test_explain_prepared;
    Alcotest.test_case "explained census matches plain labels" `Quick test_census_explained;
    Alcotest.test_case "profiler record and folding" `Quick test_prof_record;
    Alcotest.test_case "profiler folded-stack and json export" `Quick
      test_prof_folded_and_json;
    Alcotest.test_case "profiler fold is additive" `Quick test_prof_fold_concat;
    Alcotest.test_case "pool flushes worker spans at join" `Quick test_pool_flushes_spans;
  ]

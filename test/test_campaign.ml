(* Tests for multi-seed campaigns: the shared seed-spec resolver, store
   round trips, aggregation statistics (CI math, NaN/inf guard, outliers,
   confusion), pass gates, dashboard edge cases (0 seeds, single-seed CI
   degeneracy, non-finite cells), Pool.map_stream ordering, and the
   jobs=1 vs jobs=4 byte-identity of the campaign runner. *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let run ?(seed = 1) ?(metrics = []) ?(outcomes = []) () =
  { Obs.Campaign.seed; metrics; outcomes }

let outcome subject expected got = { Obs.Campaign.subject; expected; got }

let cell name summary =
  match List.assoc_opt name summary.Obs.Campaign.cells with
  | Some st -> st
  | None -> Alcotest.failf "summary has no cell %s" name

(* ---- seed-spec resolver ---- *)

let test_resolve_seeds () =
  let ok = function Ok s -> s | Error e -> Alcotest.failf "unexpected error: %s" e in
  Alcotest.(check (list int))
    "neither flag: the base seed alone" [ 42 ]
    (ok (Obs.Campaign.resolve_seeds ~base:42 ()));
  Alcotest.(check (list int))
    "--seeds N counts up from base" [ 7; 8; 9 ]
    (ok (Obs.Campaign.resolve_seeds ~count:3 ~base:7 ()));
  Alcotest.(check (list int))
    "--seed-list wins verbatim" [ 5; 3; 11 ]
    (ok (Obs.Campaign.resolve_seeds ~seed_list:[ 5; 3; 11 ] ~base:42 ()));
  let err = function
    | Error e -> e
    | Ok _ -> Alcotest.fail "expected an error"
  in
  Alcotest.(check bool)
    "both flags rejected" true
    (contains ~needle:"alternatives"
       (err (Obs.Campaign.resolve_seeds ~count:2 ~seed_list:[ 1 ] ~base:0 ())));
  Alcotest.(check bool)
    "empty count rejected" true
    (contains ~needle:"empty" (err (Obs.Campaign.resolve_seeds ~count:0 ~base:0 ())));
  Alcotest.(check bool)
    "empty list rejected" true
    (contains ~needle:"empty" (err (Obs.Campaign.resolve_seeds ~seed_list:[] ~base:0 ())));
  let dup = err (Obs.Campaign.resolve_seeds ~seed_list:[ 4; 9; 4 ] ~base:0 ()) in
  Alcotest.(check bool) "duplicate rejected, offender named" true (contains ~needle:"4" dup)

(* ---- store round trip ---- *)

let test_store_round_trip () =
  let runs =
    [
      run ~seed:1
        ~metrics:[ ("accuracy", 0.75); ("margin.mean", 12.5) ]
        ~outcomes:[ outcome "cubic" "cubic" "cubic"; outcome "bbr" "bbr" "unknown" ]
        ();
      run ~seed:2 ~metrics:[ ("accuracy", 1.0) ] ();
    ]
  in
  let path = Filename.temp_file "campaign" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Obs.Campaign.write_store oc ~experiment:"accuracy" runs;
      close_out oc;
      let experiment, back = Obs.Campaign.read_store path in
      Alcotest.(check string) "experiment tag survives" "accuracy" experiment;
      Alcotest.(check int) "run count survives" 2 (List.length back);
      Alcotest.(check bool) "runs survive bit for bit" true (back = runs);
      (* streaming halves produce the identical file *)
      let oc = open_out path in
      Obs.Campaign.write_header oc ~experiment:"accuracy" ~runs:2;
      List.iter (Obs.Campaign.write_seed_line oc) runs;
      close_out oc;
      let _, streamed = Obs.Campaign.read_store path in
      Alcotest.(check bool) "streamed store reads back equal" true (streamed = runs))

let test_store_version_mismatch () =
  let path = Filename.temp_file "campaign" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "{\"kind\":\"campaign\",\"version\":999,\"experiment\":\"x\",\"runs\":0}\n";
      close_out oc;
      Alcotest.check_raises "future schema fails loudly"
        (Obs.Versioned.Version_mismatch
           { kind = "campaign"; expected = Obs.Campaign.schema_version; got = 999 })
        (fun () -> ignore (Obs.Campaign.read_store path)))

let test_store_truncated_final_record () =
  let runs =
    [
      run ~seed:1 ~metrics:[ ("accuracy", 0.75) ] ();
      run ~seed:2 ~metrics:[ ("accuracy", 1.0) ] ();
      run ~seed:3 ~metrics:[ ("accuracy", 0.5) ] ();
    ]
  in
  let path = Filename.temp_file "campaign" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Obs.Campaign.write_header oc ~experiment:"accuracy" ~runs:3;
      List.iter (Obs.Campaign.write_seed_line oc) runs;
      close_out oc;
      (* a SIGKILL mid-append leaves the last line cut short *)
      let full = In_channel.with_open_bin path In_channel.input_all in
      let oc = open_out_bin path in
      output_string oc (String.sub full 0 (String.length full - 15));
      close_out oc;
      let experiment, back = Obs.Campaign.read_store path in
      Alcotest.(check string) "experiment still read" "accuracy" experiment;
      Alcotest.(check int) "readable prefix returned" 2 (List.length back);
      Alcotest.(check bool) "prefix seeds intact" true
        (List.map (fun (r : Obs.Campaign.seed_run) -> r.Obs.Campaign.seed) back = [ 1; 2 ]);
      (* corruption before the final record is NOT a crash signature and
         must still fail loudly *)
      let oc = open_out_bin path in
      output_string oc
        "{\"kind\":\"campaign\",\"version\":1,\"experiment\":\"x\",\"runs\":2\"\"}\n";
      close_out oc;
      match Obs.Campaign.read_store path with
      | _ -> Alcotest.fail "malformed header must raise"
      | exception Obs.Json.Parse_error _ -> ())

(* ---- aggregation ---- *)

let test_aggregate_stats () =
  let runs =
    List.map
      (fun (seed, v) -> run ~seed ~metrics:[ ("accuracy", v) ] ())
      [ (1, 0.6); (2, 0.8); (3, 1.0) ]
  in
  let s = Obs.Campaign.aggregate ~experiment:"accuracy" runs in
  let st = cell "accuracy" s in
  Alcotest.(check int) "n" 3 st.Obs.Campaign.n;
  Alcotest.(check (float 1e-9)) "mean" 0.8 st.Obs.Campaign.mean;
  Alcotest.(check (float 1e-9)) "median" 0.8 st.Obs.Campaign.median;
  Alcotest.(check (float 1e-9)) "min" 0.6 st.Obs.Campaign.min_v;
  Alcotest.(check (float 1e-9)) "max" 1.0 st.Obs.Campaign.max_v;
  (* population stddev of {0.6,0.8,1.0} = sqrt(2/75); ci95 uses the
     unbiased sample variance: 1.96 * sqrt(0.04/3) *)
  Alcotest.(check (float 1e-9)) "stddev" (sqrt (2.0 /. 75.0)) st.Obs.Campaign.stddev;
  Alcotest.(check (float 1e-9))
    "ci95" (1.96 *. sqrt (0.04 /. 3.0))
    st.Obs.Campaign.ci95;
  Alcotest.(check (list int)) "seeds in campaign order" [ 1; 2; 3 ] s.Obs.Campaign.seeds

let test_aggregate_nan_guard () =
  let runs =
    [
      run ~seed:1 ~metrics:[ ("m", 1.0) ] ();
      run ~seed:2 ~metrics:[ ("m", Float.nan) ] ();
      run ~seed:3 ~metrics:[ ("m", Float.infinity) ] ();
      run ~seed:4 ~metrics:[ ("m", 3.0) ] ();
    ]
  in
  let st = cell "m" (Obs.Campaign.aggregate ~experiment:"x" runs) in
  Alcotest.(check int) "non-finite values dropped before stats" 2 st.Obs.Campaign.n;
  Alcotest.(check (float 1e-9)) "mean over the finite values" 2.0 st.Obs.Campaign.mean;
  Alcotest.(check bool) "every stat finite" true
    (List.for_all Float.is_finite
       [
         st.Obs.Campaign.mean; st.Obs.Campaign.stddev; st.Obs.Campaign.ci95;
         st.Obs.Campaign.median; st.Obs.Campaign.min_v; st.Obs.Campaign.max_v;
       ])

let test_aggregate_single_seed () =
  let s =
    Obs.Campaign.aggregate ~experiment:"x" [ run ~seed:9 ~metrics:[ ("m", 0.5) ] () ]
  in
  let st = cell "m" s in
  Alcotest.(check int) "n=1" 1 st.Obs.Campaign.n;
  Alcotest.(check (float 0.0)) "one sample has no interval" 0.0 st.Obs.Campaign.ci95;
  Alcotest.(check (float 0.0)) "nor spread" 0.0 st.Obs.Campaign.stddev

let test_confusion_and_outliers () =
  let good seed = run ~seed ~metrics:[ ("accuracy", 1.0) ]
      ~outcomes:[ outcome "cubic" "cubic" "cubic" ] () in
  let bad =
    run ~seed:99 ~metrics:[ ("accuracy", 0.0) ]
      ~outcomes:[ outcome "cubic" "cubic" "unknown" ] ()
  in
  let s =
    Obs.Campaign.aggregate ~experiment:"accuracy" [ good 1; good 2; good 3; good 4; bad ]
  in
  (match s.Obs.Campaign.confusion with
  | [ ("cubic", gots) ] ->
    Alcotest.(check (list (pair string int)))
      "confusion tallies count-descending" [ ("cubic", 4); ("unknown", 1) ] gots
  | _ -> Alcotest.fail "expected one confusion row for cubic");
  match s.Obs.Campaign.outliers with
  | o :: _ ->
    Alcotest.(check int) "the failing seed is the outlier" 99 o.Obs.Campaign.o_seed;
    Alcotest.(check (list string))
      "its misses name the provenance subjects" [ "cubic->unknown" ]
      o.Obs.Campaign.misses
  | [] -> Alcotest.fail "expected an outlier"

let test_summary_json_round_trip () =
  let s =
    Obs.Campaign.aggregate ~experiment:"accuracy"
      [
        run ~seed:1 ~metrics:[ ("accuracy", 0.9) ]
          ~outcomes:[ outcome "bbr" "bbr" "bbr" ] ();
        run ~seed:2 ~metrics:[ ("accuracy", 0.7) ]
          ~outcomes:[ outcome "bbr" "bbr" "unknown" ] ();
      ]
  in
  let j = Obs.Campaign.summary_to_json s in
  let back = Obs.Campaign.summary_of_json j in
  Alcotest.(check bool) "summary survives the JSON round trip" true (back = s);
  Alcotest.(check string)
    "serialization is deterministic"
    (Obs.Json.to_string j)
    (Obs.Json.to_string (Obs.Campaign.summary_to_json back))

(* ---- pass gates ---- *)

let gate ?(name = "g") metric gstat op bound =
  { Obs.Campaign.gate_name = name; metric; gstat; op; bound }

let status r = r.Obs.Campaign.status

let test_gates () =
  let s =
    Obs.Campaign.aggregate ~experiment:"x"
      [
        run ~seed:1 ~metrics:[ ("accuracy", 0.8) ] ();
        run ~seed:2 ~metrics:[ ("accuracy", 0.9) ] ();
      ]
  in
  let eval g extra = List.hd (Obs.Campaign.evaluate ~gates:[ g ] ~extra s) in
  let floor_pass = eval (gate "accuracy" Obs.Campaign.Mean Obs.Campaign.Floor 0.7) [] in
  Alcotest.(check bool) "floor under the mean passes" true (status floor_pass = Obs.Campaign.Pass);
  let floor_fail = eval (gate "accuracy" Obs.Campaign.Mean Obs.Campaign.Floor 0.95) [] in
  Alcotest.(check bool) "floor above the mean fails" true (status floor_fail = Obs.Campaign.Fail);
  let skip = eval (gate "absent" Obs.Campaign.Mean Obs.Campaign.Floor 0.0) [] in
  Alcotest.(check bool) "absent metric skips" true (status skip = Obs.Campaign.Skip);
  let extra_pass =
    eval
      (gate "census_sites_per_s" Obs.Campaign.Mean Obs.Campaign.Floor 1.0)
      [ ("census_sites_per_s", 10.0) ]
  in
  Alcotest.(check bool) "extras feed gates" true (status extra_pass = Obs.Campaign.Pass);
  let nonfinite =
    eval
      (gate "census_sites_per_s" Obs.Campaign.Mean Obs.Campaign.Floor 0.0)
      [ ("census_sites_per_s", Float.nan) ]
  in
  Alcotest.(check bool) "a non-finite value never passes" true
    (status nonfinite = Obs.Campaign.Fail);
  Alcotest.(check bool) "skips do not fail a campaign" true
    (Obs.Campaign.gates_pass [ floor_pass; skip ]);
  Alcotest.(check bool) "one fail fails it" false
    (Obs.Campaign.gates_pass [ floor_pass; floor_fail ]);
  let ci = gate "accuracy" Obs.Campaign.Ci_width Obs.Campaign.Ceiling 1.0 in
  Alcotest.(check string)
    "gate clause renders" "ci_width(accuracy) <= 1"
    (Obs.Campaign.gate_describe ci)

(* ---- dashboard edge cases ---- *)

let test_render_empty_campaign () =
  let s = Obs.Campaign.aggregate ~experiment:"accuracy" [] in
  let html = Obs.Render.campaign_dashboard ~summary:s () in
  Alcotest.(check bool) "0 seeds degrades to a note" true
    (contains ~needle:"empty campaign (0 seeds)" html);
  Alcotest.(check bool) "no charts rendered" false (contains ~needle:"<svg" html);
  Alcotest.(check string) "byte-identical on re-render" html
    (Obs.Render.campaign_dashboard ~summary:s ())

let test_render_single_seed_no_whiskers () =
  let s =
    Obs.Campaign.aggregate ~experiment:"accuracy"
      [ run ~seed:1 ~metrics:[ ("accuracy.cubic", 0.5) ] () ]
  in
  let html = Obs.Render.campaign_dashboard ~summary:s () in
  Alcotest.(check bool) "bar drawn" true (contains ~needle:"<rect" html);
  Alcotest.(check bool) "single-seed CI is degenerate: no whisker lines" false
    (contains ~needle:"<line x1" html);
  (* two seeds with spread produce whiskers from the same pipeline *)
  let s2 =
    Obs.Campaign.aggregate ~experiment:"accuracy"
      [
        run ~seed:1 ~metrics:[ ("accuracy.cubic", 0.4) ] ();
        run ~seed:2 ~metrics:[ ("accuracy.cubic", 0.8) ] ();
      ]
  in
  Alcotest.(check bool) "two seeds draw whiskers" true
    (contains ~needle:"<line x1" (Obs.Render.campaign_dashboard ~summary:s2 ()))

let test_render_non_finite_guard () =
  (* a hand-built summary can carry non-finite stats (e.g. read from a
     foreign file); the renderer must keep them out of SVG coordinates *)
  let s =
    {
      Obs.Campaign.version = Obs.Campaign.schema_version;
      experiment = "accuracy";
      seeds = [ 1; 2 ];
      cells =
        [
          ( "accuracy.broken",
            {
              Obs.Campaign.n = 2;
              mean = Float.nan;
              stddev = 0.0;
              ci95 = Float.infinity;
              median = 0.0;
              min_v = 0.0;
              max_v = 0.0;
            } );
        ];
      confusion = [];
      outliers = [];
    }
  in
  let html = Obs.Render.campaign_dashboard ~summary:s () in
  Alcotest.(check bool) "non-finite mean becomes text" true
    (contains ~needle:"non-finite" html);
  Alcotest.(check bool) "nan never reaches a coordinate" false
    (contains ~needle:"nan" (String.lowercase_ascii html));
  Alcotest.(check bool) "inf never reaches a coordinate" false
    (contains ~needle:"inf" (String.lowercase_ascii html))

let test_render_gate_rows () =
  let s =
    Obs.Campaign.aggregate ~experiment:"accuracy"
      [ run ~seed:1 ~metrics:[ ("accuracy", 1.0) ] () ]
  in
  let results =
    Obs.Campaign.evaluate
      ~gates:
        [
          gate ~name:"floor" "accuracy" Obs.Campaign.Mean Obs.Campaign.Floor 0.5;
          gate ~name:"absent" "nope" Obs.Campaign.Mean Obs.Campaign.Floor 0.5;
        ]
      s
  in
  let html = Obs.Render.campaign_dashboard ~gates:results ~summary:s () in
  Alcotest.(check bool) "PASS row rendered" true (contains ~needle:">PASS<" html);
  Alcotest.(check bool) "SKIP row rendered" true (contains ~needle:">SKIP<" html)

let test_render_pool_section () =
  let s =
    Obs.Campaign.aggregate ~experiment:"accuracy"
      [ run ~seed:1 ~metrics:[ ("accuracy", 1.0) ] () ]
  in
  (* the pool section embeds when a trace is supplied, and an empty
     trace degrades to a note *)
  let _, spans =
    Obs.Span.record (fun () -> Engine.Pool.map ~jobs:2 Fun.id (Array.init 6 Fun.id))
  in
  Obs.Histogram.reset ();
  Obs.Metrics.reset ();
  Alcotest.(check int) "one pool.task span per task" 6
    (List.length (Obs.Pooltrace.tasks spans));
  let with_pool = Obs.Render.campaign_dashboard ~pool:spans ~summary:s () in
  Alcotest.(check bool) "pool section present" true
    (contains ~needle:"Pool scheduler" with_pool);
  Alcotest.(check string) "pool dashboard deterministic for equal spans" with_pool
    (Obs.Render.campaign_dashboard ~pool:spans ~summary:s ());
  Alcotest.(check bool) "empty trace degrades to a note" true
    (contains ~needle:"empty trace" (Obs.Render.campaign_dashboard ~pool:[] ~summary:s ()))

(* ---- streaming fan-out ---- *)

let test_map_stream_order () =
  let xs = Array.init 20 Fun.id in
  let check jobs =
    let emitted = ref [] in
    let out =
      Engine.Pool.map_stream ~jobs
        ~emit:(fun i y -> emitted := (i, y) :: !emitted)
        (fun x -> x * x)
        xs
    in
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "emission in index order at jobs=%d" jobs)
      (List.init 20 (fun i -> (i, i * i)))
      (List.rev !emitted);
    Alcotest.(check bool)
      (Printf.sprintf "result array intact at jobs=%d" jobs)
      true
      (out = Array.map (fun x -> x * x) xs)
  in
  check 1;
  check 4

let test_map_stream_error_skips_emit () =
  let xs = [| 0; 1; 2; 3 |] in
  let emitted = ref [] in
  Alcotest.check_raises "lowest-index error re-raised" (Failure "boom-1") (fun () ->
      ignore
        (Engine.Pool.map_stream ~jobs:2
           ~emit:(fun i _ -> emitted := i :: !emitted)
           (fun x ->
             if x = 1 || x = 3 then failwith (Printf.sprintf "boom-%d" x) else x)
           xs));
  Alcotest.(check (list int)) "errored indices skipped" [ 0; 2 ] (List.rev !emitted)

(* ---- the campaign runner end to end ---- *)

let small_control =
  lazy (Nebby.Training.train ~runs_per_cca:4 ~quic_runs_per_cca:2 ~seed:7 ())

let test_runner_deterministic_across_jobs () =
  let control = Lazy.force small_control in
  let go jobs =
    Internet.Campaign_runner.run ~jobs ~ccas:[ "cubic"; "bbr" ] ~control
      Internet.Campaign_runner.Accuracy ~seeds:[ 1; 2; 3; 4 ]
  in
  let serial = go 1 and parallel = go 4 in
  Alcotest.(check bool) "seed runs bit-identical at jobs=1 and jobs=4" true
    (serial = parallel);
  let summary runs = Obs.Campaign.aggregate ~experiment:"accuracy" runs in
  Alcotest.(check string)
    "summary JSON byte-identical"
    (Obs.Json.to_string (Obs.Campaign.summary_to_json (summary serial)))
    (Obs.Json.to_string (Obs.Campaign.summary_to_json (summary parallel)));
  Alcotest.(check string)
    "dashboard HTML byte-identical"
    (Obs.Render.campaign_dashboard ~summary:(summary serial) ())
    (Obs.Render.campaign_dashboard ~summary:(summary parallel) ())

let test_runner_cells () =
  let control = Lazy.force small_control in
  let runs =
    Internet.Campaign_runner.run ~jobs:1 ~ccas:[ "cubic"; "bbr" ] ~control
      Internet.Campaign_runner.Accuracy ~seeds:[ 5 ]
  in
  match runs with
  | [ r ] ->
    Alcotest.(check int) "seed recorded" 5 r.Obs.Campaign.seed;
    let has k = List.mem_assoc k r.Obs.Campaign.metrics in
    List.iter
      (fun k -> Alcotest.(check bool) (k ^ " cell present") true (has k))
      [
        "accuracy"; "accuracy.cubic"; "accuracy.bbr"; "accuracy.family.loss";
        "accuracy.family.rate"; "attempts"; "confidence.mean"; "margin.mean";
      ];
    Alcotest.(check int) "one outcome per CCA" 2 (List.length r.Obs.Campaign.outcomes)
  | _ -> Alcotest.fail "expected exactly one seed run"

let test_experiment_names () =
  List.iter
    (fun e ->
      match
        Internet.Campaign_runner.experiment_of_name
          (Internet.Campaign_runner.experiment_name e)
      with
      | Ok e' -> Alcotest.(check bool) "name round trip" true (e = e')
      | Error m -> Alcotest.fail m)
    [
      Internet.Campaign_runner.Accuracy; Internet.Campaign_runner.Census;
      Internet.Campaign_runner.Chaos;
    ];
  Alcotest.(check bool) "unknown name rejected" true
    (Result.is_error (Internet.Campaign_runner.experiment_of_name "frobnicate"))

let test_family_of () =
  List.iter
    (fun (cca, fam) ->
      Alcotest.(check string) cca fam (Internet.Campaign_runner.family_of cca))
    [
      ("bbr", "rate"); ("bbr2", "rate"); ("vivace", "rate"); ("vegas", "delay");
      ("copa", "delay"); ("akamai_cc", "proprietary"); ("cubic", "loss");
      ("newreno", "loss");
    ]

let suite =
  [
    Alcotest.test_case "resolve_seeds validation" `Quick test_resolve_seeds;
    Alcotest.test_case "store round trip" `Quick test_store_round_trip;
    Alcotest.test_case "store version mismatch" `Quick test_store_version_mismatch;
    Alcotest.test_case "store tolerates truncated final record" `Quick
      test_store_truncated_final_record;
    Alcotest.test_case "aggregate statistics" `Quick test_aggregate_stats;
    Alcotest.test_case "aggregate NaN/inf guard" `Quick test_aggregate_nan_guard;
    Alcotest.test_case "single-seed degeneracy" `Quick test_aggregate_single_seed;
    Alcotest.test_case "confusion and outliers" `Quick test_confusion_and_outliers;
    Alcotest.test_case "summary JSON round trip" `Quick test_summary_json_round_trip;
    Alcotest.test_case "pass gates" `Quick test_gates;
    Alcotest.test_case "render: empty campaign" `Quick test_render_empty_campaign;
    Alcotest.test_case "render: single-seed whiskers" `Quick
      test_render_single_seed_no_whiskers;
    Alcotest.test_case "render: non-finite guard" `Quick test_render_non_finite_guard;
    Alcotest.test_case "render: gate rows" `Quick test_render_gate_rows;
    Alcotest.test_case "render: pool section" `Quick test_render_pool_section;
    Alcotest.test_case "map_stream emits in order" `Quick test_map_stream_order;
    Alcotest.test_case "map_stream skips errored" `Quick test_map_stream_error_skips_emit;
    Alcotest.test_case "runner jobs-determinism" `Slow test_runner_deterministic_across_jobs;
    Alcotest.test_case "runner cell vocabulary" `Slow test_runner_cells;
    Alcotest.test_case "experiment names" `Quick test_experiment_names;
    Alcotest.test_case "family_of mapping" `Quick test_family_of;
  ]

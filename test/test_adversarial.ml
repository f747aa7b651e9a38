(* Adversarial-search suite: the lib/search contracts (every mutation
   valid and serializable, the search a pure function of its seed at any
   worker count, the minimizer unable to emit a non-reproducing result)
   plus the regression harness that replays every committed fixture under
   test/adversarial/. A fixture that stops reproducing fails loudly here
   — including the happy case where the underlying bug was fixed, which
   asks for the fixture to be removed or regenerated, never silently
   dropped. *)

let fixture_dir =
  List.find_opt Sys.file_exists [ "adversarial"; "test/adversarial" ]

(* One training cache shared between the search tests and the fixture
   replay harness (fixtures pin their own training triple; the search
   tests use the fuzzer default, which matches the committed fixtures, so
   the model trains once). *)
let controls = Search.Fuzzer.controls ()

let search_control =
  lazy
    (let d = Search.Fuzzer.default_config in
     Search.Fuzzer.trained controls ~runs:d.Search.Fuzzer.training_runs
       ~quic_runs:d.Search.Fuzzer.training_quic_runs ~seed:d.Search.Fuzzer.training_seed)

(* ---- genome properties ---- *)

let test_mutations_valid_and_round_trip () =
  let ccas = [ "cubic"; "vegas"; "bbr" ] in
  for seed = 1 to 200 do
    let rng = Netsim.Rng.create seed in
    let g = ref (Search.Genome.baseline ~cca:"cubic" ~seed) in
    for _ = 1 to 1 + (seed mod 4) do
      g := Search.Genome.mutate ~rng ~ccas !g
    done;
    (match Search.Genome.validate !g with
    | Ok () -> ()
    | Error e ->
      Alcotest.failf "seed %d: mutated genome invalid: %s (%s)" seed e
        (Search.Genome.to_string !g));
    let s = Search.Genome.to_string !g in
    match Search.Genome.of_json (Obs.Json.of_string s) with
    | Error e -> Alcotest.failf "seed %d: genome does not parse back: %s" seed e
    | Ok g' ->
      Alcotest.(check string)
        (Printf.sprintf "seed %d round-trips byte-identically" seed)
        s
        (Search.Genome.to_string g');
      if not (Search.Genome.equal !g g') then
        Alcotest.failf "seed %d: round-tripped genome differs structurally" seed
  done

let test_chaos_suite_imports_valid () =
  List.iter
    (fun (family, plan) ->
      let g = Search.Genome.of_plan ~cca:"cubic" plan in
      match Search.Genome.validate g with
      | Ok () -> ()
      | Error e -> Alcotest.failf "chaos family %s imports invalid: %s" family e)
    (Nebby.Chaos.standard_suite ~seed:42 ())

(* ---- minimizer properties ---- *)

let test_ddmin_finds_single_culprit () =
  let input = List.init 20 (fun i -> i + 1) in
  let reduced, steps = Search.Minimize.ddmin ~keep:(List.mem 13) input in
  Alcotest.(check (list int)) "isolates the culprit" [ 13 ] reduced;
  if steps <= 0 then Alcotest.fail "ddmin reported no evaluation steps"

let test_ddmin_result_is_one_minimal () =
  let keep xs = List.length (List.filter (fun x -> x mod 2 = 0) xs) >= 3 in
  let input = List.init 12 (fun i -> i + 1) in
  let reduced, _ = Search.Minimize.ddmin ~keep input in
  if not (keep reduced) then Alcotest.fail "reduced list no longer satisfies keep";
  List.iteri
    (fun i _ ->
      let without = List.filteri (fun j _ -> j <> i) reduced in
      if keep without then
        Alcotest.failf "not 1-minimal: element %d of %d is removable" i
          (List.length reduced))
    reduced

let test_ddmin_trivial_predicate_reaches_empty () =
  let reduced, _ = Search.Minimize.ddmin ~keep:(fun _ -> true) [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check (list int)) "always-true predicate minimizes to []" [] reduced

let test_minimize_rejects_non_reproducing () =
  let g = Search.Genome.baseline ~cca:"cubic" ~seed:1 in
  match Search.Minimize.genome ~keep:(fun _ -> false) g with
  | None -> ()
  | Some _ -> Alcotest.fail "minimizer accepted a genome its keep predicate rejects"

let test_minimize_result_satisfies_keep () =
  let specs =
    [
      Faults.Link_flap { at = 5.0; duration = 1.0 };
      Faults.Rate_change { at = 10.0; factor = 0.5 };
      Faults.Server_stall { at = 15.0; duration = 1.0 };
      Faults.Capture_jitter { std = 0.002 };
      Faults.Flow_reset { at = 30.0 };
    ]
  in
  let g = Search.Genome.of_plan ~cca:"cubic" { Faults.seed = 5; specs } in
  let keep (g : Search.Genome.t) = List.length g.Search.Genome.faults.Faults.specs >= 2 in
  match Search.Minimize.genome ~keep g with
  | None -> Alcotest.fail "minimizer rejected a reproducing genome"
  | Some { Search.Minimize.genome = reduced; steps } ->
    if not (keep reduced) then Alcotest.fail "minimized genome violates keep";
    Alcotest.(check int)
      "spec list reduced to the predicate's minimum" 2
      (List.length reduced.Search.Genome.faults.Faults.specs);
    if steps <= 0 then Alcotest.fail "minimizer reported no steps"

(* ---- fixture schema ---- *)

let sample_fixture () =
  let rng = Netsim.Rng.create 11 in
  let g =
    Search.Genome.mutate ~rng (Search.Genome.baseline ~cca:"vegas" ~seed:11)
  in
  Search.Fixture.make ~name:"sample" ~genome:g ~got:"vivace"
    ~verdict_class:Search.Fixture.Misclassified ~confidence:0.9 ~margin:1.5
    ~failures:[ "low_confidence" ] ~signature:"vegas|vivace|fail:|cand:vivace|fl:bif:4"
    ~flight_kinds:[ ("bif", 12); ("stage", 4) ]
    ~training_runs:3 ~training_quic_runs:2 ~training_seed:7 ~max_attempts:2
    ~confidence_floor:0.6 ~margin_floor:0.5 ~search_seed:42 ~search_budget:64 ~found_at:9
    ~minimize_steps:3 ~original_specs:4

let test_fixture_round_trips () =
  let f = sample_fixture () in
  let s = Search.Fixture.to_string f in
  match Search.Fixture.of_string s with
  | Error e -> Alcotest.failf "fixture does not parse back: %s" e
  | Ok f' ->
    Alcotest.(check string) "byte-identical round trip" s (Search.Fixture.to_string f');
    Alcotest.(check string) "label survives" f.Search.Fixture.got f'.Search.Fixture.got

let test_fixture_version_gate () =
  let f = sample_fixture () in
  let skewed =
    match Obs.Json.of_string (Search.Fixture.to_string f) with
    | Obs.Json.Obj fields ->
      Obs.Json.Obj
        (List.map
           (function
             | "version", _ -> ("version", Obs.Json.Num 999.0)
             | kv -> kv)
           fields)
    | _ -> Alcotest.fail "fixture is not a JSON object"
  in
  match Search.Fixture.of_string (Obs.Json.to_string skewed) with
  | exception Obs.Versioned.Version_mismatch { kind; expected; got } ->
    Alcotest.(check string) "kind" "nebby_adversarial" kind;
    Alcotest.(check int) "expected version" Search.Fixture.schema_version expected;
    Alcotest.(check int) "skewed version" 999 got
  | Ok _ -> Alcotest.fail "version skew was accepted"
  | Error e -> Alcotest.failf "version skew reported as shape error: %s" e

let test_fixture_rejects_empty_counterexample () =
  match
    Search.Fixture.make ~name:"bad"
      ~genome:(Search.Genome.baseline ~cca:"cubic" ~seed:1)
      ~got:"cubic" ~verdict_class:Search.Fixture.Correct ~confidence:1.0 ~margin:2.0
      ~failures:[] ~signature:"" ~flight_kinds:[] ~training_runs:3 ~training_quic_runs:2
      ~training_seed:7 ~max_attempts:2 ~confidence_floor:0.6 ~margin_floor:0.5
      ~search_seed:1 ~search_budget:1 ~found_at:0 ~minimize_steps:0 ~original_specs:0
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a correct verdict was accepted as a fixture"

let test_fixture_rejects_invalid_genome () =
  let g = Search.Genome.baseline ~cca:"cubic" ~seed:1 in
  let broken =
    { g with Search.Genome.path = { g.Search.Genome.path with Search.Genome.delay_factor = 99.0 } }
  in
  match
    Search.Fixture.make ~name:"bad" ~genome:broken ~got:"bbr"
      ~verdict_class:Search.Fixture.Misclassified ~confidence:0.5 ~margin:0.5 ~failures:[]
      ~signature:"" ~flight_kinds:[] ~training_runs:3 ~training_quic_runs:2
      ~training_seed:7 ~max_attempts:2 ~confidence_floor:0.6 ~margin_floor:0.5
      ~search_seed:1 ~search_budget:1 ~found_at:0 ~minimize_steps:0 ~original_specs:0
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "an out-of-box genome was accepted as a fixture"

(* ---- search determinism ---- *)

let result_digest (r : Search.Fuzzer.result) =
  let corpus_lines =
    List.map
      (fun (signature, fitness, g) ->
        Printf.sprintf "%s %.9f %s" signature fitness (Search.Genome.to_string g))
      r.Search.Fuzzer.corpus
  in
  let fixture_lines =
    List.map
      (fun { Search.Fuzzer.fixture; _ } -> Search.Fixture.to_string fixture)
      r.Search.Fuzzer.findings
  in
  String.concat "\n"
    ((Printf.sprintf "evals=%d min=%d" r.Search.Fuzzer.evals r.Search.Fuzzer.minimize_evals
     :: corpus_lines)
    @ fixture_lines)

let test_search_deterministic_across_jobs () =
  let control = Lazy.force search_control in
  let config =
    {
      Search.Fuzzer.default_config with
      Search.Fuzzer.budget = 10;
      batch = 4;
      targets = [ "cubic"; "vegas" ];
    }
  in
  let run jobs =
    result_digest
      (Search.Fuzzer.run ~control ~config:{ config with Search.Fuzzer.jobs } ~seed:42 ())
  in
  let serial = run 1 in
  Alcotest.(check string) "same seed reproduces byte-identically" serial (run 1);
  Alcotest.(check string) "jobs=3 matches jobs=1 byte-identically" serial (run 3)

(* ---- committed fixture replay ---- *)

let test_committed_fixtures_replay () =
  match fixture_dir with
  | None -> Alcotest.fail "test/adversarial fixture directory not found"
  | Some dir -> (
    let check file = function
      | Search.Fuzzer.Unreadable e -> Alcotest.failf "%s: %s" file e
      | Search.Fuzzer.Replayed { status = Search.Fuzzer.Reproduced; _ } -> ()
      | Search.Fuzzer.Replayed { status = Search.Fuzzer.Fixed; _ } ->
        Alcotest.failf
          "%s: the scenario now classifies correctly — the bug it pinned is fixed; remove \
           the fixture or regenerate with `nebby fuzz`"
          file
      | Search.Fuzzer.Replayed { status = Search.Fuzzer.Changed; fixture = fx; eval = e } ->
        Alcotest.failf
          "%s: verdict drifted — recorded %s/%s, replay got %s/%s (confidence %.3f, margin \
           %.3f)"
          file
          (Search.Fixture.class_label fx.Search.Fixture.verdict_class)
          fx.Search.Fixture.got
          (Search.Fixture.class_label e.Search.Fuzzer.verdict_class)
          e.Search.Fuzzer.got e.Search.Fuzzer.confidence e.Search.Fuzzer.margin
    in
    match Search.Fuzzer.replay_dir ~controls ~on_fixture:check dir with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%s — run `nebby fuzz` and commit its output" e)

let suite =
  [
    Alcotest.test_case "200 mutants stay valid and round-trip" `Quick
      test_mutations_valid_and_round_trip;
    Alcotest.test_case "chaos suite imports into valid genomes" `Quick
      test_chaos_suite_imports_valid;
    Alcotest.test_case "ddmin isolates a single culprit" `Quick test_ddmin_finds_single_culprit;
    Alcotest.test_case "ddmin results are 1-minimal" `Quick test_ddmin_result_is_one_minimal;
    Alcotest.test_case "ddmin reaches the empty list" `Quick
      test_ddmin_trivial_predicate_reaches_empty;
    Alcotest.test_case "non-reproducing genomes are rejected" `Quick
      test_minimize_rejects_non_reproducing;
    Alcotest.test_case "minimized genomes satisfy keep" `Quick
      test_minimize_result_satisfies_keep;
    Alcotest.test_case "fixtures round-trip byte-identically" `Quick test_fixture_round_trips;
    Alcotest.test_case "fixture schema version is gated" `Quick test_fixture_version_gate;
    Alcotest.test_case "correct verdicts cannot become fixtures" `Quick
      test_fixture_rejects_empty_counterexample;
    Alcotest.test_case "invalid genomes cannot become fixtures" `Quick
      test_fixture_rejects_invalid_genome;
    Alcotest.test_case "search is seed- and jobs-deterministic" `Slow
      test_search_deterministic_across_jobs;
    Alcotest.test_case "committed fixtures replay" `Slow test_committed_fixtures_replay;
  ]

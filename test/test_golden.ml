(* Golden-trace regression suite.

   Each fixture in golden/ (written by tools/gen_golden.ml) is the
   packet-level capture of one measurement per network profile at a pinned
   seed, plus the feature vector and label the pipeline derived when the
   fixture was generated. Replaying the serialized capture through
   Bif -> Pipeline -> Features -> Classifier and comparing against the
   stored expectations pins the numerics of the whole classification path:
   any change that moves a feature dimension by more than 1e-9, or flips a
   label, fails here before it can silently shift census results.

   When the drift is intentional, regenerate with

     dune exec tools/gen_golden.exe

   and review the fixture diff alongside the code change. *)

(* Pinned fixture configuration - keep in sync with tools/gen_golden.ml. *)
let golden_seed = 7
let training_runs_per_cca = 4
let training_quic_runs_per_cca = 2

let tolerance = 1e-9

(* dune copies golden/ into the test sandbox (see test/dune), so the
   fixtures sit next to the executable; fall back to the source path when
   run from the repo root outside dune. *)
let golden_dir =
  match List.find_opt Sys.file_exists [ "golden"; "test/golden" ] with
  | Some d -> d
  | None -> Alcotest.fail "golden fixture directory not found (run tools/gen_golden.exe)"

(* The control is retrained at the fixtures' pinned configuration rather
   than serialized with them: label equality then also pins the
   determinism of training itself. *)
let control =
  lazy
    (Nebby.Training.train ~runs_per_cca:training_runs_per_cca
       ~quic_runs_per_cca:training_quic_runs_per_cca ~seed:golden_seed ())

let jfloat j = match Obs.Json.to_float j with
  | Some x -> x
  | None -> Alcotest.fail "fixture: expected a number"

let jstr j = match Obs.Json.to_str j with
  | Some s -> s
  | None -> Alcotest.fail "fixture: expected a string"

let jlist j = match Obs.Json.to_list j with
  | Some l -> l
  | None -> Alcotest.fail "fixture: expected an array"

let jmember key j =
  match Obs.Json.member key j with
  | Some v -> v
  | None -> Alcotest.fail (Printf.sprintf "fixture: missing field %S" key)

let obs_of_json j =
  match jlist j with
  | time :: dir :: size :: rest ->
    let dir =
      if jfloat dir = 0.0 then Netsim.Packet.To_client else Netsim.Packet.To_server
    in
    let view =
      match rest with
      | [] -> Netsim.Trace.Opaque
      | [ seq; payload; ack; is_ack ] ->
        Netsim.Trace.Tcp_view
          {
            seq = int_of_float (jfloat seq);
            payload = int_of_float (jfloat payload);
            ack = int_of_float (jfloat ack);
            is_ack = jfloat is_ack <> 0.0;
          }
      | _ -> Alcotest.fail "fixture: observation has neither 3 nor 7 fields"
    in
    { Netsim.Trace.time = jfloat time; dir; size = int_of_float (jfloat size); view }
  | _ -> Alcotest.fail "fixture: observation too short"

let load_fixture cca =
  let path = Filename.concat golden_dir (cca ^ ".json") in
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  Obs.Json.of_string s

let check_vector ~cca ~profile expected got =
  match (expected, got) with
  | Obs.Json.Null, None -> ()
  | Obs.Json.Null, Some _ ->
    Alcotest.fail
      (Printf.sprintf "%s/%s: fixture expects no feature vector but replay produced one" cca
         profile)
  | _, None ->
    Alcotest.fail
      (Printf.sprintf "%s/%s: replay produced no feature vector but fixture has one" cca
         profile)
  | expected, Some v ->
    let exp = Array.of_list (List.map jfloat (jlist expected)) in
    Alcotest.(check int)
      (Printf.sprintf "%s/%s: vector dimensions" cca profile)
      (Array.length exp) (Array.length v);
    Array.iteri
      (fun i e ->
        if Float.abs (e -. v.(i)) > tolerance then
          Alcotest.fail
            (Printf.sprintf "%s/%s: feature dim %d drifted: expected %.17g, got %.17g" cca
               profile i e v.(i)))
      exp

(* (profile, BiF estimate, prepared trace) of each capture in a fixture *)
let fixture_entries fixture =
  List.map
    (fun t ->
      let rtt = jfloat (jmember "rtt" t) in
      let obs = List.map obs_of_json (jlist (jmember "obs" t)) in
      let bif = Nebby.Bif.estimate (Netsim.Trace.of_observations obs) in
      (jstr (jmember "profile" t), bif, Nebby.Pipeline.prepare ~rtt bif))
    (jlist (jmember "traces" fixture))

let replay_fixture cca () =
  let fixture = load_fixture cca in
  Alcotest.(check string) "fixture names its CCA" cca (jstr (jmember "cca" fixture));
  Alcotest.(check int) "fixture seed is the pinned seed" golden_seed
    (int_of_float (jfloat (jmember "seed" fixture)));
  let prepared =
    List.map2
      (fun t (profile, _, prep) ->
        check_vector ~cca ~profile (jmember "vector" t) (Nebby.Features.trace_vector prep);
        (profile, prep))
      (jlist (jmember "traces" fixture))
      (fixture_entries fixture)
  in
  let outcome, _ =
    Nebby.Classifier.classify_measurement ~control:(Lazy.force control) prepared
  in
  Alcotest.(check string)
    (Printf.sprintf "%s: label stable under replay" cca)
    (jstr (jmember "expected_label" fixture))
    (Nebby.Classifier.outcome_label outcome)

(* every registered CCA must have a fixture: adding a CCA without
   regenerating the suite is itself a regression *)
let test_coverage () =
  let missing =
    List.filter
      (fun cca -> not (Sys.file_exists (Filename.concat golden_dir (cca ^ ".json"))))
      Cca.Registry.all
  in
  if missing <> [] then
    Alcotest.fail
      (Printf.sprintf "no golden fixture for: %s (run tools/gen_golden.exe)"
         (String.concat ", " missing))

(* A measurement labels each profile from the one classification pass
   that decides its verdict. The oracle is [classify_measurement] on that
   profile alone, as the measurement computed it before: on every golden
   fixture, and on fresh captures over the noisiest paths of a census
   population, where the profiles disagree most. *)
let check_per_profile ~what entries =
  let control = Lazy.force control in
  let outcome, per_profile, report =
    Nebby.Measurement.explain_prepared ~control ~subject:what entries
  in
  let classify prepared =
    Nebby.Classifier.outcome_label
      (fst (Nebby.Classifier.classify_measurement ~control prepared))
  in
  let prepared = List.map (fun (name, _, p) -> (name, p)) entries in
  Alcotest.(check string) (what ^ ": joint label") (classify prepared)
    (Nebby.Classifier.outcome_label outcome);
  Alcotest.(check string) (what ^ ": report label") (classify prepared)
    report.Obs.Provenance.label;
  Alcotest.(check (list (pair string string)))
    (what ^ ": per-profile labels")
    (List.map (fun (name, p) -> (name, classify [ (name, p) ])) prepared)
    per_profile

let test_per_profile_single_pass () =
  List.iter
    (fun cca -> check_per_profile ~what:cca (fixture_entries (load_fixture cca)))
    Cca.Registry.all;
  let region = Internet.Region.Ohio in
  let noisiest =
    Internet.Population.generate ~n:200 ~seed:20230601 ()
    |> List.sort (fun a b ->
           compare b.Internet.Website.noise_factor a.Internet.Website.noise_factor)
    |> List.filteri (fun i _ -> i < 4)
  in
  List.iter
    (fun (site : Internet.Website.t) ->
      let noise = Netsim.Path.scale (Internet.Region.noise region) site.noise_factor in
      let entries =
        List.map
          (fun profile ->
            let r =
              Nebby.Testbed.run ~seed:site.rank ~noise ~page_bytes:site.page_bytes ~profile
                ~make_cca:(Cca.Registry.create (Internet.Website.cca_in site region))
                ()
            in
            let bif = Nebby.Bif.estimate r.Nebby.Testbed.trace in
            ( profile.Nebby.Profile.name,
              bif,
              Nebby.Pipeline.prepare ~rtt:(Nebby.Profile.rtt profile) bif ))
          (Lazy.force control).Nebby.Training.profiles
      in
      check_per_profile ~what:site.name entries)
    noisiest

let suite =
  Alcotest.test_case "every registered CCA has a fixture" `Quick test_coverage
  :: Alcotest.test_case "per-profile labels come from the single pass" `Quick
       test_per_profile_single_pass
  :: List.map
       (fun cca -> Alcotest.test_case (Printf.sprintf "replay %s" cca) `Quick (replay_fixture cca))
       Cca.Registry.all

(* Noisy-path fixed point. The fixtures above replay quiet TCP captures,
   so they do not pin the simulator itself under jitter, ACK
   compression, random drops, QUIC's opaque view or the fault-bypass
   branches of [Netsim.Path]. These runs cover each of those; the digest
   over their captures, ground-truth BiF, drops and retransmissions must
   not move when the simulator is optimised. A deliberate change to the
   simulated dynamics updates [noisy_digest] in the same commit. *)
let noisy_digest = "2d30727f7473672dde57e5f07adc9f71"

let noisy_runs () =
  let profile = Nebby.Profile.delay_50ms in
  let run ?faults ?(proto = Netsim.Packet.Tcp) ~noise cca =
    Nebby.Testbed.run ~seed:golden_seed ~noise ~proto ?faults ~profile
      ~make_cca:(Cca.Registry.create cca) ()
  in
  let faults =
    {
      Faults.seed = 5;
      specs =
        [
          Faults.Reorder
            { at = 1.0; duration = 6.0; dir = Netsim.Packet.To_client; prob = 0.05; max_extra = 0.03 };
          Faults.Reorder
            { at = 2.0; duration = 4.0; dir = Netsim.Packet.To_server; prob = 0.05; max_extra = 0.02 };
          Faults.Duplicate { at = 0.5; duration = 6.0; dir = Netsim.Packet.To_client; prob = 0.05 };
          Faults.Duplicate { at = 0.5; duration = 6.0; dir = Netsim.Packet.To_server; prob = 0.05 };
        ];
    }
  in
  [
    run ~noise:Netsim.Path.heavy "cubic";
    run ~noise:Netsim.Path.mild "bbr";
    run ~noise:Netsim.Path.mild ~proto:Netsim.Packet.Quic "cubic";
    run ~noise:Netsim.Path.mild ~faults "newreno";
  ]

let serialize_run b (r : Nebby.Testbed.result) =
  List.iter
    (fun (o : Netsim.Trace.obs) ->
      Printf.bprintf b "%h %d %d" o.time
        (match o.dir with Netsim.Packet.To_client -> 0 | Netsim.Packet.To_server -> 1)
        o.size;
      (match o.view with
      | Netsim.Trace.Opaque -> ()
      | Netsim.Trace.Tcp_view { seq; payload; ack; is_ack } ->
        Printf.bprintf b " %d %d %d %b" seq payload ack is_ack);
      Buffer.add_char b '\n')
    (Netsim.Trace.observations r.trace);
  List.iter (fun (t, v) -> Printf.bprintf b "%h %h\n" t v) r.ground_truth_bif;
  Printf.bprintf b "drops %d retx %d faults %d\n" r.bottleneck_drops r.retransmissions
    r.faults_injected

let test_noisy_digest () =
  let b = Buffer.create (1 lsl 20) in
  List.iter (serialize_run b) (noisy_runs ());
  Alcotest.(check string) "noisy-path digest" noisy_digest
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let suite =
  suite @ [ Alcotest.test_case "noisy-path captures are unchanged" `Quick test_noisy_digest ]

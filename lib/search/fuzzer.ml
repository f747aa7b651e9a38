type eval = {
  genome : Genome.t;
  got : string;
  verdict_class : Fixture.verdict_class;
  confidence : float;
  margin : float;
  failures : string list;
  flight_kinds : (string * int) list;
  signature : string;
  fitness : float;
}

(* ---- evaluation ---- *)

let profiles_for control (p : Genome.path) =
  List.map
    (fun (pr : Nebby.Profile.t) ->
      {
        pr with
        Nebby.Profile.bandwidth = pr.Nebby.Profile.bandwidth *. p.Genome.rate_factor;
        base_delay = pr.Nebby.Profile.base_delay *. p.Genome.delay_factor;
        buffer_bytes =
          max 1500
            (int_of_float (float_of_int pr.Nebby.Profile.buffer_bytes *. p.Genome.buffer_factor));
      })
    control.Nebby.Training.profiles

let noise_for (p : Genome.path) =
  {
    Netsim.Path.jitter_std = p.Genome.jitter_std;
    drop_prob = p.Genome.cross_loss;
    ack_compress_prob = Netsim.Path.mild.Netsim.Path.ack_compress_prob;
    ack_compress_delay = Netsim.Path.mild.Netsim.Path.ack_compress_delay;
  }

(* log2-bucket event counts so the signature tolerates one-packet timing
   wiggle but still distinguishes "a few drops" from "a loss storm" *)
let bucket n =
  let rec go n acc = if n <= 0 then acc else go (n / 2) (acc + 1) in
  go n 0

let kind_counts events =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (e : Obs.Flight.event) ->
      let k = Obs.Flight.kind_label e.Obs.Flight.kind in
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    events;
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let signature_of ~genome ~got ~failures ~candidates ~flight_kinds =
  let fails = String.concat "," failures in
  let cands =
    candidates
    |> List.filteri (fun i _ -> i < 3)
    |> List.map (fun (c : Obs.Provenance.candidate) -> c.Obs.Provenance.label)
    |> String.concat ","
  in
  let fl =
    flight_kinds
    |> List.map (fun (k, n) -> Printf.sprintf "%s:%d" k (bucket n))
    |> String.concat ","
  in
  Printf.sprintf "%s|%s|fail:%s|cand:%s|fl:%s" genome.Genome.cca got fails cands fl

(* Run one genome through [Measurement.measure]: profiles scaled by the
   genome's path factors (names preserved, so trained lookups still
   apply), wide-area noise from its jitter/cross-loss, the fault plan
   forwarded, and the measurement seeded by the plan's seed — the eval is
   a pure function of the genome. Pins the flight recorder to [Normal]
   detail for the call (and restores the caller's level), so signatures
   agree between caller-domain and worker-domain runs. *)
let evaluate ~control ~max_attempts ~confidence_floor ~margin_floor (genome : Genome.t) =
  (* Pin the recorder state for the duration of the measurement: the
     signature must not depend on whether we run in the caller's domain
     (jobs=1, user-set level) or a fresh worker (default level). *)
  let saved_level = Obs.Runtime.level () in
  let saved_enabled = Obs.Flight.enabled () in
  Obs.Runtime.set_level Obs.Runtime.Normal;
  Obs.Flight.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Runtime.set_level saved_level;
      Obs.Flight.set_enabled saved_enabled)
    (fun () ->
      let mark = Obs.Flight.mark () in
      let config =
        {
          Nebby.Measurement.default_config with
          max_attempts;
          flight_confidence = confidence_floor;
          flight_margin = margin_floor;
        }
      in
      let report =
        Nebby.Measurement.measure
          ~profiles:(profiles_for control genome.Genome.path)
          ~noise:(noise_for genome.Genome.path)
          ~seed:genome.Genome.faults.Faults.seed ~config ~faults:genome.Genome.faults
          ~subject:genome.Genome.cca ~control
          ~make_cca:(Cca.Registry.create genome.Genome.cca)
          ()
      in
      let flight_kinds = kind_counts (Obs.Flight.events ~since:mark ()) in
      let got = report.Nebby.Measurement.label in
      let failures =
        List.map Nebby.Measurement.failure_reason_label report.Nebby.Measurement.failures
      in
      let confidence, margin, candidates =
        match report.Nebby.Measurement.provenance with
        | Some p ->
          (p.Obs.Provenance.confidence, p.Obs.Provenance.margin, p.Obs.Provenance.candidates)
        | None -> (0.0, 0.0, [])
      in
      let verdict_class : Fixture.verdict_class =
        if got = "unknown" then Fixture.Typed_failure
        else if got <> genome.Genome.cca then Fixture.Misclassified
        else if confidence < confidence_floor || margin < margin_floor then
          Fixture.Margin_collapse
        else Fixture.Correct
      in
      let fitness =
        match verdict_class with
        | Fixture.Misclassified -> 3.0 +. confidence
        | Fixture.Margin_collapse -> 2.0 +. (1.0 /. (1.0 +. margin))
        | Fixture.Typed_failure -> 1.0 +. (0.1 *. float_of_int (List.length failures))
        | Fixture.Correct -> 1.0 /. (1.0 +. margin)
      in
      let signature = signature_of ~genome ~got ~failures ~candidates ~flight_kinds in
      { genome; got; verdict_class; confidence; margin; failures; flight_kinds; signature;
        fitness })

(* ---- configuration ---- *)

type config = {
  budget : int;
  jobs : int;
  targets : string list;
  max_attempts : int;
  confidence_floor : float;
  margin_floor : float;
  batch : int;
  training_runs : int;
  training_quic_runs : int;
  training_seed : int;
}

let default_config =
  {
    budget = 256;
    jobs = 1;
    targets = Cca.Registry.kernel_ccas;
    max_attempts = 2;
    confidence_floor = Nebby.Measurement.default_config.Nebby.Measurement.flight_confidence;
    margin_floor = Nebby.Measurement.default_config.Nebby.Measurement.flight_margin;
    batch = 8;
    training_runs = 3;
    training_quic_runs = 2;
    training_seed = 7;
  }

let control_of_config config =
  Nebby.Training.train ~runs_per_cca:config.training_runs
    ~quic_runs_per_cca:config.training_quic_runs ~seed:config.training_seed ()

(* ---- the search loop ---- *)

type finding = { fixture : Fixture.t; minimized : eval }

type result = {
  findings : finding list;
  corpus : (string * float * Genome.t) list;
  evals : int;
  minimize_evals : int;
}

let is_counterexample = function
  | Fixture.Misclassified | Fixture.Margin_collapse -> true
  | Fixture.Typed_failure | Fixture.Correct -> false

let run ?(log = ignore) ~control ~config ~seed () =
  let rng = Netsim.Rng.named (Netsim.Rng.create seed) "adversarial-search" in
  let eval_one g =
    evaluate ~control ~max_attempts:config.max_attempts
      ~confidence_floor:config.confidence_floor ~margin_floor:config.margin_floor g
  in
  let corpus = Corpus.create () in
  let evals = ref 0 in
  let minimize_evals = ref 0 in
  let findings = ref [] in
  let seen_keys = Hashtbl.create 8 in
  (* Seed queue: each target's fault-free baseline, then the chaos
     standard suite spread round-robin over the targets (clamped into the
     genome box — suite timings may exceed the horizon). *)
  let pending = Queue.create () in
  List.iter
    (fun cca -> Queue.add (Genome.baseline ~cca ~seed:(Netsim.Rng.int rng 1_000_000)) pending)
    config.targets;
  let n_targets = List.length config.targets in
  List.iteri
    (fun i (_family, plan) ->
      let cca = List.nth config.targets (i mod n_targets) in
      Queue.add (Genome.of_plan ~cca plan) pending)
    (Nebby.Chaos.standard_suite ~seed ());
  let minimize (e : eval) =
    let target_class = e.verdict_class and target_got = e.got in
    let found_at = !evals in
    let last_eval = ref e in
    let keep g =
      match Genome.validate g with
      | Error _ -> false
      | Ok () ->
        incr minimize_evals;
        let e' = eval_one g in
        let ok = e'.verdict_class = target_class && e'.got = target_got in
        if ok then last_eval := e';
        ok
    in
    match Minimize.genome ~keep e.genome with
    | None ->
      (* The find did not reproduce under serial re-evaluation: drop it
         loudly rather than commit a flaky fixture. *)
      log
        (Printf.sprintf "  dropped non-reproducing find %s/%s" e.genome.Genome.cca
           (Fixture.class_label e.verdict_class))
    | Some { Minimize.genome = reduced; steps } ->
      let m = if Genome.equal reduced e.genome then e else !last_eval in
      let name =
        Printf.sprintf "%s-%s-%s-s%d" reduced.Genome.cca
          (Fixture.class_label m.verdict_class)
          m.got seed
      in
      let fixture =
        Fixture.make ~name ~genome:reduced ~got:m.got ~verdict_class:m.verdict_class
          ~confidence:m.confidence ~margin:m.margin ~failures:m.failures
          ~signature:m.signature ~flight_kinds:m.flight_kinds
          ~training_runs:config.training_runs ~training_quic_runs:config.training_quic_runs
          ~training_seed:config.training_seed ~max_attempts:config.max_attempts
          ~confidence_floor:config.confidence_floor ~margin_floor:config.margin_floor
          ~search_seed:seed ~search_budget:config.budget ~found_at ~minimize_steps:steps
          ~original_specs:(List.length e.genome.Genome.faults.Faults.specs)
      in
      findings := { fixture; minimized = m } :: !findings;
      log
        (Printf.sprintf "  minimized %s: %d specs -> %d (%d evals)" name
           (List.length e.genome.Genome.faults.Faults.specs)
           (List.length reduced.Genome.faults.Faults.specs)
           steps)
  in
  let fold_eval (e : eval) =
    incr evals;
    let admitted = Corpus.add corpus ~signature:e.signature ~fitness:e.fitness e.genome in
    if admitted then begin
      log
        (Printf.sprintf "[%4d] %s %s -> %s (conf %.2f, margin %.2f) corpus=%d" !evals
           (Fixture.class_label e.verdict_class)
           e.genome.Genome.cca e.got e.confidence e.margin (Corpus.size corpus));
      if is_counterexample e.verdict_class then begin
        let key = (e.genome.Genome.cca, e.verdict_class, e.got) in
        if not (Hashtbl.mem seen_keys key) then begin
          Hashtbl.add seen_keys key ();
          minimize e
        end
      end
    end
  in
  while !evals < config.budget do
    let want = min config.batch (config.budget - !evals) in
    (* Candidates are drawn from the rng before dispatch, so scheduling
       cannot influence the stream; results fold in canonical order. *)
    let next_candidate () =
      if not (Queue.is_empty pending) then Queue.pop pending
      else
        match Corpus.pick corpus ~rng with
        | Some parent -> Genome.mutate ~rng ~ccas:config.targets parent
        | None ->
          Genome.baseline
            ~cca:(List.nth config.targets (Netsim.Rng.int rng n_targets))
            ~seed:(Netsim.Rng.int rng 1_000_000)
    in
    (* explicit left-to-right generation: Array.init's application order
       is unspecified and the generator advances the rng *)
    let rec gen n acc = if n = 0 then List.rev acc else gen (n - 1) (next_candidate () :: acc) in
    let batch = Array.of_list (gen want []) in
    ignore (Engine.Pool.map_stream ~jobs:config.jobs ~emit:(fun _ e -> fold_eval e) eval_one batch)
  done;
  {
    findings = List.rev !findings;
    corpus = Corpus.entries corpus;
    evals = !evals;
    minimize_evals = !minimize_evals;
  }

(* ---- replay ---- *)

type replay_status = Reproduced | Fixed | Changed

let replay_status_label = function
  | Reproduced -> "reproduced"
  | Fixed -> "fixed"
  | Changed -> "changed"

let replay ~control (f : Fixture.t) =
  let e =
    evaluate ~control ~max_attempts:f.Fixture.max_attempts
      ~confidence_floor:f.Fixture.confidence_floor ~margin_floor:f.Fixture.margin_floor
      f.Fixture.genome
  in
  let status =
    if e.verdict_class = f.Fixture.verdict_class && e.got = f.Fixture.got then Reproduced
    else if e.verdict_class = Fixture.Correct then Fixed
    else Changed
  in
  (status, e)

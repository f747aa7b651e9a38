(* Command-line front end: measure simulated servers, dump BiF traces, run
   mini censuses, stress the pipeline with fault injection — the
   wget/quiche/tcpdump glue of the original tool.

   Exit codes are distinct and scriptable:
     0  success
     1  classification failure (measurement ended in "unknown")
     2  invalid arguments
     3  internal error (uncaught exception or broken invariant) *)

open Cmdliner

let exit_ok = 0
let exit_unclassified = 1
let exit_usage = 2
let exit_internal = 3

let version_mismatch_message ~kind ~expected ~got =
  Printf.sprintf
    "%s schema version mismatch (expected %d, got %d); regenerate it with this binary" kind
    expected got

(* The one mapping from an on-disk read failure to an exit code: a schema
   skew, malformed bytes or an unreadable path is a usage error, reported
   as one stderr line. [file] names the input in parse errors. *)
let or_exit_2 ?file cmd f =
  let fail msg =
    Printf.eprintf "nebby %s: %s\n" cmd msg;
    exit_usage
  in
  try f () with
  | Obs.Versioned.Version_mismatch { kind; expected; got } ->
    fail (version_mismatch_message ~kind ~expected ~got)
  | Obs.Json.Parse_error msg ->
    fail (match file with Some file -> file ^ ": " ^ msg | None -> msg)
  | Sys_error msg -> fail msg

(* ---- Shared flags ----
   Each flag every subcommand shares is parsed once, into a typed value:
   an unknown name or an out-of-range count is a Cmdliner parse error,
   which [main] maps to exit 2, before any work starts. *)

(* A count flag with a floor, so a value below it fails at parse time
   instead of raising (or spinning) deep inside the run. *)
let int_at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | Some n -> Error (Printf.sprintf "%d is too small (at least %d)" n lo)
    | None -> Error (Printf.sprintf "invalid value '%s', expected an integer" s)
  in
  Arg.conv' ~docv:"N" (parse, Format.pp_print_int)

let count ?(min = 1) ~default name ~doc =
  Arg.(value & opt (int_at_least min) default & info [ name ] ~docv:"N" ~doc)

let names_conv names = Arg.enum (List.map (fun n -> (n, n)) names)
let cca_conv = names_conv Cca.Registry.all

let cca_arg =
  let doc = "Target server's CCA (a registry name, e.g. cubic, bbr, akamai_cc)." in
  Arg.(value & opt cca_conv "cubic" & info [ "cca" ] ~docv:"CCA" ~doc)

let region_arg ?(doc = "Vantage point.") () =
  let regions = List.map (fun r -> (Internet.Region.name r, r)) Internet.Region.all in
  Arg.(
    value & opt (enum regions) Internet.Region.Ohio & info [ "region" ] ~docv:"REGION" ~doc)

let sites_arg ~default ~doc = count ~min:0 ~default "sites" ~doc

(* Arg.enum rejects typos with a proper usage error listing the
   alternatives, instead of an uncaught Invalid_argument. *)
let proto_arg =
  let protos = [ ("tcp", Netsim.Packet.Tcp); ("quic", Netsim.Packet.Quic) ] in
  let doc = Printf.sprintf "Transport: %s." (Arg.doc_alts_enum protos) in
  Arg.(value & opt (enum protos) Netsim.Packet.Tcp & info [ "proto" ] ~docv:"PROTO" ~doc)

let noise_arg =
  let noises =
    [ ("quiet", Netsim.Path.quiet); ("mild", Netsim.Path.mild); ("heavy", Netsim.Path.heavy) ]
  in
  let doc = Printf.sprintf "Wide-area noise: %s." (Arg.doc_alts_enum noises) in
  Arg.(value & opt (enum noises) Netsim.Path.mild & info [ "noise" ] ~docv:"NOISE" ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

(* Training needs at least two runs per class to fit a scaler. *)
let training_runs_arg
    ?(default = 10)
    ?(doc = "Training runs per CCA (more runs, tighter clusters, slower start).") () =
  count ~min:2 ~default "training-runs" ~doc

(* The trained control, built on first use: paths that never classify
   (chaos --list-families, serve --compact-only) skip training. Commands
   force it before --telemetry or --prof recording starts, so training
   stays out of those outputs, except where the profile is meant to
   cover it (explain, report --prof). *)
let control_arg =
  Term.(
    const (fun runs -> lazy (Nebby.Training.train ~runs_per_cca:runs ()))
    $ training_runs_arg ())

(* explain and report retrain at the golden-pinned configuration by
   default (seed 7, 4 runs/CCA, 2 QUIC runs), so a fixture replay
   reproduces the committed expectations bit for bit. *)
let pinned_control_arg =
  let runs =
    training_runs_arg ~default:4 ~doc:"Training runs per CCA (default: the golden-pinned 4)."
      ()
  in
  let quic_runs =
    count ~min:2 ~default:2 "training-quic-runs"
      ~doc:"QUIC training runs per CCA (default: the golden-pinned 2)."
  in
  let seed =
    let doc = "Training seed (default: the golden-pinned 7)." in
    Arg.(value & opt int 7 & info [ "training-seed" ] ~docv:"SEED" ~doc)
  in
  Term.(
    const (fun runs quic_runs seed ->
        lazy (Nebby.Training.train ~runs_per_cca:runs ~quic_runs_per_cca:quic_runs ~seed ()))
    $ runs $ quic_runs $ seed)

let max_attempts_arg =
  count ~default:Nebby.Measurement.default_config.max_attempts "max-attempts"
    ~doc:"Measurement attempts before giving up."

(* 0 means "auto": one worker per available core. The calling domain
   is worker 0, so N workers run on N domains. Results are bit-identical
   for every value (see DESIGN.md, "Multicore census engine"), so the
   flag only changes wall-clock. *)
let jobs_arg =
  let doc =
    "Workers for parallel measurement, the calling domain included (0 = one per core; 1 = \
     serial)."
  in
  let resolve = function 0 -> Engine.Pool.default_jobs () | n -> max 1 n in
  Term.(const resolve $ Arg.(value & opt int 0 & info [ "jobs"; "j" ] ~docv:"N" ~doc))

(* Multi-seed fan-out: campaign, chaos and fuzz share one
   --seed/--seeds/--seed-list vocabulary (and the bench harness accepts
   the same pair), all resolved through Obs.Campaign.resolve_seeds so the
   validation and the error messages are identical everywhere. *)
let seeds_arg =
  let count =
    let doc =
      "Fan the command across $(docv) consecutive seeds starting at --seed (alternative to \
       --seed-list)."
    in
    Arg.(value & opt (some int) None & info [ "seeds" ] ~docv:"N" ~doc)
  in
  let seed_list =
    let doc =
      "Fan the command across exactly these comma-separated seeds (alternative to --seeds)."
    in
    Arg.(value & opt (some (list int)) None & info [ "seed-list" ] ~docv:"A,B,C" ~doc)
  in
  Term.(
    term_result'
      (const (fun base count seed_list ->
           Obs.Campaign.resolve_seeds ?count ?seed_list ~base ())
      $ seed_arg $ count $ seed_list))

let default_telemetry_file = "nebby-telemetry.jsonl"

let telemetry_arg =
  let doc =
    Printf.sprintf
      "Write telemetry (spans, counters and gauges, histograms) as JSONL to $(docv); \
       inspect it with $(b,nebby stats) (which defaults to %s)."
      default_telemetry_file
  in
  Arg.(value & opt (some string) None & info [ "telemetry" ] ~docv:"FILE" ~doc)

let chrome_arg =
  let doc =
    "Also write a Chrome trace_event JSON of all spans to $(docv); open it in \
     chrome://tracing or ui.perfetto.dev."
  in
  Arg.(value & opt (some string) None & info [ "chrome-trace" ] ~docv:"FILE" ~doc)

let provenance_arg =
  let doc =
    "Write decision-provenance verdict reports as JSONL to $(docv); re-read them with \
     $(b,nebby explain) $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "provenance" ] ~docv:"FILE" ~doc)

(* --prof, --prof-folded FILE, --prof-json FILE: see [with_profiling] *)
let profiling_arg =
  let folded =
    let doc =
      "Write a folded-stack profile of the run to $(docv) (flamegraph.pl / \
       inferno-flamegraph input: one $(i,stack self-microseconds) line per stage)."
    in
    Arg.(value & opt (some string) None & info [ "prof-folded" ] ~docv:"FILE" ~doc)
  in
  let json =
    let doc =
      "Write the per-stage profiler summary (calls, wall and self time, allocation, major \
       GC collections) as JSON to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "prof-json" ] ~docv:"FILE" ~doc)
  in
  let table =
    Arg.(
      value & flag
      & info [ "prof" ] ~doc:"Print the per-stage profiler table after the run.")
  in
  Term.(const (fun table folded json -> (table, folded, json)) $ table $ folded $ json)

(* Sets the observability level as the command line is parsed, so no
   subcommand body has to. *)
let log_level_arg =
  let levels =
    [
      ("quiet", Obs.Runtime.Quiet);
      ("normal", Obs.Runtime.Normal);
      ("debug", Obs.Runtime.Debug);
    ]
  in
  let doc =
    Printf.sprintf
      "Observability detail: %s. Sets the flight-recorder level (quiet keeps only \
       anomalies, debug adds per-packet enqueues) and quiet silences non-error notes on \
       stderr."
      (Arg.doc_alts_enum levels)
  in
  Term.(
    const Obs.Runtime.set_level
    $ Arg.(
        value
        & opt (enum levels) Obs.Runtime.Normal
        & info [ "log-level" ] ~docv:"LEVEL" ~doc))

(* informational stderr chatter; errors keep using Printf.eprintf *)
let note fmt =
  if Obs.Runtime.level () = Obs.Runtime.Quiet then Printf.ifprintf stderr fmt
  else Printf.eprintf fmt

(* Output files are written through Obs.Versioned.write_file, which
   closes with close_out: a failed final flush raises Sys_error (exit 2
   under [or_exit_2]) instead of losing the file silently. *)
let write_file path content =
  Obs.Versioned.write_file path (fun oc -> output_string oc content)

(* Wrap a run in the profiler when any profiler output was requested. *)
let with_profiling (prof, folded, json) f =
  if not (prof || folded <> None || json <> None) then f ()
  else begin
    let result, spans = Obs.Span.record f in
    let profile = Obs.Prof.of_spans spans in
    Option.iter (fun path -> write_file path (Obs.Prof.folded profile)) folded;
    Option.iter
      (fun path -> write_file path (Obs.Json.to_string (Obs.Prof.to_json profile) ^ "\n"))
      json;
    if prof then print_string (Obs.Prof.render profile);
    result
  end

let write_provenance_jsonl path reports =
  Obs.Versioned.write_file path (fun oc ->
      List.iter (Obs.Provenance.write_jsonl oc) reports)

(* Golden-fixture replay, shared by `explain` and `report`: parse the
   committed observation lists back into traces and re-run the
   preparation pipeline on them. *)
let jfloat = Obs.Json.num "fixture"
let get_str = Obs.Json.get_str "fixture"
let get_arr = Obs.Json.get_arr "fixture"

let obs_of_json j =
  match Obs.Json.arr "fixture" j with
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
      | _ -> Obs.Json.shape_error "fixture" "observation has neither 3 nor 7 fields"
    in
    { Netsim.Trace.time = jfloat time; dir; size = int_of_float (jfloat size); view }
  | _ -> Obs.Json.shape_error "fixture" "observation too short"

(* (cca, [(profile, bif estimate, prepared pipeline)]) of a fixture *)
let fixture_entries fixture =
  let cca = get_str "cca" fixture in
  let entries =
    List.map
      (fun t ->
        let profile = get_str "profile" t in
        let rtt = Obs.Json.get_num "fixture" "rtt" t in
        let obs = List.map obs_of_json (get_arr "obs" t) in
        let trace = Netsim.Trace.of_observations obs in
        let bif = Nebby.Bif.estimate trace in
        (profile, bif, Nebby.Pipeline.prepare ~rtt bif))
      (get_arr "traces" fixture)
  in
  (cca, entries)

(* a golden fixture replayed, one provenance record, or a provenance JSONL *)
let reports_of_file ~control target =
  let text = In_channel.with_open_bin target In_channel.input_all in
  match Obs.Json.of_string text with
  | json when Obs.Json.member "traces" json <> None ->
    let cca, entries = fixture_entries json in
    let control = Lazy.force control in
    [ snd (Nebby.Measurement.explain_prepared ~control ~subject:cca entries) ]
  | json -> [ Obs.Provenance.of_json json ]
  | exception Obs.Json.Parse_error _ ->
    (* not one JSON document: a multi-record provenance JSONL *)
    Obs.Provenance.read_jsonl target

let plural n = if n = 1 then "" else "s"

(* a verdict of "unknown" is a classification failure, exit 1 *)
let exit_of_label label = if label = "unknown" then exit_unclassified else exit_ok

let measure_cmd =
  let flight_arg =
    let doc =
      "Write the anomaly-triggered flight-recorder dump (packet-level JSONL) to $(docv); \
       render it with $(b,nebby report) $(docv). Only written when a trigger fired — any \
       typed failure, or a verdict under the confidence/margin thresholds."
    in
    Arg.(value & opt (some string) None & info [ "flight" ] ~docv:"FILE" ~doc)
  in
  let flight_confidence_arg =
    let doc =
      "Confidence threshold under which a verdict triggers a flight dump (set to 2 to \
       force a dump on every verdict)."
    in
    Arg.(
      value
      & opt float Nebby.Measurement.default_config.flight_confidence
      & info [ "flight-confidence" ] ~docv:"X" ~doc)
  in
  let run cca proto noise seed control max_attempts () flight flight_confidence telemetry
      chrome provenance profiling =
    or_exit_2 "measure" (fun () ->
    let control = Lazy.force control in
    let plugins = Nebby.Classifier.extended_plugins control in
    let config =
      { Nebby.Measurement.default_config with max_attempts; flight_confidence }
    in
    let report =
      with_profiling profiling (fun () ->
          Obs.Telemetry.record ?jsonl:telemetry ?chrome (fun () ->
              Nebby.Measurement.measure ~control ~plugins ~proto ~noise ~seed ~config
                ~subject:cca ~make_cca:(Cca.Registry.create cca) ()))
    in
    Printf.printf "target CCA : %s\n" cca;
    Printf.printf "classified : %s (after %d attempt%s)\n" report.Nebby.Measurement.label
      report.attempts (plural report.attempts);
    List.iter (fun (p, l) -> Printf.printf "  profile %-16s -> %s\n" p l) report.per_profile;
    Option.iter (Printf.printf "telemetry  : %s\n") telemetry;
    Option.iter (Printf.printf "chrome trace: %s\n") chrome;
    Option.iter
      (fun path ->
        match report.Nebby.Measurement.provenance with
        | Some p ->
          write_provenance_jsonl path [ p ];
          Printf.printf "provenance : %s\n" path
        | None -> note "nebby measure: no verdict report was produced\n")
      provenance;
    Option.iter
      (fun path ->
        match report.Nebby.Measurement.flight with
        | Some dump ->
          Obs.Versioned.write_file path (fun oc -> Obs.Flight.write_dump oc dump);
          Printf.printf "flight dump: %s (trigger: %s, %d events)\n" path
            dump.Obs.Flight.trigger
            (List.length dump.Obs.Flight.events)
        | None ->
          note
            "nebby measure: no anomaly triggered a flight dump (force one with \
             --flight-confidence 2)\n")
      flight;
    if report.label = "unknown" then
      Printf.eprintf "nebby: classification failed after %d attempt%s; reason chain: %s\n"
        report.attempts (plural report.attempts)
        (String.concat " -> "
           (List.map Nebby.Measurement.failure_reason_label report.failures));
    exit_of_label report.label)
  in
  let doc = "Measure a simulated server and classify its CCA." in
  Cmd.v (Cmd.info "measure" ~doc)
    Term.(
      const run $ cca_arg $ proto_arg $ noise_arg $ seed_arg $ control_arg $ max_attempts_arg
      $ log_level_arg $ flight_arg $ flight_confidence_arg $ telemetry_arg $ chrome_arg
      $ provenance_arg $ profiling_arg)

let trace_cmd =
  let run cca proto noise seed =
    let profile = Nebby.Profile.delay_50ms in
    let result =
      Nebby.Testbed.run ~seed ~noise ~proto ~profile ~make_cca:(Cca.Registry.create cca) ()
    in
    Printf.printf "# time_s,bif_bytes (CCA %s, profile %s)\n" cca profile.Nebby.Profile.name;
    let bif = Nebby.Bif.estimate result.Nebby.Testbed.trace in
    Array.iteri (fun k t -> Printf.printf "%.4f,%.0f\n" t bif.values.(k)) bif.times;
    exit_ok
  in
  let doc = "Capture one measurement and print the BiF trace as CSV." in
  Cmd.v (Cmd.info "trace" ~doc) Term.(const run $ cca_arg $ proto_arg $ noise_arg $ seed_arg)

let census_cmd =
  let pool_report_arg =
    let doc = "Print the pool scheduler report (wait/run histograms, per-domain table)." in
    Arg.(value & flag & info [ "pool-report" ] ~doc)
  in
  let run sites region proto seed control jobs () provenance telemetry pool_report
      profiling =
    or_exit_2 "census" (fun () ->
      let control = Lazy.force control in
      let websites = Internet.Population.generate ~n:sites ~seed () in
      let print_tally tally =
        let total = List.fold_left (fun acc (_, n) -> acc + n) 0 tally in
        Printf.printf "%-14s %8s %8s\n" "variant" "sites" "share";
        List.iter
          (fun (label, n) ->
            Printf.printf "%-14s %8d %7.1f%%\n" label n
              (100.0 *. float_of_int n /. float_of_int total))
          tally
      in
      (* the census runs under span collection when its pool.task spans
         are wanted, in the telemetry file or in the pool report *)
      let traced f =
        let record f = Obs.Telemetry.record ?jsonl:telemetry f in
        if not pool_report then record f
        else begin
          let code, spans = Obs.Span.record (fun () -> record f) in
          print_newline ();
          print_string (Obs.Pooltrace.report spans);
          code
        end
      in
      let code =
        with_profiling profiling @@ fun () ->
        traced @@ fun () ->
        match provenance with
        | None ->
          print_tally (Internet.Census.run ~jobs ~control ~proto ~region websites);
          exit_ok
        | Some path ->
          (* The explained census carries full verdict reports; its labels
             are bit-identical to the plain path. *)
          let explained =
            Internet.Census.explained ~jobs ~control ~proto ~region websites
          in
          print_tally
            (Internet.Census.tally_of_labels
               (List.map
                  (fun (site, r) -> (site, r.Nebby.Measurement.label))
                  explained));
          write_provenance_jsonl path (Internet.Census.provenance_reports explained);
          print_newline ();
          print_string
            (Obs.Provenance.render_dists ~header:"confidence"
               (Internet.Census.confidence_dists explained));
          print_newline ();
          print_string
            (Obs.Provenance.render_dists ~header:"margin"
               (Internet.Census.margin_dists explained));
          Printf.printf "\nprovenance : %s\n" path;
          exit_ok
      in
      Option.iter (Printf.printf "telemetry  : %s\n") telemetry;
      code)
  in
  let doc = "Run a mini census over the synthetic website population." in
  Cmd.v (Cmd.info "census" ~doc)
    Term.(
      const run
      $ sites_arg ~default:100 ~doc:"Number of websites to measure."
      $ region_arg () $ proto_arg $ seed_arg $ control_arg $ jobs_arg $ log_level_arg
      $ provenance_arg $ telemetry_arg $ pool_report_arg $ profiling_arg)

let accuracy_cmd =
  let trials_arg = count ~default:5 "trials" ~doc:"Trials per CCA." in
  let run trials control =
    let control = Lazy.force control in
    let plugins = Nebby.Classifier.extended_plugins control in
    let total_ok = ref 0 and total = ref 0 in
    List.iter
      (fun name ->
        let ok = ref 0 in
        for i = 0 to trials - 1 do
          let r =
            Nebby.Measurement.measure_cca ~control ~plugins ~seed:(1000 + (i * 101)) name
          in
          if r.Nebby.Measurement.label = name then incr ok
        done;
        total_ok := !total_ok + !ok;
        total := !total + trials;
        Printf.printf "%-10s %d/%d\n%!" name !ok trials)
      (Cca.Registry.kernel_ccas @ [ "bbr2" ]);
    Printf.printf "average accuracy: %.1f%%\n"
      (100.0 *. float_of_int !total_ok /. float_of_int !total);
    exit_ok
  in
  let doc = "Evaluate classification accuracy over the kernel CCAs (Table 3)." in
  Cmd.v (Cmd.info "accuracy" ~doc) Term.(const run $ trials_arg $ control_arg)

let chaos_cmd =
  let list_arg names ~name ~doc =
    Arg.(value & opt (some (list names)) None & info [ name ] ~docv:"NAMES" ~doc)
  in
  let ccas_arg =
    list_arg cca_conv ~name:"ccas"
      ~doc:"Comma-separated CCA registry names to measure (default: the full registry)."
  in
  let families_arg =
    list_arg (names_conv Nebby.Chaos.family_names) ~name:"families"
      ~doc:
        "Comma-separated fault families to inject (default: all). The fault-free baseline \
         row always runs."
  in
  let list_families_arg =
    Arg.(value & flag & info [ "list-families" ] ~doc:"Print the fault families and exit.")
  in
  let dump_plans_arg =
    let doc = "Print the seeded fault plans of the suite as JSON and exit." in
    Arg.(value & flag & info [ "dump-plans" ] ~doc)
  in
  let run ccas families seed seeds control max_attempts proto jobs () telemetry chrome
      list_families dump_plans =
    or_exit_2 "chaos" (fun () ->
    if list_families then begin
      List.iter print_endline Nebby.Chaos.family_names;
      exit_ok
    end
    else if dump_plans then begin
      List.iter
        (fun (family, plan) ->
          Printf.printf "%-18s %s\n" family (Faults.to_string plan))
        (Nebby.Chaos.standard_suite ~seed ());
      exit_ok
    end
    else begin
      let control = Lazy.force control in
      let config = { Nebby.Measurement.default_config with max_attempts } in
      let matrices =
        Obs.Telemetry.record ?jsonl:telemetry ?chrome (fun () ->
            List.map
              (fun seed ->
                Nebby.Chaos.run_matrix ?ccas ?families ~config ~seed ~proto ~jobs ~control ())
              seeds)
      in
      let violations = ref 0 in
      let multi = List.length seeds > 1 in
      List.iter2
        (fun seed matrix ->
          if multi then Printf.printf "=== seed %d ===\n" seed;
          print_string (Nebby.Chaos.render matrix);
          if multi then print_newline ();
          violations := !violations + List.length matrix.Nebby.Chaos.violations)
        seeds matrices;
      Option.iter (Printf.printf "\ntelemetry  : %s\n") telemetry;
      if !violations > 0 then begin
        Printf.eprintf
          "nebby chaos: resilience invariant broken: %d cell(s) ended unknown without a \
           reason chain\n"
          !violations;
        exit_internal
      end
      else exit_ok
    end)
  in
  let doc =
    "Measure CCAs under a standard fault-injection suite and report accuracy degradation \
     per fault family."
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const run $ ccas_arg $ families_arg $ seed_arg $ seeds_arg $ control_arg
      $ max_attempts_arg $ proto_arg $ jobs_arg $ log_level_arg $ telemetry_arg $ chrome_arg
      $ list_families_arg $ dump_plans_arg)

(* `fuzz` — coverage-guided adversarial search (lib/search): breed fault
   plans and path perturbations against the measurement pipeline, minimize
   each new counterexample class with delta debugging, and emit
   schema-versioned regression fixtures. The corpus and fixture set are a
   pure function of (training, budget, seed): any --jobs value produces
   byte-identical output. `--replay DIR` re-verifies committed fixtures
   instead of searching. *)
let fuzz_cmd =
  let budget_arg =
    count ~default:64 "budget"
      ~doc:"Search evaluations per seed (minimization evaluations are extra)."
  in
  let target_arg =
    let doc =
      "Comma-separated CCA registry names to attack, or $(b,all) for the full registry \
       (default: the loss-based kernel set plus bbr)."
    in
    let ccas = Arg.list cca_conv in
    let parse = function "all" -> Ok Cca.Registry.all | s -> Arg.conv_parser ccas s in
    let targets = Arg.conv ~docv:"CCA|all" (parse, Arg.conv_printer ccas) in
    Arg.(
      value & opt targets Cca.Registry.kernel_ccas & info [ "target" ] ~docv:"CCA|all" ~doc)
  in
  let out_arg =
    let doc = "Directory minimized fixtures are written to." in
    Arg.(value & opt string "test/adversarial" & info [ "out" ] ~docv:"DIR" ~doc)
  in
  let corpus_arg =
    let doc =
      "Write the final corpus as JSONL to $(docv): one {signature, fitness, genome} \
       object per admitted entry, in admission order — the determinism witness two runs \
       can be diffed on."
    in
    Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"FILE" ~doc)
  in
  let replay_arg =
    let doc =
      "Replay every fixture in $(docv) instead of searching; exits 1 if any no longer \
       reproduces its recorded verdict."
    in
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"DIR" ~doc)
  in
  let training_runs_arg =
    training_runs_arg ~default:Search.Fuzzer.default_config.Search.Fuzzer.training_runs
      ~doc:"Training runs per CCA for the search's control models." ()
  in
  let fuzz_attempts_arg =
    count ~default:Search.Fuzzer.default_config.Search.Fuzzer.max_attempts "max-attempts"
      ~doc:"Measurement attempts per evaluation (low: retries cost budget)."
  in
  let replay_dir dir =
    if not (Sys.file_exists dir && Sys.is_directory dir) then begin
      Printf.eprintf "nebby fuzz: no fixture directory %s\n" dir;
      exit_usage
    end
    else begin
      let files =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".json")
        |> List.sort compare
      in
      if files = [] then begin
        Printf.eprintf "nebby fuzz: no fixtures in %s\n" dir;
        exit_usage
      end
      else begin
        (* fixtures pin their own training configuration; train each
           distinct triple once *)
        let controls = Hashtbl.create 4 in
        let control_for (f : Search.Fixture.t) =
          let key =
            (f.Search.Fixture.training_runs, f.Search.Fixture.training_quic_runs,
             f.Search.Fixture.training_seed)
          in
          match Hashtbl.find_opt controls key with
          | Some c -> c
          | None ->
            let runs, quic_runs, seed = key in
            let c =
              Nebby.Training.train ~runs_per_cca:runs ~quic_runs_per_cca:quic_runs ~seed ()
            in
            Hashtbl.add controls key c;
            c
        in
        let stale = ref 0 and broken = ref 0 in
        List.iter
          (fun file ->
            let path = Filename.concat dir file in
            match Search.Fixture.load path with
            | exception Obs.Versioned.Version_mismatch { kind; expected; got } ->
              Printf.eprintf "nebby fuzz: %s: %s\n" path
                (version_mismatch_message ~kind ~expected ~got);
              incr broken
            | Error e ->
              Printf.eprintf "nebby fuzz: %s: %s\n" path e;
              incr broken
            | Ok fx ->
              let status, e = Search.Fuzzer.replay ~control:(control_for fx) fx in
              Printf.printf "%-48s %s (got %s, %s)\n" file
                (Search.Fuzzer.replay_status_label status)
                e.Search.Fuzzer.got
                (Search.Fixture.class_label e.Search.Fuzzer.verdict_class);
              (match status with
              | Search.Fuzzer.Reproduced -> ()
              | Search.Fuzzer.Fixed ->
                Printf.eprintf
                  "nebby fuzz: %s now classifies correctly — remove the fixture or \
                   regenerate it\n"
                  file;
                incr stale
              | Search.Fuzzer.Changed -> incr stale))
          files;
        if !broken > 0 then exit_usage
        else if !stale > 0 then exit_unclassified
        else exit_ok
      end
    end
  in
  (* The corpus file is opened (with its parent directories) before the
     search starts and closed with close_out after it, so an unwritable
     path or a full disk is a Sys_error, exit 2 under [or_exit_2]. *)
  let with_corpus corpus_file f =
    match corpus_file with
    | None -> f ignore
    | Some path ->
      Search.Fixture.mkdirs (Filename.dirname path);
      Obs.Versioned.write_file path (fun oc -> f (output_string oc))
  in
  let search ~seeds ~config ~out ~emit =
    let control = Search.Fuzzer.control_of_config config in
    let written = Hashtbl.create 8 in
    let total_fixtures = ref 0 in
    List.iter
      (fun seed ->
        let result =
          Search.Fuzzer.run ~log:(fun s -> note "%s\n" s) ~control ~config ~seed ()
        in
        Printf.printf "seed %d: %d evals (+%d minimizing), corpus %d, findings %d\n" seed
          result.Search.Fuzzer.evals result.Search.Fuzzer.minimize_evals
          (List.length result.Search.Fuzzer.corpus)
          (List.length result.Search.Fuzzer.findings);
        List.iter
          (fun { Search.Fuzzer.fixture = (fx : Search.Fixture.t); _ } ->
            (* first seed to hit a counterexample class wins; later
               seeds rediscovering it are reported, not rewritten *)
            let cls = Search.Fixture.class_label fx.verdict_class in
            let key = (fx.expected, cls, fx.got) in
            if Hashtbl.mem written key then
              Printf.printf "  duplicate of an earlier seed's %s/%s/%s find\n" fx.expected cls
                fx.got
            else begin
              Hashtbl.add written key ();
              incr total_fixtures;
              let path = Search.Fixture.save ~dir:out fx in
              Printf.printf
                "  fixture %s: %s -> %s (%s), %d spec(s), found at eval %d, minimized in \
                 %d\n"
                path fx.expected fx.got cls
                (List.length fx.genome.Search.Genome.faults.Faults.specs)
                fx.found_at fx.minimize_steps
            end)
          result.Search.Fuzzer.findings;
        List.iter
          (fun (signature, fitness, genome) ->
            emit
              (Obs.Json.to_string
                 (Obs.Json.Obj
                    [
                      ("seed", Obs.Json.Num (float_of_int seed));
                      ("signature", Obs.Json.Str signature);
                      ("fitness", Obs.Json.Num fitness);
                      ("genome", Search.Genome.to_json genome);
                    ])
              ^ "\n"))
          result.Search.Fuzzer.corpus)
      seeds;
    !total_fixtures
  in
  let run budget seeds jobs targets out corpus_file replay training_runs max_attempts () =
    match replay with
    | Some dir -> replay_dir dir
    | None ->
      or_exit_2 "fuzz" (fun () ->
        let config =
          {
            Search.Fuzzer.default_config with
            Search.Fuzzer.budget;
            jobs;
            targets;
            max_attempts;
            training_runs;
          }
        in
        let total_fixtures =
          with_corpus corpus_file (fun emit -> search ~seeds ~config ~out ~emit)
        in
        Option.iter (Printf.printf "corpus     : %s\n") corpus_file;
        if total_fixtures = 0 then begin
          Printf.eprintf "nebby fuzz: no counterexample found within budget %d x %d seed(s)\n"
            budget (List.length seeds);
          exit_unclassified
        end
        else exit_ok)
  in
  let doc =
    "Coverage-guided adversarial search: breed fault plans and path perturbations that \
     make the classifier fail, minimize each counterexample, and emit regression \
     fixtures."
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      const run $ budget_arg $ seeds_arg $ jobs_arg $ target_arg $ out_arg $ corpus_arg
      $ replay_arg $ training_runs_arg $ fuzz_attempts_arg $ log_level_arg)

(* `explain TARGET` resolves its target in order: an existing file (a
   golden fixture to replay, a single provenance record, or a provenance
   JSONL written by --provenance), a CCA registry name (fresh measurement
   with provenance), then a website name in the synthetic population.
   Fixture replay retrains at the golden-pinned configuration by default
   ([pinned_control_arg]). *)
let explain_cmd =
  let target_arg =
    let doc =
      "What to explain: a provenance JSONL file, a golden fixture (test/golden/*.json), a \
       CCA registry name, or a website name from the synthetic population."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TARGET" ~doc)
  in
  let run target control sites region proto noise seed () provenance profiling =
    let render_reports reports =
      List.iteri
        (fun i r ->
          if i > 0 then print_newline ();
          print_string (Obs.Provenance.render r))
        reports
    in
    let finish reports code =
      render_reports reports;
      Option.iter
        (fun path ->
          write_provenance_jsonl path reports;
          Printf.printf "\nprovenance : %s\n" path)
        provenance;
      code
    in
    (* a fresh verdict: explain its provenance, or run [none] without one *)
    let finish_report (report : Nebby.Measurement.report) ~none =
      match report.provenance with
      | Some p -> finish [ p ] (exit_of_label report.label)
      | None -> none report.label
    in
    or_exit_2 ~file:target "explain" (fun () ->
      with_profiling profiling (fun () ->
          if Sys.file_exists target then
            match reports_of_file ~control target with
            | [] ->
              Printf.eprintf "nebby explain: %s holds no provenance reports\n" target;
              exit_usage
            | reports -> finish reports exit_ok
          else if List.mem target Cca.Registry.all then begin
            let control = Lazy.force control in
            let plugins = Nebby.Classifier.extended_plugins control in
            let report =
              Nebby.Measurement.measure_cca ~control ~plugins ~proto ~noise ~seed target
            in
            finish_report report ~none:(fun _ ->
                Printf.eprintf "nebby explain: no verdict report was produced\n";
                exit_internal)
          end
          else
            let websites = Internet.Population.generate ~n:sites ~seed () in
            match List.find_opt (fun s -> s.Internet.Website.name = target) websites with
            | None ->
              Printf.eprintf
                "nebby explain: %s is not a file, a CCA registry name, or a website in the \
                 %d-site population\n"
                target sites;
              exit_usage
            | Some site ->
              let control = Lazy.force control in
              finish_report (Internet.Census.explain_site ~control ~proto ~region site)
                ~none:(fun label ->
                  (* an unresponsive site has no verdict to explain *)
                  Printf.printf "verdict   %s (no provenance: site did not respond)\n" label;
                  exit_ok)))
  in
  let doc =
    "Show the decision provenance of a classification: candidate scores, winning margin, \
     per-stage summaries, and feature vectors."
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(
      const run $ target_arg $ pinned_control_arg
      $ sites_arg ~default:100 ~doc:"Population size for website-name targets."
      $ region_arg ~doc:"Vantage point for website-name targets." ()
      $ proto_arg $ noise_arg $ seed_arg $ log_level_arg $ provenance_arg $ profiling_arg)

(* `report TARGET` renders a self-contained HTML measurement report
   (inline SVG, no scripts). The target resolves like `explain`'s: a
   flight dump written by measure --flight, a golden fixture to replay
   (test/golden/*.json — this path is the report-determinism gate), or a
   CCA registry name, measured fresh with a forced flight dump. *)
let report_cmd =
  let target_arg =
    let doc =
      "What to report on: a flight-dump JSONL (written by $(b,measure --flight)), a \
       golden fixture (test/golden/*.json), a telemetry recording (its pool scheduler \
       page), or a CCA registry name."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TARGET" ~doc)
  in
  let out_arg =
    let doc = "Write the HTML report to $(docv) instead of stdout." in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let provenance_from_arg =
    let doc =
      "Attach verdict provenance from this JSONL (as written by --provenance) when the \
       target is a flight dump; the report picks the record whose subject matches the \
       dump's."
    in
    Arg.(value & opt (some string) None & info [ "provenance" ] ~docv:"FILE" ~doc)
  in
  let prof_arg =
    let doc =
      "Profile the work that produces the report (training plus the replay or \
       measurement) and embed the per-stage waterfall in the HTML."
    in
    Arg.(value & flag & info [ "prof" ] ~doc)
  in
  (* synthesize a replay dump from a fixture's traces: one run per
     profile, a stage mark plus the BiF series *)
  let dump_of_entries ~subject entries =
    let events = ref [] in
    let seq = ref 0 in
    let span = ref 0.0 in
    let push run time kind a detail =
      events :=
        { Obs.Flight.seq = !seq; run; time; kind; a; b = 0.0; c = 0.0; detail; extra = "" }
        :: !events;
      incr seq;
      if time > !span then span := time
    in
    List.iteri
      (fun i (profile, bif, _prepared) ->
        let run = i + 1 in
        push run 0.0 Obs.Flight.Stage 0.0 ("replay:" ^ profile);
        Array.iteri (fun k t -> push run t Obs.Flight.Bif bif.Nebby.Bif.values.(k) "") bif.times)
      entries;
    Obs.Flight.make_dump ~subject ~trigger:"replay" ~attempt:1 ~window_s:!span
      (List.rev !events)
  in
  let run target control proto noise seed () provenance_from prof out =
    (* --prof profiles the work that produced the report (training plus
       the replay or measurement) and embeds the waterfall; a plain dump
       file involves no instrumented work, so its profile is empty and
       the renderer omits the section. *)
    let profiled = ref None in
    let with_prof f =
      if not prof then f ()
      else begin
        let result, spans = Obs.Span.record f in
        profiled := Some (Obs.Prof.of_spans spans);
        result
      end
    in
    let emit_html html =
      (match out with
      | None -> print_string html
      | Some path ->
        write_file path html;
        Printf.printf "report: %s\n" path);
      exit_ok
    in
    let emit ~dump ~provenance =
      emit_html (Obs.Render.measurement_report ?provenance ?prof:!profiled ~dump ())
    in
    or_exit_2 ~file:target "report" (fun () ->
      if Sys.file_exists target then begin
        let text = In_channel.with_open_bin target In_channel.input_all in
        (* a telemetry recording opens with a span line; route it to the
           scheduler report rather than the measurement report *)
        let is_telemetry =
          let eol = Option.value ~default:(String.length text) (String.index_opt text '\n') in
          match Obs.Json.of_string (String.sub text 0 eol) with
          | first -> Obs.Json.member "kind" first = Some (Obs.Json.Str "span")
          | exception Obs.Json.Parse_error _ -> false
        in
        if is_telemetry then
          emit_html (Obs.Render.pool_report_html ~spans:(Obs.Telemetry.read_spans target) ())
        else
        match Obs.Flight.dump_of_string text with
        | dump ->
          let provenance =
            Option.map
              (fun path ->
                let reports = Obs.Provenance.read_jsonl path in
                match
                  List.find_opt
                    (fun (r : Obs.Provenance.report) ->
                      r.Obs.Provenance.subject = dump.Obs.Flight.subject)
                    reports
                with
                | Some r -> Some r
                | None ->
                  note "nebby report: no provenance record matches subject %s\n"
                    dump.Obs.Flight.subject;
                  (match reports with r :: _ -> Some r | [] -> None))
              provenance_from
          in
          emit ~dump ~provenance:(Option.join provenance)
        | exception Obs.Json.Parse_error _ ->
          (* not a flight dump: try a golden fixture replay *)
          let fixture = Obs.Json.of_string text in
          if Obs.Json.member "traces" fixture = None then begin
            Printf.eprintf
              "nebby report: %s is neither a flight dump nor a golden fixture\n" target;
            exit_usage
          end
          else begin
            let cca, entries = fixture_entries fixture in
            let provenance =
              with_prof (fun () ->
                  snd
                    (Nebby.Measurement.explain_prepared ~control:(Lazy.force control)
                       ~subject:cca entries))
            in
            emit ~dump:(dump_of_entries ~subject:cca entries)
              ~provenance:(Some provenance)
          end
      end
      else if List.mem target Cca.Registry.all then begin
        (* force a dump: every verdict is under a threshold of 2 *)
        let config =
          { Nebby.Measurement.default_config with flight_confidence = 2.0 }
        in
        let report =
          with_prof (fun () ->
              let control = Lazy.force control in
              let plugins = Nebby.Classifier.extended_plugins control in
              Nebby.Measurement.measure_cca ~control ~plugins ~proto ~noise ~seed ~config
                target)
        in
        match report.Nebby.Measurement.flight with
        | Some dump -> emit ~dump ~provenance:report.Nebby.Measurement.provenance
        | None ->
          Printf.eprintf
            "nebby report: measurement produced no flight dump (is the recorder \
             disabled?)\n";
          exit_internal
      end
      else begin
        Printf.eprintf
          "nebby report: %s is not a file, a flight dump, or a CCA registry name\n" target;
        exit_usage
      end)
  in
  let doc =
    "Render a self-contained HTML measurement report (BiF timeline with anomaly \
     annotations, cwnd overlay, frequency spectrum, candidate scores) from a flight dump, \
     a golden fixture, or a fresh measurement."
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(
      const run $ target_arg $ pinned_control_arg $ proto_arg $ noise_arg $ seed_arg
      $ log_level_arg $ provenance_from_arg $ prof_arg $ out_arg)

(* `campaign` fans one experiment across N seeds, streams per-seed
   records into a schema-versioned JSONL store, aggregates per-cell
   statistics into a deterministic summary JSON, renders the HTML
   dashboard, and evaluates the pass gates. The summary and dashboard
   are byte-identical for every worker count (check.sh diffs jobs=1
   against jobs=4); wall-clock values only enter through --bench-json,
   which is the same file either way. *)
let campaign_cmd =
  let experiment_arg =
    let doc = "Experiment to fan out: accuracy, census, or chaos." in
    Arg.(value & pos 0 string "accuracy" & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let out_arg =
    let doc = "Per-seed result store (schema-versioned JSONL), written as seeds finish." in
    Arg.(value & opt string "campaign-runs.jsonl" & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let summary_arg =
    let doc = "Aggregated summary JSON (cells, confusion, outliers, gate results)." in
    Arg.(value & opt string "campaign-summary.json" & info [ "summary" ] ~docv:"FILE" ~doc)
  in
  let html_arg =
    let doc = "Self-contained HTML dashboard." in
    Arg.(value & opt string "campaign-dashboard.html" & info [ "html" ] ~docv:"FILE" ~doc)
  in
  let from_arg =
    let doc =
      "Skip measuring: aggregate an existing store (as written by --out) instead. The \
       store's own experiment tag wins over $(i,EXPERIMENT)."
    in
    Arg.(value & opt (some string) None & info [ "from" ] ~docv:"STORE" ~doc)
  in
  let bench_json_arg =
    let doc =
      "Overhead ledger (the JSON of $(b,bench/main.exe overhead --json)) feeding the \
       wall-clock gates — census throughput floor and flight/provenance overhead \
       ceilings. Read before any seed runs, so a missing or malformed file exits 2 at \
       once. Without it those gates are skipped, keeping the campaign outputs free of \
       this host's wall clock."
    in
    Arg.(value & opt (some string) None & info [ "bench-json" ] ~docv:"FILE" ~doc)
  in
  let no_gates_arg =
    Arg.(
      value & flag
      & info [ "no-gates" ]
          ~doc:"Evaluate no pass gates: aggregate, render, and exit 0 regardless.")
  in
  let pool_trace_file_arg =
    let doc =
      "Embed the pool scheduler section (timeline SVG, wait/run histograms) from the \
       pool.task spans of this telemetry recording (as written by $(b,census --telemetry)) \
       into the dashboard. Wall-clock content: the determinism diff in check.sh runs \
       without it."
    in
    Arg.(value & opt (some string) None & info [ "pool-trace" ] ~docv:"FILE" ~doc)
  in
  let drift_store_arg =
    let doc =
      "Embed the deployment-drift section (stacked share-over-epochs chart plus \
       change-point events, see $(b,nebby drift)) from this serve journal store into \
       the dashboard."
    in
    Arg.(value & opt (some string) None & info [ "drift-store" ] ~docv:"STORE" ~doc)
  in
  let accuracy_floor_arg =
    let doc = "Override the overall mean-accuracy floor gate." in
    Arg.(value & opt (some float) None & info [ "accuracy-floor" ] ~docv:"X" ~doc)
  in
  let ci_ceiling_arg =
    let doc = "Override the CI-width ceiling gate on the overall accuracy." in
    Arg.(value & opt (some float) None & info [ "ci-width-ceiling" ] ~docv:"X" ~doc)
  in
  (* every numeric field of a bench ledger becomes a gate extra; a ledger
     that is not a JSON object is as malformed as one that does not parse *)
  let bench_extras path =
    let fail msg = raise (Obs.Json.Parse_error (path ^ ": " ^ msg)) in
    match Obs.Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
    | Obs.Json.Obj kvs ->
      List.filter_map (fun (k, v) -> Option.map (fun x -> (k, x)) (Obs.Json.to_float v)) kvs
    | _ -> fail "not a JSON object"
    | exception Obs.Json.Parse_error msg -> fail msg
  in
  let override_gates ~accuracy_floor ~ci_ceiling gates =
    List.map
      (fun (g : Obs.Campaign.gate) ->
        match (g.Obs.Campaign.metric, g.Obs.Campaign.gstat, g.Obs.Campaign.op) with
        | "accuracy", Obs.Campaign.Mean, Obs.Campaign.Floor ->
          { g with Obs.Campaign.bound = Option.value ~default:g.Obs.Campaign.bound accuracy_floor }
        | "accuracy", Obs.Campaign.Ci_width, Obs.Campaign.Ceiling ->
          { g with Obs.Campaign.bound = Option.value ~default:g.Obs.Campaign.bound ci_ceiling }
        | _ -> g)
      gates
  in
  let run experiment seeds jobs control sites region proto () out summary_path html_path
      from bench_json no_gates pool_trace_file drift_store accuracy_floor ci_ceiling =
    let aggregate store =
      let tag, stored = Obs.Campaign.read_store store in
      note "nebby campaign: aggregating %d stored run(s) from %s\n" (List.length stored)
        store;
      (tag, stored)
    in
    let measure experiment =
      let control = Lazy.force control in
      let stored =
        Obs.Versioned.write_file out (fun oc ->
            Obs.Campaign.write_header oc
              ~experiment:(Internet.Campaign_runner.experiment_name experiment)
              ~runs:(List.length seeds);
            Internet.Campaign_runner.run ~jobs
              ~emit:(fun i r ->
                Obs.Campaign.write_seed_line oc r;
                flush oc;
                note "nebby campaign: seed %d done (%d/%d)\n" r.Obs.Campaign.seed (i + 1)
                  (List.length seeds))
              ~sites ~proto ~region ~control experiment ~seeds)
      in
      (Internet.Campaign_runner.experiment_name experiment, stored)
    in
    let report ~extra (experiment_tag, seed_runs) =
      let summary = Obs.Campaign.aggregate ~experiment:experiment_tag seed_runs in
      let gates =
        if no_gates then []
        else
          match Internet.Campaign_runner.experiment_of_name experiment_tag with
          | Ok e ->
            override_gates ~accuracy_floor ~ci_ceiling (Internet.Campaign_runner.default_gates e)
          | Error _ -> []
      in
      let results = Obs.Campaign.evaluate ~gates ~extra summary in
      write_file summary_path
        (Obs.Json.to_string (Obs.Campaign.summary_to_json ~gates:results summary) ^ "\n");
      let pool = Option.map Obs.Telemetry.read_spans pool_trace_file in
      let drift =
        Option.map
          (fun store ->
            let ledger = Serve.Observatory.ledger_of_store ~store in
            (ledger, Obs.Drift.detect ledger))
          drift_store
      in
      write_file html_path
        (Obs.Render.campaign_dashboard ?pool ?drift ~gates:results ~summary ());
      print_string (Obs.Campaign.render ~gates:results summary);
      (match from with
      | None -> Printf.printf "\nstore     : %s\n" out
      | Some store -> Printf.printf "\nstore     : %s (aggregated)\n" store);
      Printf.printf "summary   : %s\ndashboard : %s\n" summary_path html_path;
      if Obs.Campaign.gates_pass results then exit_ok
      else begin
        let failed =
          List.filter
            (fun (r : Obs.Campaign.gate_result) -> r.Obs.Campaign.status = Obs.Campaign.Fail)
            results
        in
        Printf.eprintf "nebby campaign: %d gate(s) failed: %s\n" (List.length failed)
          (String.concat ", "
             (List.map
                (fun (r : Obs.Campaign.gate_result) ->
                  r.Obs.Campaign.gate.Obs.Campaign.gate_name)
                failed));
        exit_unclassified
      end
    in
    or_exit_2 "campaign" (fun () ->
      (* the ledger is read before any seed runs: a bad one exits 2 at once *)
      let extra = Option.fold ~none:[] ~some:bench_extras bench_json in
      match (from, Internet.Campaign_runner.experiment_of_name experiment) with
      | None, Error msg ->
        Printf.eprintf "nebby campaign: %s\n" msg;
        exit_usage
      | Some store, _ -> report ~extra (aggregate store)
      | None, Ok experiment -> report ~extra (measure experiment))
  in
  let doc =
    "Fan an experiment across many seeds, aggregate per-cell statistics (mean, stddev, \
     95% CI), render the HTML dashboard, and evaluate pass gates (non-zero exit on any \
     failure)."
  in
  Cmd.v (Cmd.info "campaign" ~doc)
    Term.(
      const run $ experiment_arg $ seeds_arg $ jobs_arg $ control_arg
      $ sites_arg ~default:80 ~doc:"Census population size per seed."
      $ region_arg () $ proto_arg $ log_level_arg $ out_arg
      $ summary_arg $ html_arg $ from_arg $ bench_json_arg $ no_gates_arg
      $ pool_trace_file_arg $ drift_store_arg $ accuracy_floor_arg $ ci_ceiling_arg)

let serve_cmd =
  let epochs_arg =
    Arg.(
      value & opt int 2
      & info [ "epochs" ] ~docv:"N"
          ~doc:
            "Census epochs to run or resume: epoch 0 measures every site, later epochs \
             re-measure only decayed verdicts.")
  in
  let store_arg =
    Arg.(
      value
      & opt string "nebby-serve.journal"
      & info [ "store" ] ~docv:"FILE"
          ~doc:
            "Durable journal the service commits to and resumes from; safe to reuse \
             across runs and kills.")
  in
  let deadline_arg =
    Arg.(
      value & opt float 0.0
      & info [ "deadline-s" ] ~docv:"SECONDS"
          ~doc:
            "Per-measurement wall-clock deadline for the watchdog; overruns are retried \
             on the timeout budget, then committed as unknown. 0 disables the watchdog \
             (and keeps the store bit-deterministic).")
  in
  let high_water_arg =
    Arg.(
      value & opt int 256
      & info [ "high-water" ] ~docv:"N"
          ~doc:
            "Job-queue depth bound; admission past it is refused (backpressure) and the \
             scheduler drains a batch before retrying.")
  in
  let batch_arg = count ~default:8 "batch" ~doc:"Jobs measured per parallel drain of the queue." in
  let max_entries_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-entries" ] ~docv:"N"
          ~doc:
            "Bound the journal's in-memory read cache to $(docv) records (evicted \
             records are re-read and re-checksummed from disk); default unbounded.")
  in
  let confidence_floor_arg =
    Arg.(
      value & opt float 0.9
      & info [ "confidence-floor" ] ~docv:"X"
          ~doc:"Verdicts below this confidence decay and are re-measured next epoch.")
  in
  let margin_floor_arg =
    Arg.(
      value & opt float 2.0
      & info [ "margin-floor" ] ~docv:"X"
          ~doc:"Verdicts below this winning margin decay and are re-measured next epoch.")
  in
  let kill_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "kill-after-commits" ] ~docv:"N"
          ~doc:
            "Crash injection for recovery testing: SIGKILL this process after the Nth \
             journal commit.")
  in
  let compact_only_arg =
    Arg.(
      value & flag
      & info [ "compact-only" ]
          ~doc:"Only compact the store canonically (idempotent) and exit; no measuring.")
  in
  let status_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "status-file" ] ~docv:"FILE"
          ~doc:
            "Live health surface: atomically rewrite $(docv) (JSON snapshot) and \
             $(docv).prom (Prometheus text exposition) after every batch; read it while \
             the daemon runs with $(b,nebby stats --live) $(docv).")
  in
  let migrate_arg =
    let parse spec =
      Option.to_result
        ~none:
          (Printf.sprintf
             "bad --migrate spec %S (expected FROM:TO:ONSET:RATE, e.g. cubic:bbr:2:4)" spec)
        (Internet.Population.migration_of_spec spec)
    in
    let print ppf m = Format.pp_print_string ppf (Internet.Population.migration_spec m) in
    Arg.(
      value
      & opt (some (conv' (parse, print))) None
      & info [ "migrate" ] ~docv:"FROM:TO:ONSET:RATE"
          ~doc:
            "Time-varying ground truth: from epoch $(i,ONSET) on, convert sites from CCA \
             $(i,FROM) to $(i,TO) at $(i,RATE) weight points per epoch (e.g. \
             cubic:bbr:2:4). Pair with $(b,--confidence-floor) > 1 so every epoch \
             re-measures; the delta census otherwise carries stable verdicts forward and \
             hides the movement.")
  in
  let alerts_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "alerts" ] ~docv:"RULES.json"
          ~doc:
            "Evaluate these alert rules each epoch (schema-versioned JSON; see \
             EXPERIMENTS.md). Firing rules surface as nebby_alert gauges in the status \
             exposition and as transitions in $(b,--alert-log).")
  in
  let alert_log_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "alert-log" ] ~docv:"FILE"
          ~doc:
            "Write the JSONL alert-transition log here (one fire/resolve edge per line, \
             deduplicated while a breach persists). Implies the built-in default rules \
             when $(b,--alerts) is not given.")
  in
  let run sites region proto seed control jobs epochs store deadline high_water batch
      max_entries confidence_floor margin_floor kill compact_only status_file migration
      alerts alert_log telemetry () =
    or_exit_2 "serve" (fun () ->
      if compact_only then begin
        let live = Serve.Service.compact_store ~store in
        Printf.printf "compacted  : %s (%d live record(s))\n" store live;
        exit_ok
      end
      else begin
        let alert_rules =
          match alerts with
          | Some path -> Serve.Alerts.load_rules path
          | None -> if alert_log <> None then Serve.Alerts.default_rules else []
        in
        let control = Lazy.force control in
        let config =
          {
            Serve.Service.sites;
            seed;
            region;
            proto;
            jobs;
            epochs = max 1 epochs;
            deadline_s = (if deadline <= 0.0 then infinity else deadline);
            high_water;
            batch;
            max_entries;
            confidence_floor;
            margin_floor;
            kill_after_commits = kill;
            status_file;
            migration;
            alert_rules;
            alert_log;
          }
        in
        let summary =
          Obs.Telemetry.record ?jsonl:telemetry (fun () ->
              Serve.Service.run ~control ~config ~store)
        in
        Printf.printf "store      : %s\n" store;
        Printf.printf "epochs     : %d over %d site(s) (%s, %s)\n" config.epochs sites
          (Internet.Region.name region)
          (match proto with Netsim.Packet.Tcp -> "tcp" | Netsim.Packet.Quic -> "quic");
        Printf.printf "measured   : %d\n" summary.Serve.Service.measured;
        Printf.printf "recovered  : %d\n" summary.recovered;
        Printf.printf "carried    : %d\n" summary.carried;
        Printf.printf "timeouts   : %d\n" summary.timeouts;
        Printf.printf "overloads  : %d\n" summary.overloads;
        Printf.printf "torn tail  : %d record(s) dropped\n" summary.torn_dropped;
        Printf.printf "snapshots  : %d\n" summary.snapshots;
        Option.iter
          (fun m -> Printf.printf "migration  : %s\n" (Internet.Population.migration_spec m))
          migration;
        Printf.printf "drift evts : %d\n" summary.drift_events;
        if alert_rules <> [] then begin
          Printf.printf "alerts     : %d fired (%d rule(s) armed)\n" summary.alerts_fired
            (List.length alert_rules);
          Option.iter (Printf.printf "alert log  : %s\n") alert_log
        end;
        Option.iter (Printf.printf "status     : %s (+ .prom)\n") status_file;
        Option.iter (Printf.printf "telemetry  : %s\n") telemetry;
        exit_ok
      end)
  in
  let doc =
    "Run the crash-safe continuous census: measure the population onto a durable \
     journal, recover already-committed verdicts after a kill, and re-measure only \
     decayed verdicts in later epochs."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run
      $ sites_arg ~default:24 ~doc:"Number of websites to keep fresh."
      $ region_arg () $ proto_arg $ seed_arg $ control_arg $ jobs_arg $ epochs_arg
      $ store_arg $ deadline_arg $ high_water_arg $ batch_arg $ max_entries_arg
      $ confidence_floor_arg $ margin_floor_arg $ kill_arg $ compact_only_arg $ status_file_arg $ migrate_arg $ alerts_arg $ alert_log_arg
      $ telemetry_arg $ log_level_arg)

let drift_cmd =
  let store_pos_arg =
    let doc = "Serve journal store to analyze (as written by $(b,nebby serve --store))." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"STORE" ~doc)
  in
  let out_arg =
    let doc = "Write the schema-versioned drift-ledger JSON here." in
    Arg.(value & opt string "nebby-drift.json" & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let html_arg =
    let doc =
      "Self-contained HTML drift dashboard (stacked share-over-epochs chart, \
       change-point annotations, alert timeline, historical census context)."
    in
    Arg.(value & opt string "nebby-drift.html" & info [ "html" ] ~docv:"FILE" ~doc)
  in
  let rules_arg =
    let doc =
      "Replay these alert rules offline over the ledger (same engine the serve daemon \
       runs each epoch; epoch-ledger and drift signals only — the live health signals \
       read 0 offline). Any rule firing makes the command exit 1."
    in
    Arg.(value & opt (some string) None & info [ "rules" ] ~docv:"RULES.json" ~doc)
  in
  let alert_log_arg =
    let doc =
      "Embed this JSONL alert-transition log (as written by $(b,serve --alert-log)) \
       into the dashboard's alert timeline instead of replaying rules."
    in
    Arg.(value & opt (some string) None & info [ "alert-log" ] ~docv:"FILE" ~doc)
  in
  let alert_out_arg =
    let doc = "With $(b,--rules): also write the replayed transitions as JSONL to $(docv)." in
    Arg.(value & opt (some string) None & info [ "alert-out" ] ~docv:"FILE" ~doc)
  in
  let run store out html_path rules alert_log alert_out =
    or_exit_2 "drift" (fun () ->
      let ledger = Serve.Observatory.ledger_of_store ~store in
      let events = Obs.Drift.detect ledger in
      write_file out (Obs.Json.to_string (Obs.Drift.to_json ledger) ^ "\n");
      (* alert timeline: a saved serve log wins; otherwise replay rules
         offline, per epoch, exactly as the daemon would have *)
      let transitions =
        match (alert_log, rules) with
        | Some path, _ -> Serve.Alerts.read_log path
        | None, Some path ->
          let engine = Serve.Alerts.create (Serve.Alerts.load_rules path) in
          List.concat_map
            (fun (p : Obs.Drift.point) ->
              let epoch = p.Obs.Drift.epoch in
              let at_epoch =
                List.filter (fun e -> Obs.Drift.event_epoch e = epoch) events
              in
              Serve.Alerts.evaluate engine ~epoch
                ~signal_value:
                  (Serve.Alerts.signal_values ~point:p ~events:at_epoch ()))
            ledger.Obs.Drift.points
        | None, None -> []
      in
      (match (alert_out, rules) with
      | Some path, Some _ -> Serve.Alerts.write_log path transitions
      | _ -> ());
      let alerts =
        List.map
          (fun (tr : Serve.Alerts.transition) ->
            let action = match tr.action with Fire -> `Fire | Resolve -> `Resolve in
            (tr.epoch, tr.rule, action, tr.value, tr.limit))
          transitions
      in
      let historical =
        List.map
          (fun (s : Internet.Census_history.snapshot) ->
            (s.Internet.Census_history.study, s.Internet.Census_history.year,
             s.Internet.Census_history.shares))
          Internet.Census_history.historical
      in
      write_file html_path (Obs.Render.drift_dashboard ~historical ~alerts ~ledger ~events ());
      print_string (Obs.Drift.render ledger events);
      Printf.printf "\nledger    : %s\ndashboard : %s\n" out html_path;
      Option.iter
        (fun p -> if rules <> None then Printf.printf "alert log : %s\n" p)
        alert_out;
      let fires =
        List.filter (fun t -> t.Serve.Alerts.action = Serve.Alerts.Fire) transitions
      in
      if rules <> None && fires <> [] then begin
        Printf.eprintf "nebby drift: %d alert rule(s) fired: %s\n" (List.length fires)
          (String.concat ", "
             (List.sort_uniq compare (List.map (fun t -> t.Serve.Alerts.rule) fires)));
        exit_unclassified
      end
      else exit_ok)
  in
  let doc =
    "Deployment-drift observatory: fold a serve store's per-epoch verdicts into a \
     schema-versioned drift ledger, run change-point detection (per-class CUSUM on \
     share deltas), render the HTML dashboard, and optionally replay alert rules \
     offline (exit 1 if any fire)."
  in
  Cmd.v (Cmd.info "drift" ~doc)
    Term.(
      const run $ store_pos_arg $ out_arg $ html_arg $ rules_arg $ alert_log_arg
      $ alert_out_arg)

let stats_cmd =
  let file_arg =
    let doc =
      Printf.sprintf
        "Telemetry JSONL file to summarize (as written by $(b,--telemetry)). Defaults to %s."
        default_telemetry_file
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let live_arg =
    let doc =
      "Render the live health snapshot a running $(b,nebby serve --status-file) daemon \
       maintains at $(docv) (safe to read mid-run: writes are atomic)."
    in
    Arg.(value & opt (some string) None & info [ "live" ] ~docv:"FILE" ~doc)
  in
  let pool_arg =
    let doc =
      "Render the pool scheduler report from the pool.task spans of a telemetry recording \
       (as written by $(b,census --telemetry))."
    in
    Arg.(value & opt (some string) None & info [ "pool" ] ~docv:"FILE" ~doc)
  in
  let chrome_arg =
    let doc =
      "With $(b,--pool): also export the recording's spans as Chrome trace_event JSON to \
       $(docv), one thread per pool worker (load it in about://tracing or Perfetto)."
    in
    Arg.(value & opt (some string) None & info [ "chrome-trace" ] ~docv:"FILE" ~doc)
  in
  let drift_arg =
    let doc =
      "Render the drift-ledger text view of a serve store (epoch table plus \
       change-point events; the full dashboard is $(b,nebby drift))."
    in
    Arg.(value & opt (some string) None & info [ "drift" ] ~docv:"STORE" ~doc)
  in
  let run file live pool chrome drift =
    or_exit_2 ?file:pool "stats" (fun () ->
    match (live, pool, drift) with
    | _, _, Some store ->
      let ledger = Serve.Observatory.ledger_of_store ~store in
      print_string (Obs.Drift.render ledger (Obs.Drift.detect ledger));
      exit_ok
    | Some status_path, _, None ->
      print_string (Serve.Health.render (Serve.Health.read status_path));
      exit_ok
    | None, Some path, None ->
      let spans = Obs.Telemetry.read_spans path in
      print_string (Obs.Pooltrace.report spans);
      Option.iter
        (fun out ->
          write_file out (Obs.Json.to_string (Obs.Span.chrome_trace spans));
          Printf.printf "\nchrome trace: %s\n" out)
        chrome;
      exit_ok
    | None, None, None -> (
      let path =
        match file with
        | None when Sys.file_exists default_telemetry_file -> Some default_telemetry_file
        | file -> file
      in
      match path with
      | Some p ->
        Printf.printf "telemetry summary of %s\n\n%s" p
          (Obs.Telemetry.render_summary (Obs.Telemetry.read_summary p));
        exit_ok
      | None ->
        Printf.eprintf
          "nebby stats: no telemetry file given and no %s here; record one with \
           --telemetry FILE\n"
          default_telemetry_file;
        exit_usage))
  in
  let doc =
    "Summarize the obs subsystems: a telemetry file, a live serve health snapshot \
     ($(b,--live)), the pool scheduler in a telemetry recording ($(b,--pool)) or a serve \
     store's drift ledger ($(b,--drift))."
  in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(const run $ file_arg $ live_arg $ pool_arg $ chrome_arg $ drift_arg)

let () =
  let doc = "Nebby: congestion control identification from BiF traces (simulated testbed)" in
  let info = Cmd.info "nebby" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [
        measure_cmd; trace_cmd; census_cmd; explain_cmd; report_cmd; accuracy_cmd;
        chaos_cmd; fuzz_cmd; campaign_cmd; serve_cmd; drift_cmd; stats_cmd;
      ]
  in
  let code =
    match Cmd.eval_value ~catch:false group with
    | Ok (`Ok code) -> code
    | Ok (`Version | `Help) -> exit_ok
    | Error (`Parse | `Term) -> exit_usage
    | Error `Exn -> exit_internal
    | exception e ->
      Printf.eprintf "nebby: internal error: %s\n" (Printexc.to_string e);
      exit_internal
  in
  exit code

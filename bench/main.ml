(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation against the simulated testbed (see DESIGN.md for the
   experiment index and EXPERIMENTS.md for paper-vs-measured results).

   Usage:
     dune exec bench/main.exe                   # every experiment, default scale
     dune exec bench/main.exe -- table3 fig9    # selected experiments
     dune exec bench/main.exe -- --sites 2000   # larger census samples
     dune exec bench/main.exe -- --trials 50    # more trials per CCA
     dune exec bench/main.exe -- --perf         # Bechamel microbenchmarks *)

let sites = ref 250
let trials = ref 12
let seed = ref 20230601
let training_runs = ref None
let json_out = ref None
let runtest_s = ref None

(* multi-seed sweeps: --seeds N / --seed-list a,b,c resolve through the
   same validator the campaign and chaos CLIs use, so the vocabulary and
   error messages match *)
let seeds_count = ref None
let seed_list = ref None
let history_mode = ref false

(* perf-regression ledger: --baseline writes BENCH_<date>.json and compares
   the guarded hot-path metrics against a committed baseline file, exiting
   nonzero when any of them slows down by more than --tolerance *)
let baseline_mode = ref false
let tolerance = ref 0.25
let baseline_file = ref "BENCH_baseline.json"

let pf = Printf.printf

(* machine-readable results accumulated by experiments and written as a
   flat JSON object by --json FILE (keys are dotted metric names, values
   already-rendered JSON literals) *)
let bench_json : (string * string) list ref = ref []
let record_json key value = bench_json := (key, value) :: !bench_json
let record_json_f key v = record_json key (Printf.sprintf "%.6f" v)

let write_json path =
  let fields =
    List.rev !bench_json
    @ (match !runtest_s with
      | Some s -> [ ("runtest_s", Printf.sprintf "%.3f" s) ]
      | None -> [])
  in
  let oc = open_out path in
  output_string oc "{\n";
  List.iteri
    (fun i (k, v) ->
      Printf.fprintf oc "  \"%s\": %s%s\n" k v
        (if i = List.length fields - 1 then "" else ","))
    fields;
  output_string oc "}\n";
  close_out oc;
  pf "\n[bench JSON written to %s]\n" path

let date_stamp () =
  let tm = Unix.localtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday

(* the hot-path metrics the ledger guards; everything else in the JSON is
   informational *)
let guarded_metrics = [ "census_serial_s"; "census_parallel_s"; "journal_replay_s" ]

(* throughput floors: for these, *lower* than baseline is the regression
   direction (ratio < 1 - tolerance fails) *)
let guarded_floor_metrics = [ "serve_jobs_per_s" ]

(* scheduler metrics are too host-noisy for ratio gates, so they are
   presence-gated instead: once the committed baseline records one, a
   current run that fails to produce it is a regression (the tracing
   path broke), but its value is informational *)
let presence_metrics =
  [
    "pool_queue_wait_p99_us"; "pool_queue_wait_p99_us_ub"; "pool_steal_frac";
    "pool_busy_frac_mean"; "census_trace_overhead_frac"; "serve_alert_overhead_frac";
  ]

let read_json_file path =
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Obs.Json.of_string s

let check_baseline current_path =
  if not (Sys.file_exists !baseline_file) then begin
    pf "[no %s found: baseline gate skipped - commit %s as %s to arm it]\n" !baseline_file
      current_path !baseline_file;
    0
  end
  else begin
    let baseline = read_json_file !baseline_file in
    let current = read_json_file current_path in
    let lookup json key = Option.bind (Obs.Json.member key json) Obs.Json.to_float in
    let check ~floor key =
      match (lookup baseline key, lookup current key) with
      | Some base, Some cur when base > 0.0 ->
        let ratio = cur /. base in
        let regressed =
          if floor then ratio < 1.0 -. !tolerance else ratio > 1.0 +. !tolerance
        in
        pf "  %-24s baseline %10.3f  current %10.3f  ratio %.2fx (%s)%s\n" key base cur
          ratio
          (if floor then "floor" else "ceiling")
          (if regressed then "  << REGRESSION" else "");
        if regressed then Some key else None
      | _ ->
        pf "  %-24s missing in baseline or current run - skipped\n" key;
        None
    in
    let failures =
      List.filter_map (check ~floor:false) guarded_metrics
      @ List.filter_map (check ~floor:true) guarded_floor_metrics
      @ List.filter_map
          (fun key ->
            match (lookup baseline key, lookup current key) with
            | Some _, None ->
              pf "  %-24s present in baseline, MISSING in current run  << REGRESSION\n" key;
              Some key
            | Some _, Some cur ->
              pf "  %-24s %10.3f (presence gate: informational value)\n" key cur;
              None
            | None, _ ->
              pf "  %-24s not in baseline - presence gate skipped\n" key;
              None)
          presence_metrics
    in
    if failures = [] then begin
      pf "[baseline gate: ok (tolerance %.0f%%)]\n" (100.0 *. !tolerance);
      0
    end
    else begin
      pf "[baseline gate: FAILED - %s regressed by more than %.0f%% vs %s]\n"
        (String.concat ", " failures)
        (100.0 *. !tolerance)
        !baseline_file;
      1
    end
  end

(* --history: fold every committed BENCH_*.json ledger into one trend
   table, oldest first — the stdout twin of the campaign dashboard's
   sparklines (which read the same files). *)
let history_columns =
  [
    ("census_serial_s", "serial_s");
    ("census_parallel_s", "parallel_s");
    ("census_speedup", "speedup");
    ("census_sites_per_s", "sites_per_s");
    ("census_flight_overhead_frac", "flight_ovh");
    ("census_provenance_overhead_frac", "prov_ovh");
    ("census_trace_overhead_frac", "trace_ovh");
    ("pool_queue_wait_p99_us", "wait_p99_us");
    ("pool_steal_frac", "steal_frac");
    ("pool_busy_frac_mean", "busy_frac");
    ("runtest_s", "runtest_s");
    ("bench_total_s", "total_s");
  ]

let history () =
  let files =
    Sys.readdir "." |> Array.to_list
    |> List.filter (fun f ->
           String.length f > 6
           && String.sub f 0 6 = "BENCH_"
           && Filename.check_suffix f ".json")
    |> List.sort compare
  in
  if files = [] then begin
    pf "no BENCH_*.json ledgers found in %s\n" (Sys.getcwd ());
    0
  end
  else begin
    pf "%-24s" "ledger";
    List.iter (fun (_, label) -> pf " %12s" label) history_columns;
    pf "\n";
    List.iter
      (fun file ->
        match read_json_file file with
        | json ->
          pf "%-24s" (Filename.remove_extension file);
          List.iter
            (fun (key, _) ->
              match Option.bind (Obs.Json.member key json) Obs.Json.to_float with
              | Some v -> pf " %12.4g" v
              | None -> pf " %12s" "-")
            history_columns;
          pf "\n"
        | exception Obs.Json.Parse_error msg -> pf "%-24s (unreadable: %s)\n" file msg)
      files;
    pf "(%d ledger%s; campaign dashboards sparkline the same files)\n" (List.length files)
      (if List.length files = 1 then "" else "s");
    0
  end

let sparkline values =
  let blocks = [| " "; "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
                  "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |] in
  let n = Array.length values in
  if n = 0 then ""
  else begin
    let hi = Array.fold_left Float.max 1e-9 values in
    let width = 100 in
    let buf = Buffer.create (width * 3) in
    for i = 0 to width - 1 do
      let v = values.(i * n / width) in
      let level = int_of_float (v /. hi *. 8.0) in
      Buffer.add_string buf blocks.(max 0 (min 8 level))
    done;
    Buffer.contents buf
  end

let trace_sparkline ?proto ?noise ~profile ~seed name =
  let result = Nebby.Testbed.run_cca ~profile ~seed ?proto ?noise name in
  let prepared = Nebby.Measurement.prepare_result ~profile result in
  sparkline prepared.Nebby.Pipeline.smoothed

(* total wall seconds recorded so far under span [name] (0 if never run) *)
let span_total name =
  match Obs.Histogram.find ("span." ^ name) with
  | Some h -> Obs.Histogram.sum h
  | None -> 0.0

let control =
  lazy
    (pf "[training the classifier (control measurements, both transports) ...]\n%!";
     let before = span_total "train" in
     let c = Nebby.Training.train ?runs_per_cca:!training_runs ~seed:!seed () in
     pf "[trained in %.1f s]\n\n%!" (span_total "train" -. before);
     c)

let header id title =
  pf "\n============================================================\n";
  pf "%s - %s\n" id title;
  pf "============================================================\n%!"

(* ------------------------------------------------------------------ *)
(* Table 1: tool properties                                           *)
(* ------------------------------------------------------------------ *)

let table1 () =
  header "Table 1" "Properties of CCA identification tools";
  pf "%-18s" "Tool";
  List.iter (fun c -> pf " %-10s" (String.sub c 0 (min 10 (String.length c))))
    Baselines.Tool_properties.criteria;
  pf "\n";
  List.iter
    (fun tool ->
      pf "%-18s" tool.Baselines.Tool_properties.name;
      List.iter
        (fun c ->
          pf " %-10s" (if Baselines.Tool_properties.property tool c then "yes" else "-"))
        Baselines.Tool_properties.criteria;
      pf "\n")
    Baselines.Tool_properties.tools;
  pf "(CAAI's missing metric and Gordon's hostility are demonstrated by\n";
  pf " the CAAI burst experiment and Table 9 below.)\n"

(* ------------------------------------------------------------------ *)
(* Figure 1: cwnd vs BiF for two BBRs with different pacing gains     *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  header "Fig 1" "cwnd cannot tell two BBRs apart; BiF can (pacing gain 1.25 vs 1.5)";
  let profile = Nebby.Profile.delay_50ms in
  (* The paper's setup: two BBR versions with the SAME cwnd (it is only a
     safeguard) but different ProbeBW pacing gains. A pacing-only sender
     with a fixed window safeguard makes the contrast exact. *)
  let make_gain_cycler gain params =
    let mss = float_of_int params.Cca.mss in
    let base_rate = profile.Nebby.Profile.bandwidth in
    let state = ref (0.0, 0) in
    let on_ack (ev : Cca.ack_event) =
      let phase_end, idx = !state in
      if ev.now >= phase_end then state := (ev.now +. (8.0 *. ev.srtt /. 8.0), (idx + 1) mod 8)
    in
    let pacing_rate () =
      let _, idx = !state in
      let g = match idx with 0 -> gain | 1 -> 2.0 -. gain | _ -> 1.0 in
      Some (g *. base_rate)
    in
    {
      Cca.name = "bbr-gain";
      cwnd = (fun () -> 30.0 *. mss) (* the shared safeguard *);
      pacing_rate;
      snapshot =
        (fun () ->
          {
            Cca.snap_cwnd = 30.0 *. mss;
            snap_ssthresh = None;
            snap_pacing = pacing_rate ();
            snap_mode = "gain_cycle";
          });
      on_ack;
      on_loss = (fun _ -> ());
    }
  in
  let run gain =
    let result =
      Nebby.Testbed.run ~profile ~seed:!seed ~make_cca:(make_gain_cycler gain) ()
    in
    let prepared = Nebby.Measurement.prepare_result ~profile result in
    prepared.Nebby.Pipeline.smoothed
  in
  let bif_a = run 1.25 and bif_b = run 1.5 in
  let ripple xs =
    let n = Array.length xs in
    let win = 50 in
    if n < 2 * win then 0.0
    else begin
      let acc = ref 0.0 and count = ref 0 in
      for i = win to n - win - 1 do
        let m = ref 0.0 in
        for k = i - (win / 2) to i + (win / 2) do
          m := !m +. xs.(k)
        done;
        let m = !m /. float_of_int (win + 1) in
        if m > 1.0 then begin
          acc := !acc +. Float.abs ((xs.(i) -. m) /. m);
          incr count
        end
      done;
      if !count = 0 then 0.0 else !acc /. float_of_int !count
    end
  in
  pf "BiF  gain 1.25: %s\n" (sparkline bif_a);
  pf "BiF  gain 1.50: %s\n" (sparkline bif_b);
  pf "BiF probing ripple: gain 1.25 -> %.3f, gain 1.5 -> %.3f (ratio %.2f)\n"
    (ripple bif_a) (ripple bif_b)
    (ripple bif_b /. Float.max 1e-9 (ripple bif_a));
  pf "cwnd view: constant 7500 B for BOTH senders (the safeguard) -\n";
  pf "a cwnd-measuring tool cannot tell them apart; the BiF ripple can.\n"

(* ------------------------------------------------------------------ *)
(* Figure 3: BiF accuracy vs additional delay                         *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  header "Fig 3" "impact of the additional delay on BiF accuracy";
  let delays = [ 0.005; 0.010; 0.020; 0.030; 0.045; 0.065; 0.090; 0.120; 0.150 ] in
  pf "%-10s %8s %8s %8s\n" "delay(ms)" "cubic" "reno" "bbr";
  List.iter
    (fun d ->
      let acc cca =
        let p = Nebby.Profile.make ~extra_delay:d () in
        let accs =
          List.map
            (fun s ->
              let r =
                Nebby.Testbed.run ~profile:p ~seed:(!seed + s) ~noise:Netsim.Path.mild
                  ~make_cca:(Cca.Registry.create cca) ()
              in
              Nebby.Bif.accuracy
                ~estimate:(Nebby.Bif.estimate r.Nebby.Testbed.trace)
                ~truth:r.ground_truth_bif)
            [ 1; 2; 3 ]
        in
        100.0 *. (List.fold_left ( +. ) 0.0 accs /. 3.0)
      in
      pf "%-10.0f %7.1f%% %7.1f%% %7.1f%%\n%!" (d *. 1000.0) (acc "cubic") (acc "newreno")
        (acc "bbr"))
    delays;
  pf "paper: accuracy approaches its maximum beyond ~90 ms of added delay.\n"

(* ------------------------------------------------------------------ *)
(* Figure 4: BiF traces of every kernel CCA under both profiles       *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  header "Fig 4" "BiF traces of the kernel CCAs under the two network profiles";
  List.iter
    (fun name ->
      pf "%-9s 50ms  %s\n%!" name
        (trace_sparkline ~profile:Nebby.Profile.delay_50ms ~seed:!seed name);
      pf "%-9s 100ms %s\n%!" name
        (trace_sparkline ~profile:Nebby.Profile.delay_100ms ~seed:!seed name))
    (Cca.Registry.kernel_ccas @ [ "bbr2" ])

(* ------------------------------------------------------------------ *)
(* Table 2 + Figure 7: degree clusters and coefficient clusters       *)
(* ------------------------------------------------------------------ *)

let table2 () =
  header "Table 2 / Fig 7" "best-fit degree clusters and per-CCA feature clusters";
  let control = Lazy.force control in
  pf "%-10s %22s %10s\n" "CCA" "degree hist (1/2/3)" "dominant";
  List.iter
    (fun (name, hist) ->
      pf "%-10s %8d /%4d /%4d %10d\n" name hist.(0) hist.(1) hist.(2)
        (Nebby.Training.dominant_degree control name))
    control.Nebby.Training.degree_hist;
  pf "\nper-CCA cluster centers (first 3 shape dims):\n";
  List.iter
    (fun (name, vecs) ->
      match vecs with
      | [] -> ()
      | first :: _ ->
        let dims = min 3 (Array.length first) in
        let n = float_of_int (List.length vecs) in
        pf "%-10s" name;
        for d = 0 to dims - 1 do
          let mean = List.fold_left (fun a v -> a +. v.(d)) 0.0 vecs /. n in
          let var = List.fold_left (fun a v -> a +. ((v.(d) -. mean) ** 2.0)) 0.0 vecs /. n in
          pf "  %6.2f+-%-5.2f" mean (sqrt var)
        done;
        pf "\n")
    control.Nebby.Training.samples;
  pf "paper: the clusters are distinct enough for a GNB classifier (Fig 7).\n"

(* ------------------------------------------------------------------ *)
(* Table 3: confusion matrix over the 13 known CCAs                   *)
(* ------------------------------------------------------------------ *)

let table3 () =
  header "Table 3" (Printf.sprintf "classification confusion matrix (%d trials/CCA)" !trials);
  let control = Lazy.force control in
  let plugins = Nebby.Classifier.extended_plugins control in
  let ccas = Cca.Registry.kernel_ccas @ [ "bbr2" ] in
  let correct = ref 0 and total = ref 0 in
  pf "%-10s %9s  %s\n" "actual" "accuracy" "misclassifications";
  List.iter
    (fun name ->
      let tally = Hashtbl.create 8 in
      for i = 0 to !trials - 1 do
        let r =
          Nebby.Measurement.measure_cca ~control ~plugins ~seed:(!seed + 13 + (i * 101)) name
        in
        let label = r.Nebby.Measurement.label in
        Hashtbl.replace tally label (1 + Option.value ~default:0 (Hashtbl.find_opt tally label))
      done;
      let ok = Option.value ~default:0 (Hashtbl.find_opt tally name) in
      correct := !correct + ok;
      total := !total + !trials;
      let others =
        Hashtbl.fold
          (fun k v acc -> if k = name then acc else Printf.sprintf "%s:%d" k v :: acc)
          tally []
      in
      pf "%-10s %8.0f%%  %s\n%!" name
        (100.0 *. float_of_int ok /. float_of_int !trials)
        (String.concat " " others))
    ccas;
  pf "AVERAGE ACCURACY: %.1f%% (paper: 96.7%%)\n"
    (100.0 *. float_of_int !correct /. float_of_int !total)

(* ------------------------------------------------------------------ *)
(* Table 4 and Table 6: the Alexa-20k census over TCP and QUIC        *)
(* ------------------------------------------------------------------ *)

let census_table ~proto ~id ~title () =
  header id title;
  let control = Lazy.force control in
  let websites = Internet.Population.generate ~n:!sites ~seed:!seed () in
  let tallies =
    List.map
      (fun region ->
        pf "[measuring %d sites from %s ...]\n%!" !sites (Internet.Region.name region);
        (region, Internet.Census.run ~control ~proto ~region websites))
      Internet.Region.all
  in
  let labels =
    List.sort_uniq compare (List.concat_map (fun (_, t) -> List.map fst t) tallies)
  in
  let value region label =
    Option.value ~default:0 (List.assoc_opt label (List.assoc region tallies))
  in
  let labels =
    List.sort
      (fun a b -> compare (value Internet.Region.Ohio b) (value Internet.Region.Ohio a))
      labels
  in
  pf "\n(sampled %d sites; counts scaled to 20,000 for comparison)\n" !sites;
  pf "%-14s" "variant";
  List.iter (fun r -> pf " %14s" (Internet.Region.name r)) Internet.Region.all;
  pf "\n";
  List.iter
    (fun label ->
      pf "%-14s" label;
      List.iter
        (fun region ->
          let scaled = value region label * 20_000 / max 1 !sites in
          pf " %8d %4.1f%%" scaled
            (100.0 *. float_of_int (value region label) /. float_of_int !sites))
        Internet.Region.all;
      pf "\n")
    labels

let table4 () =
  census_table ~proto:Netsim.Packet.Tcp ~id:"Table 4"
    ~title:"distribution of CCA variants among the website population (TCP)" ();
  pf "paper: CUBIC ~41-44%%, BBRv1 6.4-13%% (lagging in Mumbai/Sao Paulo),\n";
  pf "       New Reno ~7-15%%, Unknown 17-38%% (worst in Sao Paulo).\n"

let table6 () =
  census_table ~proto:Netsim.Packet.Quic ~id:"Table 6"
    ~title:"distribution of QUIC CCA variants (unresponsive = no QUIC support)" ();
  pf "paper: ~91%% unresponsive; CUBIC and BBR roughly equal among responders.\n"

(* ------------------------------------------------------------------ *)
(* Table 5: heavy hitters                                             *)
(* ------------------------------------------------------------------ *)

let table5 () =
  header "Table 5" "CCAs deployed by the most popular websites (by traffic share)";
  let control = Lazy.force control in
  pf "%-16s %8s %-10s %-12s %s\n" "site" "traffic" "deployed" "measured" "agreement";
  List.iteri
    (fun i entry ->
      let site = Internet.Heavy_hitters.website_of_entry ~rank:(i + 1) entry in
      let label =
        Internet.Census.measure_site ~control ~proto:Netsim.Packet.Tcp
          ~region:Internet.Region.Ohio site
      in
      pf "%-16s %7.2f%% %-10s %-12s %s\n%!" entry.Internet.Heavy_hitters.site
        entry.traffic_share entry.cca label
        (if label = entry.cca then "yes" else "no"))
    Internet.Heavy_hitters.table5

(* ------------------------------------------------------------------ *)
(* Figure 8: amazon.com across regions                                *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  header "Fig 8" "amazon.com served with BBRv1 in Ohio but CUBIC in Mumbai";
  let control = Lazy.force control in
  let amazon =
    Internet.Heavy_hitters.website_of_entry ~rank:6
      (List.find
         (fun e -> e.Internet.Heavy_hitters.site = "amazon.com")
         Internet.Heavy_hitters.table5)
  in
  List.iter
    (fun region ->
      let truth = Internet.Website.cca_in amazon region in
      let label =
        Internet.Census.measure_site ~control ~proto:Netsim.Packet.Tcp ~region amazon
      in
      let sl =
        trace_sparkline ~profile:Nebby.Profile.delay_50ms
          ~noise:(Internet.Region.noise region) ~seed:!seed truth
      in
      pf "%-10s truth=%-6s measured=%-8s %s\n%!" (Internet.Region.name region) truth label sl)
    [ Internet.Region.Ohio; Internet.Region.Mumbai ]

(* ------------------------------------------------------------------ *)
(* Figure 9: catching BBRv3                                           *)
(* ------------------------------------------------------------------ *)

let fig9 () =
  header "Fig 9" "catching the deployment of BBRv3 (BBR-like, neither v1 nor v2)";
  let control = Lazy.force control in
  let plugins = Nebby.Classifier.extended_plugins control in
  List.iter
    (fun name ->
      pf "%-6s %s\n%!" name
        (trace_sparkline ~profile:Nebby.Profile.delay_50ms ~seed:!seed name))
    [ "bbr"; "bbr2"; "bbr3" ];
  let tally = Hashtbl.create 4 in
  for i = 0 to !trials - 1 do
    let r = Nebby.Measurement.measure_cca ~control ~plugins ~seed:(!seed + (i * 211)) "bbr3" in
    Hashtbl.replace tally r.Nebby.Measurement.label
      (1 + Option.value ~default:0 (Hashtbl.find_opt tally r.Nebby.Measurement.label))
  done;
  pf "bbr3 measurements: %s\n"
    (String.concat " " (Hashtbl.fold (fun k v a -> Printf.sprintf "%s:%d" k v :: a) tally []));
  pf "paper: google domains measured as a BBR variant that is neither v1 nor\n";
  pf "       v2, inferred (and later confirmed) to be BBRv3.\n"

(* ------------------------------------------------------------------ *)
(* Figure 10 + extension: AkamaiCC                                    *)
(* ------------------------------------------------------------------ *)

let fig10 () =
  header "Fig 10 / 4.3" "the undocumented AkamaiCC: blocky traces, 10-20 s back-offs";
  let control = Lazy.force control in
  List.iter
    (fun seed_off ->
      pf "akamai#%d %s\n%!" seed_off
        (trace_sparkline ~profile:Nebby.Profile.delay_50ms ~seed:(!seed + seed_off) "akamai_cc"))
    [ 1; 2 ];
  let count plugins =
    let ok = ref 0 in
    for i = 0 to !trials - 1 do
      let r =
        Nebby.Measurement.measure ~control ~plugins ~seed:(!seed + (i * 17))
          ~make_cca:(Cca.Registry.create "akamai_cc") ()
      in
      if r.Nebby.Measurement.label = "akamai_cc" then incr ok
    done;
    !ok
  in
  pf "identified with the original 2 classifiers: %d/%d\n%!"
    (count (Nebby.Classifier.default_plugins control))
    !trials;
  pf "identified with the AkamaiCC plugin added:  %d/%d\n%!"
    (count (Nebby.Classifier.extended_plugins control))
    !trials;
  pf "paper: all known Akamai-hosted websites (~6%%) identified once the\n";
  pf "       pluggable classifier is added.\n"

(* ------------------------------------------------------------------ *)
(* Table 7: QUIC stack confusion                                      *)
(* ------------------------------------------------------------------ *)

let table7 () =
  let t = max 6 (!trials / 2) in
  header "Table 7 / Table 10" (Printf.sprintf "QUIC CCA implementations (%d trials each)" t);
  let control = Lazy.force control in
  let plugins = Nebby.Classifier.extended_plugins control in
  let correct_total = ref 0 and n_total = ref 0 in
  pf "%-12s %-10s %-8s %6s %9s  %s\n" "organization" "stack" "cca" "conf." "accuracy" "misses";
  List.iter
    (fun impl ->
      let tally = Hashtbl.create 4 in
      for i = 0 to t - 1 do
        let r =
          Nebby.Measurement.measure ~control ~plugins ~proto:Netsim.Packet.Quic
            ~seed:(!seed + (i * 37))
            ~make_cca:impl.Internet.Quic_stack.make ()
        in
        Hashtbl.replace tally r.Nebby.Measurement.label
          (1 + Option.value ~default:0 (Hashtbl.find_opt tally r.Nebby.Measurement.label))
      done;
      let ok =
        Option.value ~default:0 (Hashtbl.find_opt tally impl.Internet.Quic_stack.cca)
      in
      correct_total := !correct_total + ok;
      n_total := !n_total + t;
      let others =
        Hashtbl.fold
          (fun k v acc ->
            if k = impl.Internet.Quic_stack.cca then acc else Printf.sprintf "%s:%d" k v :: acc)
          tally []
      in
      pf "%-12s %-10s %-8s %6.2f %8.0f%%  %s\n%!" impl.organization impl.stack impl.cca
        impl.conformance
        (100.0 *. float_of_int ok /. float_of_int t)
        (String.concat " " others))
    Internet.Quic_stack.all;
  pf "AVERAGE: %.1f%% (paper: 92.8%%, with non-conformant stacks lowest)\n"
    (100.0 *. float_of_int !correct_total /. float_of_int !n_total)

(* ------------------------------------------------------------------ *)
(* Table 8: browser / streaming services                              *)
(* ------------------------------------------------------------------ *)

let table8 () =
  header "Table 8" "CCAs serving streaming services via the browser client";
  let control = Lazy.force control in
  pf "%-12s %-8s %-20s %-20s %-20s\n" "service" "region" "activity" "video: got (truth)"
    "static: got (truth)";
  List.iteri
    (fun i svc ->
      let flows = Internet.Browser.measure_service ~control ~seed:(!seed + (i * 7)) svc in
      let find kind =
        match List.find_opt (fun (f : Internet.Browser.flow_report) -> f.asset = kind) flows with
        | Some f -> Printf.sprintf "%s (%s)" f.label f.truth
        | None -> "-"
      in
      pf "%-12s %-8s %-20s %-20s %-20s\n%!" svc.Internet.Heavy_hitters.service
        svc.region_of_popularity svc.activity
        (find Internet.Browser.Video)
        (find Internet.Browser.Static))
    Internet.Heavy_hitters.table8;
  let c =
    Internet.Browser.shared_bottleneck ~profile:Nebby.Profile.delay_50ms ~seed:!seed
      ~cca_a:"bbr" ~cca_b:"cubic" ()
  in
  pf "\ninter-flow interaction (single shared bottleneck, paper 4.5):\n";
  pf "  %-6s video flow: %6.1f kB/s | %-6s ad flow: %6.1f kB/s | fair share %.1f kB/s\n"
    c.flow_a (c.throughput_a /. 1000.0) c.flow_b (c.throughput_b /. 1000.0)
    (c.fair_share /. 1000.0);
  pf "paper: the CUBIC ad flow degrades the long-running BBR video flow.\n"

(* ------------------------------------------------------------------ *)
(* Table 9: replicating Gordon in 2023                                *)
(* ------------------------------------------------------------------ *)

let table9 () =
  header "Table 9" "running Gordon against the 2023 population (Appendix A)";
  let control = Lazy.force control in
  let n = max 200 !sites in
  let websites = Internet.Population.generate ~n ~seed:!seed () in
  let tally = Baselines.Gordon.survey ~control ~region:Internet.Region.Singapore websites in
  let total = List.fold_left (fun acc (_, v) -> acc + v) 0 tally in
  pf "%-16s %8s %8s %10s\n" "outcome" "sites" "share" "paper";
  let paper =
    [ ("short_flow", 62.8); ("unresponsive", 18.8); ("unknown", 14.3); ("cubic", 2.1);
      ("bbr", 0.9); ("ctcp_illinois", 0.6); ("reno_hstcp", 0.5) ]
  in
  List.iter
    (fun (label, v) ->
      pf "%-16s %8d %7.1f%% %9s\n" label v
        (100.0 *. float_of_int v /. float_of_int total)
        (match List.assoc_opt label paper with
        | Some p -> Printf.sprintf "%.1f%%" p
        | None -> "-"))
    tally;
  let identified =
    List.fold_left
      (fun acc (label, v) ->
        if List.mem label [ "cubic"; "bbr"; "ctcp_illinois"; "reno_hstcp" ] then acc + v else acc)
      0 tally
  in
  pf "identified: %.1f%% (paper: ~4%%) - Gordon's hostile probing is blocked.\n"
    (100.0 *. float_of_int identified /. float_of_int total)

(* ------------------------------------------------------------------ *)
(* Figure 11 / Appendix D: Copa and Vivace extensions                 *)
(* ------------------------------------------------------------------ *)

let fig11 () =
  header "Fig 11 / App D" "extending the classifier to Copa and PCC Vivace";
  let control = Lazy.force control in
  let plugins = Nebby.Classifier.extended_plugins control in
  List.iter
    (fun name ->
      pf "%-7s %s\n%!" name
        (trace_sparkline ~profile:Nebby.Profile.delay_100ms ~seed:!seed name))
    [ "copa"; "vivace" ];
  List.iter
    (fun (name, paper_acc) ->
      let ok = ref 0 in
      for i = 0 to !trials - 1 do
        let r = Nebby.Measurement.measure_cca ~control ~plugins ~seed:(!seed + (i * 211)) name in
        if r.Nebby.Measurement.label = name then incr ok
      done;
      pf "%-7s classified %d/%d (%.0f%%; paper: %.0f%%)\n%!" name !ok !trials
        (100.0 *. float_of_int !ok /. float_of_int !trials)
        paper_acc)
    [ ("copa", 88.0); ("vivace", 58.0) ]

(* ------------------------------------------------------------------ *)
(* Table 11: the CCA evolution summary                                *)
(* ------------------------------------------------------------------ *)

let table11 () =
  header "Table 11" "evolution of the congestion control landscape (App. E)";
  let control = Lazy.force control in
  let websites = Internet.Population.generate ~n:!sites ~seed:!seed () in
  let merged = Hashtbl.create 16 in
  List.iter
    (fun region ->
      pf "[census from %s ...]\n%!" (Internet.Region.name region);
      List.iter
        (fun (label, v) ->
          Hashtbl.replace merged label
            (v + Option.value ~default:0 (Hashtbl.find_opt merged label)))
        (Internet.Census.run ~control ~proto:Netsim.Packet.Tcp ~region websites))
    Internet.Region.all;
  let ours =
    Internet.Census_history.snapshot_of_census ~total_hosts:(5 * !sites)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) merged [])
  in
  let columns = Internet.Census_history.historical @ [ ours ] in
  pf "\n%-16s" "class";
  List.iter (fun s -> pf " %9d" s.Internet.Census_history.year) columns;
  pf "\n";
  List.iter
    (fun cls ->
      pf "%-16s" cls;
      List.iter
        (fun snap ->
          match List.assoc_opt cls snap.Internet.Census_history.shares with
          | Some share -> pf " %8.1f%%" share
          | None -> pf " %9s" "-")
        columns;
      pf "\n")
    Internet.Census_history.classes;
  pf "(2023 column regenerated from this repository's census, regions summed)\n"

(* ------------------------------------------------------------------ *)
(* Paper 3.2: QUIC BiF estimate validation                            *)
(* ------------------------------------------------------------------ *)

let quic_bif () =
  header "3.2" "accuracy of the encrypted (QUIC) BiF estimator vs socket logs";
  List.iter
    (fun cca ->
      let accs =
        List.map
          (fun s ->
            let r =
              Nebby.Testbed.run_cca ~profile:Nebby.Profile.delay_50ms
                ~proto:Netsim.Packet.Quic ~seed:(!seed + s) ~noise:Netsim.Path.mild cca
            in
            Nebby.Bif.accuracy
              ~estimate:(Nebby.Bif.estimate r.Nebby.Testbed.trace)
              ~truth:r.ground_truth_bif)
          [ 1; 2; 3; 4; 5 ]
      in
      pf "%-8s mean %.1f%% over 5 trials\n%!" cca
        (100.0 *. (List.fold_left ( +. ) 0.0 accs /. 5.0)))
    [ "bbr"; "cubic"; "newreno" ];
  pf "paper: > 97%% for quiche on lightly loaded real paths; rate-based\n";
  pf "       senders match that here, loss-heavy AIMD senders trail it\n";
  pf "       because retransmissions are invisible under encryption.\n"

(* ------------------------------------------------------------------ *)
(* CAAI burst experiment (background, 2.1)                            *)
(* ------------------------------------------------------------------ *)

let caai () =
  header "2/2.1" "why delayed-ACK tools (CAAI) broke: paced senders do not burst";
  pf "%-10s %12s\n" "CCA" "burst/cwnd";
  List.iter
    (fun cca ->
      let r = Baselines.Caai.measure cca in
      pf "%-10s %11.2f  %s\n%!" cca r.Baselines.Caai.burst_ratio
        (if r.burst_ratio >= 0.6 then "measurable by CAAI" else "invisible to CAAI"))
    [ "newreno"; "cubic"; "vegas"; "bbr" ]

(* ------------------------------------------------------------------ *)
(* Ablations: what each design choice of 2.1/3 buys                   *)
(* ------------------------------------------------------------------ *)

let ablation () =
  header "Ablations" "what the paper's design choices buy (DESIGN.md index)";
  let t = max 6 (!trials / 2) in
  let ccas = Cca.Registry.kernel_ccas @ [ "bbr2" ] in
  let accuracy ?profiles ?transform ?smoothen control =
    let plugins = Nebby.Classifier.extended_plugins control in
    let ok = ref 0 in
    List.iter
      (fun name ->
        for i = 0 to t - 1 do
          let r =
            Nebby.Measurement.measure ~control ~plugins ?profiles ?transform ?smoothen
              ~seed:(!seed + 13 + (i * 101))
              ~make_cca:(Cca.Registry.create name) ()
          in
          if r.Nebby.Measurement.label = name then incr ok
        done)
      ccas;
    100.0 *. float_of_int !ok /. float_of_int (t * List.length ccas)
  in
  let baseline = accuracy (Lazy.force control) in
  pf "baseline (BiF, 2 profiles, smoothening):      %5.1f%%\n%!" baseline;

  (* A1: a single network profile (3.3: two are needed to separate
     look-alikes such as NewReno/Illinois/HSTCP) *)
  let single = [ Nebby.Profile.delay_50ms ] in
  let control_1p = Nebby.Training.train ~seed:!seed ~profiles:single () in
  pf "single profile (50 ms only):                  %5.1f%%\n%!"
    (accuracy ~profiles:single control_1p);

  (* A2: the cwnd metric (2.1: one point per RTT, upper envelope - what
     Gordon and Inspector Gadget measure); trained on the same view *)
  let cwnd_style = Baselines.Gordon.cwnd_style in
  let control_cwnd = Nebby.Training.train ~seed:!seed ~transform:cwnd_style () in
  pf "cwnd-style metric (per-RTT envelope):         %5.1f%%\n%!"
    (accuracy ~transform:cwnd_style control_cwnd);

  (* A3: no FFT smoothening (3.4 step 1) under noisy vantage conditions *)
  pf "no smoothening (same model, raw traces):      %5.1f%%\n%!"
    (accuracy ~smoothen:false (Lazy.force control));
  pf "paper: BiF beats cwnd for rate-based CCAs (2.1); the second profile\n";
  pf "       separates NewReno-like CCAs (3.3); smoothening removes\n";
  pf "       sub-RTT network noise before segmentation (3.4).\n"

(* ------------------------------------------------------------------ *)
(* Chaos: accuracy degradation under the standard fault suite         *)
(* ------------------------------------------------------------------ *)

let chaos () =
  header "Chaos" "classification accuracy degradation under fault injection";
  let control = Lazy.force control in
  let ccas = Cca.Registry.kernel_ccas @ [ "bbr2" ] in
  let config = { Nebby.Measurement.default_config with max_attempts = 3 } in
  let before = Unix.gettimeofday () in
  let matrix = Nebby.Chaos.run_matrix ~ccas ~config ~seed:!seed ~control () in
  let elapsed = Unix.gettimeofday () -. before in
  pf "%s" (Nebby.Chaos.render matrix);
  let cells =
    List.fold_left
      (fun acc (r : Nebby.Chaos.row) -> acc + List.length r.Nebby.Chaos.cells)
      (List.length matrix.Nebby.Chaos.baseline.Nebby.Chaos.cells)
      matrix.Nebby.Chaos.rows
  in
  pf "\n[%d measurements in %.1f s; every fault ends in a classification or a\n" cells elapsed;
  pf " typed unknown with a reason chain - the harness never raises]\n"

(* ------------------------------------------------------------------ *)
(* Engine: multicore census — serial vs parallel                      *)
(* ------------------------------------------------------------------ *)

let engine () =
  header "Engine" "multicore census: serial vs parallel wall-clock";
  let control = Lazy.force control in
  let region = Internet.Region.Ohio and proto = Netsim.Packet.Tcp in
  let websites = Internet.Population.generate ~n:!sites ~seed:!seed () in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let serial, serial_s =
    time (fun () -> Internet.Census.run ~jobs:1 ~control ~proto ~region websites)
  in
  let jobs = 4 in
  let parallel, parallel_s =
    time (fun () -> Internet.Census.run ~jobs ~control ~proto ~region websites)
  in
  let cores = Domain.recommended_domain_count () in
  let speedup = serial_s /. Float.max 1e-9 parallel_s in
  pf "census over %d sites (%s, %s vantage), %d core(s) available:\n" !sites "tcp"
    (Internet.Region.name region) cores;
  pf "  serial   (jobs=1): %7.2f s\n" serial_s;
  pf "  parallel (jobs=%d): %7.2f s  -> speedup %.2fx\n" jobs parallel_s speedup;
  if serial <> parallel then failwith "engine: parallel census diverged from serial";
  pf "  tallies bit-identical across worker counts: yes\n";
  (* decision-provenance overhead: the same census with verdict-report
     construction on. Both runs go through the per-stage profiler (worker
     profiles are merged into the caller's at join) so the comparison is
     symmetric and the wall clocks carry identical instrumentation. *)
  let (labels_only, _), labels_s =
    time (fun () ->
        Obs.Prof.record (fun () ->
            Internet.Census.labels ~jobs ~control ~proto ~region websites))
  in
  let (explained, explained_profile), explained_s =
    time (fun () ->
        Obs.Prof.record (fun () ->
            Internet.Census.explained ~jobs ~control ~proto ~region websites))
  in
  if
    List.map (fun (s, l) -> (s.Internet.Website.name, l)) labels_only
    <> List.map
         (fun (s, r) -> (s.Internet.Website.name, r.Nebby.Measurement.label))
         explained
  then failwith "engine: explained census diverged from the label-only census";
  let overhead = (explained_s -. labels_s) /. Float.max 1e-9 labels_s in
  pf "  provenance: labels-only %.2f s -> explained %.2f s (overhead %+.1f%%)\n" labels_s
    explained_s (100.0 *. overhead);
  pf "%s" (Obs.Prof.render explained_profile);
  (* flight-recorder overhead: the label-only census with the recorder
     off vs on (its always-on default), min of two runs each side to
     shave scheduler noise. Serial on purpose: on a single-core host a
     multi-domain run is dominated by scheduler jitter, which would
     drown the recorder's cost. The design budget is <3%; tools/check.sh
     gates the recorded fraction at 5%. *)
  let labels_run () =
    ignore (Internet.Census.labels ~jobs:1 ~control ~proto ~region websites)
  in
  (* Seven back-to-back off/on pairs with alternating order; the
     recorded overhead is the *median of the per-pair ratios*. The two
     runs of a pair share the host's momentary conditions, so each
     ratio is an apples-to-apples comparison even when the host slows
     down 2x between pairs; the median then discards the pairs that an
     interference burst split down the middle, and alternating order
     cancels heap-drift bias. CPU time, not wall clock: the run is
     serial and single-threaded, and on a shared host scheduler
     preemption swings wall clock by far more than the recorder's own
     cost. *)
  let cpu_time f =
    let t0 = Sys.time () in
    f ();
    Sys.time () -. t0
  in
  labels_run ();
  let timed enabled =
    Obs.Flight.set_enabled enabled;
    cpu_time labels_run
  in
  let pairs =
    List.init 7 (fun pair ->
        if pair mod 2 = 0 then
          let off = timed false in
          let on = timed true in
          (off, on)
        else
          let on = timed true in
          let off = timed false in
          (off, on))
  in
  Obs.Flight.set_enabled true;
  let median xs =
    let sorted = List.sort compare xs in
    List.nth sorted (List.length sorted / 2)
  in
  let flight_off_s = median (List.map fst pairs) in
  let flight_on_s = median (List.map snd pairs) in
  let flight_overhead =
    median (List.map (fun (off, on) -> (on -. off) /. Float.max 1e-9 off) pairs)
  in
  pf "  flight recorder: off %.2f s -> on %.2f s (overhead %+.1f%%)\n" flight_off_s
    flight_on_s (100.0 *. flight_overhead);
  record_json_f "census_labels_s" labels_s;
  record_json_f "census_explained_s" explained_s;
  record_json_f "census_provenance_overhead_frac" overhead;
  record_json "census_sites" (string_of_int !sites);
  record_json "cores" (string_of_int cores);
  record_json "jobs" (string_of_int jobs);
  record_json_f "census_serial_s" serial_s;
  (* On a single-core host the parallel run measures only domain
     bookkeeping, so its wall clock and the speedup are noise: record
     null for both (the baseline gate's float lookup skips them — the
     gate is skipped *explicitly*, not tripped by a phantom slowdown),
     keep the jobs=1 measurement, and derive the throughput floor from
     the serial path instead. *)
  if cores < 2 then begin
    record_json "census_parallel_s" "null";
    record_json "census_parallel_note"
      "\"single-core host: parallel wall clock is domain bookkeeping; gate skipped\"";
    record_json_f "census_sites_per_s" (float_of_int !sites /. Float.max 1e-9 serial_s);
    record_json "census_speedup" "null";
    record_json "census_speedup_note" "\"single-core host: speedup not meaningful\""
  end
  else begin
    record_json_f "census_parallel_s" parallel_s;
    (* the throughput the campaign gate floors: measured sites per wall
       second on the parallel path *)
    record_json_f "census_sites_per_s" (float_of_int !sites /. Float.max 1e-9 parallel_s);
    record_json_f "census_speedup" speedup
  end;
  record_json_f "census_flight_off_s" flight_off_s;
  record_json_f "census_flight_on_s" flight_on_s;
  record_json_f "census_flight_overhead_frac" flight_overhead;
  (* scheduler deep-dive: one traced parallel run for the pool metrics
     (untimed — tracing must not perturb the wall clocks above), then
     the tracing-overhead gate with the same paired-median method as
     the flight recorder's. *)
  Obs.Pooltrace.set_enabled true;
  ignore (Internet.Census.run ~jobs ~control ~proto ~region websites);
  Obs.Pooltrace.set_enabled false;
  let trace = Obs.Pooltrace.drain () in
  let psum = Obs.Pooltrace.summarize trace in
  let wait_p99 = Obs.Histogram.quantile psum.Obs.Pooltrace.s_wait_us 0.99 in
  let steal_frac =
    float_of_int psum.Obs.Pooltrace.s_steals
    /. float_of_int (max 1 psum.Obs.Pooltrace.s_tasks)
  in
  let busy = List.map (fun d -> d.Obs.Pooltrace.d_busy_frac) psum.Obs.Pooltrace.s_domains in
  let busy_mean =
    match busy with
    | [] -> 0.0
    | _ -> List.fold_left ( +. ) 0.0 busy /. float_of_int (List.length busy)
  in
  pf "  pool: %d tasks, %d steal(s) (%.1f%%), queue-wait p99 %.0f us, busy frac %s\n"
    psum.Obs.Pooltrace.s_tasks psum.Obs.Pooltrace.s_steals (100.0 *. steal_frac)
    (if Float.is_nan wait_p99 then 0.0 else wait_p99)
    (String.concat "/" (List.map (Printf.sprintf "%.2f") busy));
  let timed_trace enabled =
    Obs.Pooltrace.set_enabled enabled;
    let t = cpu_time labels_run in
    Obs.Pooltrace.set_enabled false;
    ignore (Obs.Pooltrace.drain ());
    t
  in
  let trace_pairs =
    List.init 7 (fun pair ->
        if pair mod 2 = 0 then
          let off = timed_trace false in
          let on = timed_trace true in
          (off, on)
        else
          let on = timed_trace true in
          let off = timed_trace false in
          (off, on))
  in
  let trace_off_s = median (List.map fst trace_pairs) in
  let trace_on_s = median (List.map snd trace_pairs) in
  let trace_overhead =
    median (List.map (fun (off, on) -> (on -. off) /. Float.max 1e-9 off) trace_pairs)
  in
  pf "  pool tracing: off %.2f s -> on %.2f s (overhead %+.1f%%; budget 5%%)\n" trace_off_s
    trace_on_s (100.0 *. trace_overhead);
  record_json "pool_tasks" (string_of_int psum.Obs.Pooltrace.s_tasks);
  record_json_f "pool_queue_wait_p99_us" (if Float.is_nan wait_p99 then 0.0 else wait_p99);
  (* the conservative companion: the p99 bucket's upper bound (what the
     interpolated estimate is guaranteed not to exceed) *)
  let wait_p99_ub = Obs.Histogram.quantile_ub psum.Obs.Pooltrace.s_wait_us 0.99 in
  record_json_f "pool_queue_wait_p99_us_ub"
    (if Float.is_nan wait_p99_ub then 0.0 else wait_p99_ub);
  record_json_f "pool_steal_frac" steal_frac;
  record_json "pool_busy_frac"
    (Printf.sprintf "[%s]" (String.concat ", " (List.map (Printf.sprintf "%.6f") busy)));
  record_json_f "pool_busy_frac_mean" busy_mean;
  record_json_f "census_trace_off_s" trace_off_s;
  record_json_f "census_trace_on_s" trace_on_s;
  record_json_f "census_trace_overhead_frac" trace_overhead;
  pf "(speedup scales with physical cores; on a single-core host the parallel\n";
  pf " run only pays the domain bookkeeping)\n"

(* ------------------------------------------------------------------ *)
(* Serve: continuous census — commit throughput, journal replay       *)
(* ------------------------------------------------------------------ *)

let serve () =
  header "Serve" "continuous census: commit throughput, journal replay and compaction";
  let control = Lazy.force control in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let store = Filename.temp_file "bench_serve" ".journal" in
  let cfg =
    {
      Serve.Service.default_config with
      sites = min !sites 16;
      seed = !seed;
      jobs = 4;
      epochs = 1;
    }
  in
  let summary, serve_s = time (fun () -> Serve.Service.run ~control ~config:cfg ~store) in
  Sys.remove store;
  let jobs_per_s =
    float_of_int summary.Serve.Service.measured /. Float.max 1e-9 serve_s
  in
  pf "service epoch over %d sites (jobs=%d): %.2f s -> %.1f commits/s\n"
    cfg.Serve.Service.sites cfg.Serve.Service.jobs serve_s jobs_per_s;
  (* replay: reopening a large store is the cost a restarted service pays
     before its first measurement, so it is a guarded ceiling *)
  let replay_store = Filename.temp_file "bench_replay" ".journal" in
  let j = Engine.Journal.open_ replay_store in
  let records = 20_000 in
  for i = 0 to records - 1 do
    Engine.Journal.put j
      ~key:(Printf.sprintf "e0|%05d:site-%05d.example|Ohio|tcp|0123456789abcdef" i i)
      ~value:
        "{\"label\":\"cubic\",\"confidence\":0.93,\"margin\":3.1,\"attempts\":1,\"failures\":[]}"
  done;
  Engine.Journal.close j;
  let j, replay_s = time (fun () -> Engine.Journal.open_ replay_store) in
  if Engine.Journal.length j <> records then failwith "serve: replay lost records";
  let (), compact_s = time (fun () -> Engine.Journal.compact j) in
  Engine.Journal.close j;
  Sys.remove replay_store;
  pf "journal replay of %d records: %.3f s; compaction: %.3f s\n" records replay_s
    compact_s;
  (* alert-engine overhead: the same small serve workload with the full
     default rule set armed vs disarmed, alternating order, median of
     per-pair CPU-time ratios (same method and rationale as the
     flight-recorder gate). Drift-ledger folding runs in both arms —
     it is unconditional — so this isolates exactly what --alerts
     adds. Budget: 5%. *)
  let cpu_time f =
    let t0 = Sys.time () in
    f ();
    Sys.time () -. t0
  in
  let median xs =
    let sorted = List.sort compare xs in
    List.nth sorted (List.length sorted / 2)
  in
  let alert_run armed =
    let store = Filename.temp_file "bench_alert" ".journal" in
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists store then Sys.remove store)
      (fun () ->
        cpu_time (fun () ->
            ignore
              (Serve.Service.run ~control
                 ~config:
                   {
                     cfg with
                     Serve.Service.sites = min !sites 8;
                     epochs = 2;
                     alert_rules = (if armed then Serve.Alerts.default_rules else []);
                   }
                 ~store)))
  in
  let alert_pairs =
    List.init 3 (fun pair ->
        if pair mod 2 = 0 then
          let off = alert_run false in
          let on = alert_run true in
          (off, on)
        else
          let on = alert_run true in
          let off = alert_run false in
          (off, on))
  in
  let alert_off_s = median (List.map fst alert_pairs) in
  let alert_on_s = median (List.map snd alert_pairs) in
  let alert_overhead =
    median (List.map (fun (off, on) -> (on -. off) /. Float.max 1e-9 off) alert_pairs)
  in
  pf "alert engine: off %.2f s -> on %.2f s (overhead %+.1f%%; budget 5%%)\n" alert_off_s
    alert_on_s (100.0 *. alert_overhead);
  record_json "serve_sites" (string_of_int cfg.Serve.Service.sites);
  record_json "serve_measured" (string_of_int summary.Serve.Service.measured);
  record_json_f "serve_epoch_s" serve_s;
  record_json_f "serve_jobs_per_s" jobs_per_s;
  record_json_f "serve_alert_off_s" alert_off_s;
  record_json_f "serve_alert_on_s" alert_on_s;
  record_json_f "serve_alert_overhead_frac" alert_overhead;
  record_json "journal_records" (string_of_int records);
  record_json_f "journal_replay_s" replay_s;
  record_json_f "journal_compact_s" compact_s

(* ------------------------------------------------------------------ *)
(* Adversarial search throughput (lib/search)                         *)
(* ------------------------------------------------------------------ *)

let fuzz () =
  header "Fuzz" "coverage-guided adversarial search: evaluation throughput";
  let control = Lazy.force control in
  let config =
    {
      Search.Fuzzer.default_config with
      Search.Fuzzer.budget = 32;
      jobs = 4;
      targets = [ "cubic"; "vegas"; "yeah" ];
    }
  in
  let t0 = Unix.gettimeofday () in
  let result = Search.Fuzzer.run ~control ~config ~seed:!seed () in
  let fuzz_s = Unix.gettimeofday () -. t0 in
  let total = result.Search.Fuzzer.evals + result.Search.Fuzzer.minimize_evals in
  let evals_per_s = float_of_int total /. Float.max 1e-9 fuzz_s in
  pf "%d evaluations (%d search + %d minimizing) in %.2f s -> %.1f evals/s\n"
    total result.Search.Fuzzer.evals result.Search.Fuzzer.minimize_evals fuzz_s
    evals_per_s;
  pf "corpus %d novel signatures, %d counterexample class(es) minimized\n"
    (List.length result.Search.Fuzzer.corpus)
    (List.length result.Search.Fuzzer.findings);
  record_json "fuzz_evals" (string_of_int total);
  record_json_f "fuzz_s" fuzz_s;
  record_json_f "fuzz_evals_per_s" evals_per_s;
  record_json "fuzz_corpus" (string_of_int (List.length result.Search.Fuzzer.corpus));
  record_json "fuzz_findings" (string_of_int (List.length result.Search.Fuzzer.findings))

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks (--perf)                                  *)
(* ------------------------------------------------------------------ *)

let perf () =
  let open Bechamel in
  let control = Lazy.force control in
  let profile = Nebby.Profile.delay_50ms in
  let result = Nebby.Testbed.run_cca ~profile ~seed:!seed "cubic" in
  let bif = Nebby.Bif.estimate result.Nebby.Testbed.trace in
  let prepared = Nebby.Pipeline.prepare ~rtt:(Nebby.Profile.rtt profile) bif in
  let plugins = Nebby.Classifier.extended_plugins control in
  let signal = Array.init 2048 (fun i -> sin (float_of_int i /. 10.0)) in
  let tests =
    Test.make_grouped ~name:"nebby"
      [
        Test.make ~name:"table3_measure_one_trace"
          (Staged.stage (fun () ->
               ignore (Nebby.Testbed.run_cca ~profile ~seed:!seed ~page_bytes:100_000 "cubic")));
        Test.make ~name:"table4_bif_estimate"
          (Staged.stage (fun () -> ignore (Nebby.Bif.estimate result.Nebby.Testbed.trace)));
        Test.make ~name:"fig4_pipeline_prepare"
          (Staged.stage (fun () ->
               ignore (Nebby.Pipeline.prepare ~rtt:(Nebby.Profile.rtt profile) bif)));
        Test.make ~name:"table2_feature_extraction"
          (Staged.stage (fun () ->
               ignore
                 (List.filter_map Nebby.Features.of_segment prepared.Nebby.Pipeline.segments)));
        Test.make ~name:"table3_classify"
          (Staged.stage (fun () ->
               ignore
                 (Nebby.Classifier.classify_measurement ~plugins ~control
                    [ (profile.Nebby.Profile.name, prepared) ])));
        Test.make ~name:"fig7_fft_lowpass"
          (Staged.stage (fun () -> ignore (Sigproc.Fft.lowpass ~dt:0.02 ~cutoff:8.0 signal)));
      ]
  in
  let benchmark () =
    let quota = Time.second 0.5 in
    let cfg = Benchmark.cfg ~limit:2000 ~quota ~kde:(Some 1000) () in
    Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests
  in
  let raw_results = benchmark () in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw_results
  in
  pf "\nmicrobenchmarks (ns per run, OLS over the monotonic clock):\n";
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some (est :: _) -> pf "  %-32s %12.1f ns\n" name est
      | Some [] | None -> pf "  %-32s (no estimate)\n" name)
    results

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", table1);
    ("fig1", fig1);
    ("fig3", fig3);
    ("fig4", fig4);
    ("table2", table2);
    ("fig7", table2);
    ("table3", table3);
    ("quic_bif", quic_bif);
    ("caai", caai);
    ("table4", table4);
    ("table5", table5);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("table6", table6);
    ("table7", table7);
    ("table8", table8);
    ("table9", table9);
    ("fig11", fig11);
    ("table11", table11);
    ("ablation", ablation);
    ("chaos", chaos);
    ("engine", engine);
    ("serve", serve);
    ("fuzz", fuzz);
  ]

let order = List.mapi (fun i (name, _) -> (name, i)) experiments

let () =
  (* arm the obs runtime so spans/metrics record for the per-stage breakdown *)
  Obs.Runtime.arm ();
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse selected = function
    | [] -> List.rev selected
    | "--sites" :: n :: rest ->
      sites := int_of_string n;
      parse selected rest
    | "--trials" :: n :: rest ->
      trials := int_of_string n;
      parse selected rest
    | "--seed" :: n :: rest ->
      seed := int_of_string n;
      parse selected rest
    | "--seeds" :: n :: rest ->
      seeds_count := Some (int_of_string n);
      parse selected rest
    | "--seed-list" :: s :: rest ->
      seed_list := Some (List.map int_of_string (String.split_on_char ',' s));
      parse selected rest
    | "--history" :: rest ->
      history_mode := true;
      parse selected rest
    | "--full" :: rest ->
      sites := 20_000;
      trials := 100;
      parse selected rest
    | "--training-runs" :: n :: rest ->
      training_runs := Some (int_of_string n);
      parse selected rest
    | "--json" :: f :: rest ->
      json_out := Some f;
      parse selected rest
    | "--runtest-s" :: x :: rest ->
      runtest_s := Some (float_of_string x);
      parse selected rest
    | "--baseline" :: rest ->
      baseline_mode := true;
      parse selected rest
    | "--tolerance" :: x :: rest ->
      tolerance := float_of_string x;
      parse selected rest
    | "--baseline-file" :: f :: rest ->
      baseline_file := f;
      parse selected rest
    | name :: rest -> parse (name :: selected) rest
  in
  let selected = parse [] args in
  if !history_mode then exit (history ())
  else if List.mem "--perf" selected then perf ()
  else begin
    let seeds =
      match
        Obs.Campaign.resolve_seeds ?count:!seeds_count ?seed_list:!seed_list ~base:!seed ()
      with
      | Ok seeds -> seeds
      | Error msg ->
        Printf.eprintf "bench: %s\n" msg;
        exit 2
    in
    (* a ledger holds one run's metrics; a multi-seed sweep would overwrite
       itself, so refuse rather than silently keep the last seed *)
    if List.length seeds > 1 && (!json_out <> None || !baseline_mode) then begin
      Printf.eprintf
        "bench: --seeds/--seed-list with more than one seed cannot write a single \
         --json/--baseline ledger; run one seed per ledger\n";
      exit 2
    end;
    let chosen = List.filter (fun s -> s <> "--perf") selected in
    let to_run =
      if chosen = [] then experiments
      else
        List.filter_map
          (fun name ->
            match List.assoc_opt name experiments with
            | Some f -> Some (name, f)
            | None ->
              pf "unknown experiment %s (available: %s)\n" name
                (String.concat " " (List.map fst experiments));
              None)
          chosen
    in
    let to_run =
      List.sort_uniq
        (fun (a, _) (b, _) -> compare (List.assoc a order) (List.assoc b order))
        to_run
    in
    Obs.Span.with_ ~name:"bench" (fun () ->
        List.iter
          (fun s ->
            seed := s;
            if List.length seeds > 1 then pf "\n=== seed %d ===\n" s;
            List.iter (fun (_, f) -> f ()) to_run)
          seeds);
    pf "\nper-stage time breakdown (obs spans):\n";
    pf "  %-10s %8s %10s %10s %10s %10s\n" "stage" "calls" "total(s)" "p50(s)" "p90(s)" "p99(s)";
    List.iter
      (fun stage ->
        match Obs.Histogram.find ("span." ^ stage) with
        | None -> pf "  %-10s %8s %10s %10s %10s %10s\n" stage "-" "-" "-" "-" "-"
        | Some h ->
          let p q = Obs.Histogram.quantile h q in
          pf "  %-10s %8d %10.2f %10.4f %10.4f %10.4f\n" stage (Obs.Histogram.count h)
            (Obs.Histogram.sum h) (p 0.50) (p 0.90) (p 0.99))
      [ "train"; "simulate"; "prepare"; "classify" ];
    pf "\n[all experiments done in %.0f s]\n" (span_total "bench");
    record_json_f "bench_total_s" (span_total "bench");
    Option.iter write_json !json_out;
    if !baseline_mode then begin
      let current = Printf.sprintf "BENCH_%s.json" (date_stamp ()) in
      write_json current;
      pf "\n[baseline gate: %s vs %s]\n" current !baseline_file;
      exit (check_baseline current)
    end
  end

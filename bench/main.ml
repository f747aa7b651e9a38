(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation against the simulated testbed (see DESIGN.md for the
   experiment index and EXPERIMENTS.md for paper-vs-measured results),
   plus the paired-run cost of each instrument (the overhead experiment).
   Throughput is measured by bench/perf, not here.

   Usage:
     dune exec bench/main.exe                   # every experiment, default scale
     dune exec bench/main.exe -- table3 fig9    # selected experiments
     dune exec bench/main.exe -- --sites 2000   # larger census samples
     dune exec bench/main.exe -- --trials 50    # more trials per CCA
     dune exec bench/main.exe -- overhead --json overhead.json *)

let sites = ref 250
let trials = ref 12
let seed = ref 20230601
let training_runs = ref None
let json_out = ref None

(* multi-seed sweeps: --seeds N / --seed-list a,b,c resolve through the
   same validator the campaign and chaos CLIs use, so the vocabulary and
   error messages match *)
let seeds_count = ref None
let seed_list = ref None

let pf = Printf.printf

(* a flat JSON object of already-measured numbers *)
let write_json path fields =
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "{\n%s\n}\n"
        (String.concat ",\n"
           (List.map (fun (k, v) -> Printf.sprintf "  \"%s\": %.6f" k v) fields)));
  pf "\n[bench JSON written to %s]\n" path

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

let control =
  lazy
    (pf "[training the classifier (control measurements, both transports) ...]\n%!";
     let before = Unix.gettimeofday () in
     let c = Nebby.Training.train ?runs_per_cca:!training_runs ~seed:!seed () in
     pf "[trained in %.1f s]\n\n%!" (Unix.gettimeofday () -. before);
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
(* Overhead: the CPU-time cost of each instrument, in paired runs     *)
(* ------------------------------------------------------------------ *)

(* [paired ~pairs ~off ~on] runs [off i] and [on i] back to back for
   each pair [i] below [pairs], alternating which side runs first, and
   returns each side's total CPU seconds and the median of the per-pair
   overheads [on / off - 1]. A pair is small (one site), so its two runs
   share the host's momentary speed. On a shared 2-vCPU host the CPU time
   of identical work drifts by up to 30% over seconds: pairs of whole
   16-site censuses put pool tracing, which is nearly free, anywhere from
   -9% to +14%, where per-site pairs stay within about 1%. The median
   discards the pairs an interference burst split, and alternating the
   order cancels warm-up and heap-drift bias. CPU time, not wall clock:
   every run is serial. *)
type paired = { off_s : float; on_s : float; frac : float }

let paired ~pairs ~off ~on =
  let cpu f i =
    let t0 = Sys.time () in
    f i;
    Sys.time () -. t0
  in
  let runs =
    List.init pairs (fun i ->
        if i mod 2 = 0 then
          let o = cpu off i in
          (o, cpu on i)
        else
          let n = cpu on i in
          (cpu off i, n))
  in
  let sum = List.fold_left ( +. ) 0.0 in
  let ratios = List.map (fun (o, n) -> (n -. o) /. Float.max 1e-9 o) runs in
  {
    off_s = sum (List.map fst runs);
    on_s = sum (List.map snd runs);
    frac = List.nth (List.sort Float.compare ratios) (pairs / 2);
  }

(* Sizes and pair count are fixed, not taken from --sites, so that each
   fraction's spread stays calibrated (EXPERIMENTS.md records it): pair
   [i] runs site [i / 2 mod overhead_sites], so every site runs once in
   each order per round. *)
let overhead_sites = 16
let overhead_pairs = 10 * overhead_sites

let overhead () =
  header "Overhead" "paired CPU-time cost of each instrument (serial runs)";
  let control = Lazy.force control in
  let region = Internet.Region.Ohio and proto = Netsim.Packet.Tcp in
  let websites =
    Array.of_list (Internet.Population.generate ~n:overhead_sites ~seed:!seed ())
  in
  let site i = i / 2 mod overhead_sites in
  let labels i =
    ignore (Internet.Census.labels ~jobs:1 ~control ~proto ~region [ websites.(site i) ])
  in
  let explained i =
    ignore (Internet.Census.explained ~jobs:1 ~control ~proto ~region [ websites.(site i) ])
  in
  (* one warm-up of each side, which must also agree on every label *)
  let all = Array.to_list websites in
  if
    List.map (fun (s, l) -> (s.Internet.Website.name, l))
      (Internet.Census.labels ~jobs:1 ~control ~proto ~region all)
    <> List.map
         (fun (s, r) -> (s.Internet.Website.name, r.Nebby.Measurement.label))
         (Internet.Census.explained ~jobs:1 ~control ~proto ~region all)
  then failwith "overhead: explained census diverged from the label-only census";
  let measure name ~off ~on =
    let r = paired ~pairs:overhead_pairs ~off ~on in
    pf "  %-16s off %6.2f s -> on %6.2f s  (median overhead %+.1f%%)\n" name r.off_s r.on_s
      (100.0 *. r.frac);
    r
  in
  pf "%d per-site off/on pairs over a %d-site census (CPU seconds summed per side):\n"
    overhead_pairs overhead_sites;
  (* the flight recorder is on by default; off is the bare census *)
  let flight =
    measure "flight recorder"
      ~off:(fun i ->
        Obs.Flight.set_enabled false;
        labels i)
      ~on:(fun i ->
        Obs.Flight.set_enabled true;
        labels i)
  in
  Obs.Flight.set_enabled true;
  let trace =
    (* the census under span collection: armed, with every pool task traced *)
    measure "pool tracing" ~off:labels ~on:(fun i ->
        ignore (Obs.Span.record (fun () -> labels i)))
  in
  let provenance = measure "provenance" ~off:labels ~on:explained in
  (* the alert engine rides serve's epoch loop: a one-site, two-epoch
     serve per pair; drift-ledger folding runs in both arms (it is
     unconditional), so this isolates what the default rule set adds *)
  let serve rules i =
    let store = Filename.temp_file "bench_alert" ".journal" in
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists store then Sys.remove store)
      (fun () ->
        ignore
          (Serve.Service.run ~control
             ~config:
               {
                 Serve.Service.default_config with
                 sites = 1;
                 seed = !seed + site i;
                 jobs = 1;
                 epochs = 2;
                 alert_rules = rules;
               }
             ~store))
  in
  let alerts = measure "alert engine" ~off:(serve []) ~on:(serve Serve.Alerts.default_rules) in
  (* census throughput, from the untraced serial runs timed above *)
  let sites_per_s = float_of_int overhead_pairs /. Float.max 1e-9 trace.off_s in
  pf "census throughput (serial, untraced): %.1f sites/s\n" sites_per_s;
  Option.iter
    (fun path ->
      write_json path
        [
          ("census_flight_overhead_frac", flight.frac);
          ("census_trace_overhead_frac", trace.frac);
          ("census_provenance_overhead_frac", provenance.frac);
          ("serve_alert_overhead_frac", alerts.frac);
          ("census_sites_per_s", sites_per_s);
        ])
    !json_out

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
    ("overhead", overhead);
  ]

let order = List.mapi (fun i (name, _) -> (name, i)) experiments

let () =
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
    | name :: rest -> parse (name :: selected) rest
  in
  let selected = parse [] args in
  let seeds =
    match
      Obs.Campaign.resolve_seeds ?count:!seeds_count ?seed_list:!seed_list ~base:!seed ()
    with
    | Ok seeds -> seeds
    | Error msg ->
      Printf.eprintf "bench: %s\n" msg;
      exit 2
  in
  (* the JSON holds one run's numbers; a multi-seed sweep would overwrite
     it, so refuse rather than silently keep the last seed *)
  if List.length seeds > 1 && !json_out <> None then begin
    Printf.eprintf
      "bench: --seeds/--seed-list with more than one seed cannot write a single --json \
       file; run one seed per file\n";
    exit 2
  end;
  let to_run =
    if selected = [] then experiments
    else
      List.filter_map
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> Some (name, f)
          | None ->
            pf "unknown experiment %s (available: %s)\n" name
              (String.concat " " (List.map fst experiments));
            None)
        selected
  in
  let to_run =
    List.sort_uniq
      (fun (a, _) (b, _) -> compare (List.assoc a order) (List.assoc b order))
      to_run
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun s ->
      seed := s;
      if List.length seeds > 1 then pf "\n=== seed %d ===\n" s;
      List.iter (fun (_, f) -> f ()) to_run)
    seeds;
  pf "\n[all experiments done in %.0f s]\n" (Unix.gettimeofday () -. t0)

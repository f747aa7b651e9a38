(* Tests for the synthetic Internet: population, regions, QUIC stacks,
   heavy hitters, census machinery, and the browser model. *)

let control = lazy (Nebby.Training.train ~runs_per_cca:10 ~quic_runs_per_cca:5 ())

let test_population_deterministic () =
  let a = Internet.Population.generate ~n:100 ~seed:9 () in
  let b = Internet.Population.generate ~n:100 ~seed:9 () in
  Alcotest.(check bool) "same population" true (a = b);
  let c = Internet.Population.generate ~n:100 ~seed:10 () in
  Alcotest.(check bool) "different seed differs" true (a <> c)

(* Every field of every site, floats in %h, so a rewrite of generation
   keeps these digests only if it makes the same draws and spells the
   same names. *)
let population_digest (sites : Internet.Website.t list) =
  let b = Buffer.create (1 lsl 16) in
  List.iter
    (fun (s : Internet.Website.t) ->
      Printf.bprintf b "%d|%s|%s|%d|%s|%b|%s|%h|%h\n" s.rank s.name
        (match s.cdn with
        | Internet.Website.Cloudflare -> "cloudflare"
        | Internet.Website.Akamai -> "akamai"
        | Internet.Website.Self_hosted -> "self"
        | Internet.Website.Other_cdn -> "other")
        s.page_bytes
        (String.concat ","
           (List.map (fun (r, c) -> Internet.Region.name r ^ "=" ^ c) s.deployments))
        s.quic
        (Option.value ~default:"-" s.quic_cca)
        s.noise_factor s.ddos_sensitivity)
    sites;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_population_pinned () =
  let seed = 20230601 in
  Alcotest.(check string) "generate ~n:2000" "30ac3718d434e635cb172954366199d2"
    (population_digest (Internet.Population.generate ~n:2000 ~seed ()));
  (* the default migration (cubic to bbr from epoch 2): before its onset,
     and two epochs with converted sites *)
  Alcotest.(check string) "generate_at ~n:2000, epochs 1, 3, 6" "9d0f54802b0c6c7cb8322368aeae6c61"
    (population_digest
       (List.concat_map
          (fun epoch -> Internet.Population.generate_at ~n:2000 ~seed ~epoch ())
          [ 1; 3; 6 ]))

let test_population_shares () =
  let sites = Internet.Population.generate ~n:5000 ~seed:1 () in
  let count pred = List.length (List.filter pred sites) in
  let share pred = float_of_int (count pred) /. 5000.0 in
  let cubic_share =
    share (fun s -> Internet.Website.cca_in s Internet.Region.Ohio = "cubic")
  in
  Alcotest.(check bool) "cubic dominates (~41%)" true (cubic_share > 0.30 && cubic_share < 0.55);
  let akamai_share =
    share (fun s -> Internet.Website.cca_in s Internet.Region.Ohio = "akamai_cc")
  in
  Alcotest.(check bool) "akamai ~ 7%" true (akamai_share > 0.04 && akamai_share < 0.11);
  let quic_share = share (fun s -> s.Internet.Website.quic) in
  Alcotest.(check bool) "quic ~ 9%" true (quic_share > 0.05 && quic_share < 0.14)

let test_population_regional_differences () =
  let sites = Internet.Population.generate ~n:5000 ~seed:1 () in
  let differs s =
    let ccas = List.map (fun r -> Internet.Website.cca_in s r) Internet.Region.all in
    List.length (List.sort_uniq compare ccas) > 1
  in
  let share = float_of_int (List.length (List.filter differs sites)) /. 5000.0 in
  (* the paper: 13.6% of sites deploy differently in different regions *)
  Alcotest.(check bool)
    (Printf.sprintf "regional differences ~ 13.6%% (got %.1f%%)" (share *. 100.0))
    true
    (share > 0.08 && share < 0.20)

let test_bbr_mumbai_gap () =
  (* §4.2: BBR deployment lags in Mumbai/Sao Paulo because sites fall back
     to CUBIC there *)
  let sites = Internet.Population.generate ~n:5000 ~seed:1 () in
  let bbr_in region =
    List.length (List.filter (fun s -> Internet.Website.cca_in s region = "bbr") sites)
  in
  Alcotest.(check bool) "fewer BBR sites in Mumbai than Ohio" true
    (bbr_in Internet.Region.Mumbai < bbr_in Internet.Region.Ohio)

let test_quic_cca_subset () =
  let sites = Internet.Population.generate ~n:2000 ~seed:3 () in
  List.iter
    (fun s ->
      match s.Internet.Website.quic_cca with
      | None -> Alcotest.(check bool) "no quic cca without quic" false s.Internet.Website.quic
      | Some cca ->
        Alcotest.(check bool) "quic stacks only ship cubic/bbr/reno" true
          (List.mem cca [ "cubic"; "bbr"; "newreno" ]))
    sites

let test_regions () =
  Alcotest.(check int) "five vantage points" 5 (List.length Internet.Region.all);
  let names = List.map Internet.Region.name Internet.Region.all in
  Alcotest.(check bool) "distinct names" true (List.length (List.sort_uniq compare names) = 5)

let test_quic_stack_inventory () =
  Alcotest.(check int) "22 implementations" 22 (List.length Internet.Quic_stack.all);
  Alcotest.(check int) "11 stacks" 11 (List.length Internet.Quic_stack.stacks);
  let cubics =
    List.length (List.filter (fun i -> i.Internet.Quic_stack.cca = "cubic") Internet.Quic_stack.all)
  in
  Alcotest.(check int) "11 CUBIC implementations" 11 cubics;
  match Internet.Quic_stack.find ~stack:"quiche" ~cca:"cubic" with
  | Some impl ->
    Alcotest.(check (float 1e-9)) "quiche cubic conformance" 0.08 impl.conformance
  | None -> Alcotest.fail "quiche cubic missing"

let test_conformant_stack_classified () =
  let control = Lazy.force control in
  let plugins = Nebby.Classifier.extended_plugins control in
  match Internet.Quic_stack.find ~stack:"mvfst" ~cca:"cubic" with
  | None -> Alcotest.fail "mvfst cubic missing"
  | Some impl ->
    let report =
      Nebby.Measurement.measure ~control ~plugins ~proto:Netsim.Packet.Quic ~seed:61
        ~make_cca:impl.Internet.Quic_stack.make ()
    in
    Alcotest.(check string) "mvfst cubic classified" "cubic" report.Nebby.Measurement.label

let test_heavy_hitters_table () =
  Alcotest.(check int) "9 table-5 rows" 9 (List.length Internet.Heavy_hitters.table5);
  Alcotest.(check int) "17 table-8 services" 17 (List.length Internet.Heavy_hitters.table8);
  let amazon =
    List.find (fun e -> e.Internet.Heavy_hitters.site = "amazon.com") Internet.Heavy_hitters.table5
  in
  let site = Internet.Heavy_hitters.website_of_entry ~rank:1 amazon in
  Alcotest.(check string) "amazon bbr in ohio" "bbr"
    (Internet.Website.cca_in site Internet.Region.Ohio);
  Alcotest.(check string) "amazon cubic in mumbai" "cubic"
    (Internet.Website.cca_in site Internet.Region.Mumbai)

let test_census_small_sample () =
  let control = Lazy.force control in
  let sites = Internet.Population.generate ~n:12 ~seed:77 () in
  let tally =
    Internet.Census.run ~control ~proto:Netsim.Packet.Tcp ~region:Internet.Region.Ohio sites
  in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 tally in
  Alcotest.(check int) "every site tallied" 12 total

let test_census_quic_unresponsive () =
  let control = Lazy.force control in
  let site =
    match Internet.Population.generate ~n:50 ~seed:77 () with
    | sites -> List.find (fun s -> not s.Internet.Website.quic) sites
  in
  Alcotest.(check string) "non-quic site unresponsive" "unresponsive"
    (Internet.Census.explain_site ~control ~proto:Netsim.Packet.Quic
       ~region:Internet.Region.Ohio site)
      .Nebby.Measurement.label

let test_census_scaling () =
  let scaled = Internet.Census.scale_to ~total:20_000 [ ("cubic", 41); ("bbr", 13) ] in
  Alcotest.(check int) "counts rescaled" 15_185 (List.assoc "cubic" scaled)

(* shares must not divide by zero on degenerate tallies, and an
   all-unknown census is still a well-formed distribution *)
let test_census_shares_edge_cases () =
  Alcotest.(check (list (pair string (float 1e-9)))) "empty tally yields no shares" []
    (Internet.Census.shares []);
  Alcotest.(check (list (pair string (float 1e-9))))
    "all-zero tally keeps its keys at share 0"
    [ ("cubic", 0.0); ("unknown", 0.0) ]
    (Internet.Census.shares [ ("cubic", 0); ("unknown", 0) ]);
  Alcotest.(check (list (pair string (float 1e-9))))
    "all-unknown verdicts carry the whole share"
    [ ("unknown", 1.0) ]
    (Internet.Census.shares [ ("unknown", 7) ]);
  let shares = Internet.Census.shares [ ("cubic", 3); ("bbr", 1) ] in
  Alcotest.(check (list string)) "order preserved" [ "cubic"; "bbr" ] (List.map fst shares);
  Alcotest.(check (float 1e-9)) "shares sum to 1" 1.0
    (List.fold_left (fun acc (_, s) -> acc +. s) 0.0 shares)

let test_census_history () =
  Alcotest.(check int) "four historical snapshots" 4 (List.length Internet.Census_history.historical);
  Alcotest.(check string) "bbr3 mapped" "BBRv3" (Internet.Census_history.class_of_label "bbr3");
  let snap =
    Internet.Census_history.snapshot_of_census ~total_hosts:100 [ ("cubic", 50); ("unknown", 50) ]
  in
  Alcotest.(check (float 1e-6)) "share computed" 50.0
    (List.assoc "CUBIC" snap.Internet.Census_history.shares)

let test_class_of_label_novel () =
  let cls = Internet.Census_history.class_of_label in
  (* the BBR family maps onto its published display classes *)
  Alcotest.(check string) "bbr" "BBRv1" (cls "bbr");
  Alcotest.(check string) "bbr2" "BBRv2" (cls "bbr2");
  Alcotest.(check string) "bbr3" "BBRv3" (cls "bbr3");
  Alcotest.(check string) "bbr_unknown folds into BBRv3" "BBRv3" (cls "bbr_unknown");
  (* verdicts the censuses can't place are Unclassified, not dropped *)
  List.iter
    (fun l ->
      Alcotest.(check string) (Printf.sprintf "%s unclassified" l) "Unclassified" (cls l))
    [ "unknown"; "unresponsive"; "copa"; "vivace" ];
  (* a label the registry has never seen passes through verbatim so a
     novel deployment shows up by name instead of vanishing *)
  List.iter
    (fun l -> Alcotest.(check string) (Printf.sprintf "%s passthrough" l) l (cls l))
    [ "bbr4"; "prague"; "swift" ]

let test_snapshot_of_empty_tally () =
  let snap = Internet.Census_history.snapshot_of_census ~total_hosts:0 [] in
  Alcotest.(check (list (pair string (float 1e-9)))) "empty tally yields no shares" []
    snap.Internet.Census_history.shares;
  (* an all-zero tally is dropped rather than dividing by zero *)
  let zeros =
    Internet.Census_history.snapshot_of_census ~total_hosts:0 [ ("cubic", 0) ]
  in
  Alcotest.(check (list (pair string (float 1e-9)))) "all-zero tally yields no shares" []
    zeros.Internet.Census_history.shares;
  Alcotest.(check string) "placeholder study label intact" "Nebby (this repo)"
    zeros.Internet.Census_history.study

let test_browser_flows_classified () =
  let control = Lazy.force control in
  let svc =
    List.find (fun s -> s.Internet.Heavy_hitters.service = "Netflix") Internet.Heavy_hitters.table8
  in
  let flows = Internet.Browser.measure_service ~control ~seed:41 svc in
  Alcotest.(check int) "one flow per asset kind" 2 (List.length flows);
  List.iter
    (fun (f : Internet.Browser.flow_report) ->
      let confusable = [ f.truth; "unknown" ]
        @ (match f.truth with
          | "newreno" -> [ "hstcp" ]  (* the known near-identical pair *)
          | "hstcp" -> [ "newreno" ]
          | _ -> [])
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s flow classified as truth or unknown (%s vs %s)"
           (match f.asset with Internet.Browser.Video -> "video" | Static -> "static")
           f.label f.truth)
        true
        (List.mem f.label confusable))
    flows

let test_shared_bottleneck_contention () =
  let c =
    Internet.Browser.shared_bottleneck ~profile:Nebby.Profile.delay_50ms ~seed:5 ~cca_a:"bbr"
      ~cca_b:"cubic" ()
  in
  (* both flows make progress and the bottleneck is fully used *)
  Alcotest.(check bool) "flow a progresses" true (c.throughput_a > 1_000.0);
  Alcotest.(check bool) "flow b progresses" true (c.throughput_b > 1_000.0);
  Alcotest.(check bool) "bottleneck shared" true
    (c.throughput_a +. c.throughput_b < 2.2 *. c.fair_share)

let suite =
  [
    Alcotest.test_case "population generation is deterministic" `Quick test_population_deterministic;
    Alcotest.test_case "population fields pinned" `Quick test_population_pinned;
    Alcotest.test_case "population matches the paper's shares" `Quick test_population_shares;
    Alcotest.test_case "regional deployment differences exist" `Quick
      test_population_regional_differences;
    Alcotest.test_case "BBR lags in Mumbai (finding 1)" `Quick test_bbr_mumbai_gap;
    Alcotest.test_case "QUIC sites serve stack-supported CCAs" `Quick test_quic_cca_subset;
    Alcotest.test_case "five measurement regions" `Quick test_regions;
    Alcotest.test_case "QUIC stack inventory matches Table 10" `Quick test_quic_stack_inventory;
    Alcotest.test_case "conformant mvfst CUBIC classified" `Slow test_conformant_stack_classified;
    Alcotest.test_case "heavy hitter tables are complete" `Quick test_heavy_hitters_table;
    Alcotest.test_case "census tallies every site" `Slow test_census_small_sample;
    Alcotest.test_case "census marks non-QUIC sites unresponsive" `Quick
      test_census_quic_unresponsive;
    Alcotest.test_case "census scaling rescales counts" `Quick test_census_scaling;
    Alcotest.test_case "census shares survive degenerate tallies" `Quick
      test_census_shares_edge_cases;
    Alcotest.test_case "historical snapshots present (Table 11)" `Quick test_census_history;
    Alcotest.test_case "class_of_label: BBR family, unknowns, novel labels" `Quick
      test_class_of_label_novel;
    Alcotest.test_case "snapshot_of_census survives an empty tally" `Quick
      test_snapshot_of_empty_tally;
    Alcotest.test_case "browser flows classify per asset" `Slow test_browser_flows_classified;
    Alcotest.test_case "shared bottleneck shows contention" `Quick test_shared_bottleneck_contention;
  ]

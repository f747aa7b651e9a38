(* Multi-seed campaign experiments: each seed runs one full experiment
   serially, seeds fan out on the engine. Every simulation seed below is
   a pure function of (campaign seed, job index), so a campaign is
   deterministic in its seed list — the same contract the census keeps
   per site. *)

type experiment = Accuracy | Census | Chaos

let experiment_name = function
  | Accuracy -> "accuracy"
  | Census -> "census"
  | Chaos -> "chaos"

let experiment_of_name = function
  | "accuracy" -> Ok Accuracy
  | "census" -> Ok Census
  | "chaos" -> Ok Chaos
  | s -> Error (Printf.sprintf "unknown experiment %S (expected accuracy|census|chaos)" s)

let family_of = function
  | "bbr" | "bbr2" | "bbr3" | "vivace" -> "rate"
  | "vegas" | "copa" -> "delay"
  | "akamai_cc" -> "proprietary"
  | _ -> "loss"

let mean_of = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* one measurement per kernel CCA; the Table-3 sweep as a seed's job *)
let accuracy_run ~control ~ccas ~proto seed =
  let plugins = Nebby.Classifier.extended_plugins control in
  let reports =
    List.mapi
      (fun i name ->
        ( name,
          Nebby.Measurement.measure_cca ~control ~plugins ~proto
            ~seed:((seed * 9973) + (i * 101) + 1000)
            name ))
      ccas
  in
  let correct (name, r) = if r.Nebby.Measurement.label = name then 1.0 else 0.0 in
  let per_cca =
    List.map (fun (name, _ as p) -> ("accuracy." ^ name, correct p)) reports
  in
  let families = List.sort_uniq compare (List.map family_of ccas) in
  let per_family =
    List.map
      (fun fam ->
        ( "accuracy.family." ^ fam,
          mean_of
            (List.filter_map
               (fun (name, _ as p) ->
                 if family_of name = fam then Some (correct p) else None)
               reports) ))
      families
  in
  let mean_metric key =
    mean_of
      (List.filter_map
         (fun (_, r) -> List.assoc_opt key (Nebby.Measurement.report_metrics r))
         reports)
  in
  {
    Obs.Campaign.seed;
    metrics =
      [ ("accuracy", mean_of (List.map correct reports)) ]
      @ per_cca @ per_family
      @ [
          ("attempts", mean_metric "attempts");
          ("confidence.mean", mean_metric "confidence");
          ("margin.mean", mean_metric "margin");
        ];
    outcomes =
      List.map
        (fun (name, r) ->
          {
            Obs.Campaign.subject = name;
            expected = name;
            got = r.Nebby.Measurement.label;
          })
        reports;
  }

(* a labels-only census over a population synthesized from the seed *)
let census_run ~control ~sites ~proto ~region seed =
  let websites = Population.generate ~n:sites ~seed () in
  let labeled = Census.labels ~jobs:1 ~control ~proto ~region websites in
  let expected (site : Website.t) =
    match proto with
    | Netsim.Packet.Quic ->
      if not site.Website.quic then "unresponsive"
      else Option.value ~default:"cubic" site.Website.quic_cca
    | Netsim.Packet.Tcp -> Website.cca_in site region
  in
  let outcomes =
    List.map
      (fun ((site : Website.t), got) ->
        { Obs.Campaign.subject = site.Website.name; expected = expected site; got })
      labeled
  in
  let correct =
    List.map
      (fun (o : Obs.Campaign.outcome) ->
        if o.Obs.Campaign.got = o.Obs.Campaign.expected then 1.0 else 0.0)
      outcomes
  in
  let shares =
    List.map
      (fun (label, share) -> ("share." ^ label, share))
      (Census.shares (Census.tally_of_labels labeled))
  in
  {
    Obs.Campaign.seed;
    metrics = (("accuracy", mean_of correct) :: shares);
    outcomes;
  }

(* the fault matrix: per-fault-family accuracy and unknown rates *)
let chaos_run ~control ~ccas ~families ~proto seed =
  let matrix = Nebby.Chaos.run_matrix ?ccas ?families ~seed ~proto ~jobs:1 ~control () in
  let rows = matrix.Nebby.Chaos.baseline :: matrix.Nebby.Chaos.rows in
  let per_row =
    List.concat_map
      (fun (r : Nebby.Chaos.row) ->
        [
          ("accuracy." ^ r.Nebby.Chaos.family, r.Nebby.Chaos.accuracy);
          ("unknown_rate." ^ r.Nebby.Chaos.family, r.Nebby.Chaos.unknown_rate);
        ])
      rows
  in
  let outcomes =
    List.concat_map
      (fun (r : Nebby.Chaos.row) ->
        List.map
          (fun (c : Nebby.Chaos.cell) ->
            {
              Obs.Campaign.subject = c.Nebby.Chaos.cca ^ "@" ^ c.Nebby.Chaos.family;
              expected = c.Nebby.Chaos.cca;
              got = c.Nebby.Chaos.report.Nebby.Measurement.label;
            })
          r.Nebby.Chaos.cells)
      rows
  in
  {
    Obs.Campaign.seed;
    metrics =
      [ ("accuracy", matrix.Nebby.Chaos.baseline.Nebby.Chaos.accuracy) ]
      @ per_row
      @ [ ("violations", float_of_int (List.length matrix.Nebby.Chaos.violations)) ];
    outcomes;
  }

let run ?jobs ?emit ?(sites = 80) ?ccas ?families ?(proto = Netsim.Packet.Tcp) ?region
    ~control experiment ~seeds =
  let region = match region with Some r -> r | None -> List.hd Region.all in
  let per_seed =
    match experiment with
    | Accuracy ->
      let ccas =
        match ccas with Some cs -> cs | None -> Cca.Registry.kernel_ccas @ [ "bbr2" ]
      in
      accuracy_run ~control ~ccas ~proto
    | Census -> census_run ~control ~sites ~proto ~region
    | Chaos -> chaos_run ~control ~ccas ~families ~proto
  in
  let emit = match emit with Some e -> e | None -> fun _ _ -> () in
  Array.to_list (Engine.Pool.map_stream ?jobs ~emit per_seed (Array.of_list seeds))

let g gate_name metric gstat op bound =
  { Obs.Campaign.gate_name; metric; gstat; op; bound }

(* Gates over externally benched values: skipped unless the CLI feeds a
   bench ledger via --bench-json, so the deterministic campaign outputs
   never depend on this host's wall clock. *)
let bench_gates =
  [
    g "throughput-floor" "census_sites_per_s" Obs.Campaign.Mean Obs.Campaign.Floor 1.0;
    g "flight-overhead" "census_flight_overhead_frac" Obs.Campaign.Mean
      Obs.Campaign.Ceiling 0.05;
  ]

let default_gates = function
  | Accuracy ->
    [
      g "accuracy-floor" "accuracy" Obs.Campaign.Mean Obs.Campaign.Floor 0.7;
      g "loss-family-floor" "accuracy.family.loss" Obs.Campaign.Mean Obs.Campaign.Floor
        0.6;
      g "rate-family-floor" "accuracy.family.rate" Obs.Campaign.Mean Obs.Campaign.Floor
        0.5;
      g "delay-family-floor" "accuracy.family.delay" Obs.Campaign.Mean
        Obs.Campaign.Floor 0.4;
      g "accuracy-ci-width" "accuracy" Obs.Campaign.Ci_width Obs.Campaign.Ceiling 0.25;
    ]
    @ bench_gates
  | Census ->
    [
      g "accuracy-floor" "accuracy" Obs.Campaign.Mean Obs.Campaign.Floor 0.5;
      g "accuracy-ci-width" "accuracy" Obs.Campaign.Ci_width Obs.Campaign.Ceiling 0.25;
    ]
    @ bench_gates
  | Chaos ->
    [
      g "baseline-accuracy-floor" "accuracy" Obs.Campaign.Mean Obs.Campaign.Floor 0.6;
      g "accuracy-ci-width" "accuracy" Obs.Campaign.Ci_width Obs.Campaign.Ceiling 0.3;
    ]
    @ bench_gates

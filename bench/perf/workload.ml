(* The three workloads: set-up, timed rounds through the public entry
   points, correctness gates, and the optional traced replay.

   Every workload is one process running a closed batch: all its work
   is queued at once and [Engine.Pool] pulls it with [jobs] domains.
   A round is one call of the public entry point over the whole batch;
   rounds repeat while another one fits into the run's [seconds], and
   at least one always runs. *)

let now = Unix.gettimeofday

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let region = Internet.Region.Ohio
let proto = Netsim.Packet.Tcp

type t = Census_cold | Serve_measure | Serve_carry

let names =
  [ ("census-cold", Census_cold); ("serve-measure", Serve_measure); ("serve-carry", Serve_carry) ]

type sizes = {
  census_sites : int;
  serve_sites : int;
  serve_epochs : int;
  carry_sites : int;
  warmup_sites : int;
  setups : int;  (** set-ups per run; [setup_s] is their median *)
  training_runs : int option;  (** [None]: the default training *)
}

let full =
  {
    census_sites = 768;
    serve_sites = 384;
    serve_epochs = 2;
    carry_sites = 20_000;
    warmup_sites = 32;
    setups = 3;
    training_runs = None;
  }

(* Small enough for [dune runtest]. *)
let toy =
  {
    census_sites = 8;
    serve_sites = 4;
    serve_epochs = 2;
    carry_sites = 200;
    warmup_sites = 4;
    setups = 1;
    training_runs = Some 3;
  }

let remove path = if Sys.file_exists path then Sys.remove path

let copy_file src dst =
  let data = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc data)

(* inputs ------------------------------------------------------------------ *)

(* Populations drawn by different seeds differ in cost: over 768 sites
   the simulated packet count moved by ±8% between seeds, mostly with
   the mix of CCAs and of badly connected paths. So that runs on
   different seeds measure comparable work, a measuring workload runs
   the best balanced of 256 candidate populations derived from its
   seed: the one whose site count per (Ohio CCA, noise >= 8x) stratum
   lies closest to that stratum's share of the seed's own 20,000-site
   population. This halved the spread of the packet count. *)
let population_seed ~n seed =
  let stratum site =
    (Internet.Website.cca_in site region, site.Internet.Website.noise_factor >= 8.0)
  in
  let counts sites =
    let t = Hashtbl.create 32 in
    List.iter
      (fun s ->
        let k = stratum s in
        Hashtbl.replace t k (1 + Option.value ~default:0 (Hashtbl.find_opt t k)))
      sites;
    t
  in
  let pool = 20_000 in
  let reference = counts (Internet.Population.generate ~n:pool ~seed ()) in
  let distance candidate =
    let c = counts (Internet.Population.generate ~n ~seed:candidate ()) in
    Hashtbl.fold
      (fun k r acc ->
        let got = float_of_int (Option.value ~default:0 (Hashtbl.find_opt c k)) in
        acc +. Float.abs (got -. (float_of_int (n * r) /. float_of_int pool)))
      reference 0.0
  in
  List.init 256 (fun i -> (seed * 256) + i)
  |> List.map (fun c -> (distance c, c))
  |> List.fold_left min (infinity, seed)
  |> snd

(* set-up ----------------------------------------------------------------- *)

type prepared = {
  control : Nebby.Training.control;
  websites : Internet.Website.t list;  (** the census-cold batch *)
  carry_store : string;  (** the seeded serve-carry store, or "" *)
}

(* A verdict far above the default decay floors, so every epoch-1 visit
   carries it forward. *)
let stable_verdict (site : Internet.Website.t) =
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("label", Obs.Json.Str (Internet.Website.cca_in site region));
         ("confidence", Obs.Json.Num 1.0);
         ("margin", Obs.Json.Num 100.0);
         ("attempts", Obs.Json.Num 1.0);
         ("failures", Obs.Json.Arr []);
       ])

let seed_store ~control ~path websites =
  remove path;
  let j = Engine.Journal.open_ path in
  List.iter
    (fun site ->
      Engine.Journal.put j
        ~key:("e0|" ^ Internet.Census.cache_key ~control ~proto ~region site)
        ~value:(stable_verdict site))
    websites;
  Engine.Journal.compact j;
  Engine.Journal.close j

let setup_once sizes w ~seed ~jobs ~work =
  let t0 = now () in
  let control =
    match sizes.training_runs with
    | None -> Nebby.Training.train ()
    | Some runs -> Nebby.Training.train ~runs_per_cca:runs ()
  in
  let train_s = now () -. t0 in
  let websites =
    if w = Census_cold then Internet.Population.generate ~n:sizes.census_sites ~seed () else []
  in
  let carry_store =
    if w <> Serve_carry then ""
    else begin
      let path = Filename.concat work "carry-seed.journal" in
      seed_store ~control ~path (Internet.Population.generate ~n:sizes.carry_sites ~seed ());
      path
    end
  in
  (* Warm-up on another seed, so worker domains, memo tables and the heap
     are in steady state before the first timed round. *)
  ignore
    (Internet.Census.labels ~jobs ~control ~proto ~region
       (Internet.Population.generate ~n:sizes.warmup_sites ~seed:(seed + 1) ()));
  ({ control; websites; carry_store }, now () -. t0, train_s)

(* Set up [sizes.setups] times and keep the last; returns the medians
   of the set-up and training times. *)
let setup sizes w ~seed ~jobs ~work =
  let runs = List.init sizes.setups (fun _ -> setup_once sizes w ~seed ~jobs ~work) in
  let prepared, _, _ = List.nth runs (List.length runs - 1) in
  ( prepared,
    Stats.median (List.map (fun (_, s, _) -> s) runs),
    Stats.median (List.map (fun (_, _, s) -> s) runs) )

(* timed rounds ------------------------------------------------------------ *)

type round = { wall : float; cpu_s : float }

let rounds ~seconds f =
  let t0 = now () in
  let rec go acc =
    let c0 = cpu () and r0 = now () in
    let out = f () in
    let round = { wall = now () -. r0; cpu_s = cpu () -. c0 } in
    let acc = (out, round) :: acc in
    if now () -. t0 +. round.wall <= seconds then go acc else List.rev acc
  in
  go []

let serve_config sizes w ~seed ~jobs =
  let sites, epochs =
    if w = Serve_carry then (sizes.carry_sites, 2) else (sizes.serve_sites, sizes.serve_epochs)
  in
  { Serve.Service.default_config with sites; seed; jobs; epochs }

(* Final-epoch verdict per site of a finished store, by rank. Keys are
   "e<epoch>|<rank>:<name>|..." as service.mli and census.mli document. *)
let final_labels ~store ~epoch =
  let prefix = Printf.sprintf "e%d|" epoch in
  let plen = String.length prefix in
  let j = Engine.Journal.open_ store in
  let labels =
    Engine.Journal.fold
      (fun key value acc ->
        if String.starts_with ~prefix key then
          let rank = String.sub key plen (String.index_from key plen ':' - plen) in
          let label =
            Option.value ~default:""
              (Option.bind (Obs.Json.member "label" (Obs.Json.of_string value)) Obs.Json.to_str)
          in
          (int_of_string rank, label) :: acc
        else acc)
      j []
  in
  Engine.Journal.close j;
  labels

(* Verdict records of a store as raw lines, snapshots left out. *)
let verdict_records store =
  In_channel.with_open_bin store In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun line ->
         match String.index_opt line ' ' with
         | None -> line <> ""
         | Some i -> (
           match Obs.Json.of_string (String.sub line (i + 1) (String.length line - i - 1)) with
           | exception Obs.Json.Parse_error _ -> true
           | payload -> (
             match Option.bind (Obs.Json.member "key" payload) Obs.Json.to_str with
             | Some key -> not (String.starts_with ~prefix:"snapshot|" key)
             | None -> true)))

(* a run ------------------------------------------------------------------ *)

type result = {
  e2e : Record.metric list;
  layers : Record.metric list;  (** empty without [trace] *)
  checks : (string * bool) list;
  attempted : int;
  failed : int;
  rounds_run : int;
  work : (string * int) list;  (** what one round did *)
  jobs : int;
  population_seed : int;
}

let valid_label l =
  List.mem l Cca.Registry.all || List.mem l [ "unknown"; "bbr3"; "unresponsive" ]

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         if String.starts_with ~prefix:"VmHWM:" line then
           Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f kB" (fun kb ->
               Some (kb /. 1024.0))
         else None)
  |> Option.value ~default:nan

(* What a workload's timed phase hands to the shared summary. *)
type timed = {
  per_round : round list;
  verdicts : int;  (** verdicts per round *)
  work : (string * int) list;  (** what one round did, for the record *)
  labelled : (Internet.Website.t * string) list;  (** final verdict per site *)
  gates : (string * bool) list;
  replay : unit -> Replay.summary * (string * bool) list;
}

let timed_census sizes p ~jobs ~seconds =
  let control = p.control in
  let done_ =
    rounds ~seconds (fun () -> Internet.Census.labels ~jobs ~control ~proto ~region p.websites)
  in
  let first = fst (List.hd done_) in
  {
    per_round = List.map snd done_;
    verdicts = List.length first;
    work = [ ("sites", List.length first) ];
    labelled = first;
    gates =
      [
        ("every site labelled", List.length first = sizes.census_sites);
        ("rounds agree", List.for_all (fun (l, _) -> l = first) done_);
      ];
    replay =
      (fun () ->
        let labels, s = Replay.census ~control p.websites in
        (s, [ ("replay labels equal timed labels", labels = List.map snd first) ]));
  }

let timed_serve sizes w p ~seed ~jobs ~seconds ~work =
  let control = p.control in
  let config = serve_config sizes w ~seed ~jobs in
  (* a fresh store per round: empty, or a copy of the seeded one *)
  let fresh path =
    remove path;
    if w = Serve_carry then copy_file p.carry_store path
  in
  let store = Filename.concat work "timed.journal" in
  let done_ =
    rounds ~seconds (fun () ->
        fresh store;
        Serve.Service.run ~control ~config ~store)
  in
  let s = fst (List.hd done_) in
  let sites = config.Serve.Service.sites and epochs = config.Serve.Service.epochs in
  let by_rank = Hashtbl.create sites in
  List.iter (fun (r, l) -> Hashtbl.replace by_rank r l) (final_labels ~store ~epoch:(epochs - 1));
  let labelled =
    List.map
      (fun (site : Internet.Website.t) ->
        (site, Option.value ~default:"" (Hashtbl.find_opt by_rank site.Internet.Website.rank)))
      (Internet.Population.generate ~n:sites ~seed ())
  in
  let open Serve.Service in
  {
    per_round = List.map snd done_;
    verdicts = s.measured + s.carried;
    work =
      [
        ("measured", s.measured); ("carried", s.carried); ("recovered", s.recovered);
        ("snapshots", s.snapshots);
      ];
    labelled;
    gates =
      [
        ( "recovered + carried + measured = sites x epochs",
          s.recovered + s.carried + s.measured = sites * epochs );
        ("every site has a final verdict", Hashtbl.length by_rank = sites);
        ("rounds agree", List.for_all (fun (s', _) -> s' = s) done_);
        ("no timeouts, no torn records", s.timeouts = 0 && s.torn_dropped = 0);
      ]
      @ (if w = Serve_carry then
           [
             ( "every epoch-0 key recovered, every epoch-1 verdict carried",
               s.recovered = sites && s.carried = sites && s.measured = 0 );
           ]
         else []);
    replay =
      (fun () ->
        let replayed = Filename.concat work "replay.journal" in
        fresh replayed;
        let counts, summary = Replay.serve ~control ~config ~store:replayed in
        ( summary,
          [
            ( "replay verdict records byte-identical",
              verdict_records replayed = verdict_records store );
            ( "replay counts equal timed summary",
              counts
              = { Replay.recovered = s.recovered; carried = s.carried; measured = s.measured } );
          ] ));
  }

let run sizes w ~seed ~seconds ~trace ~work =
  let jobs = min 2 (Domain.recommended_domain_count ()) in
  let seed =
    match w with
    | Census_cold -> population_seed ~n:sizes.census_sites seed
    | Serve_measure -> population_seed ~n:sizes.serve_sites seed
    | Serve_carry -> seed
  in
  let p, setup_s, train_s = setup sizes w ~seed ~jobs ~work in
  let t =
    match w with
    | Census_cold -> timed_census sizes p ~jobs ~seconds
    | Serve_measure | Serve_carry -> timed_serve sizes w p ~seed ~jobs ~seconds ~work
  in
  let rounds_run = List.length t.per_round in
  let total f = List.fold_left (fun acc r -> acc +. f r) 0.0 t.per_round in
  let share pred =
    let count = List.length (List.filter pred t.labelled) in
    float_of_int count /. float_of_int (List.length t.labelled)
  in
  let layers, replay_gates =
    if not trace then ([], [])
    else begin
      let summary, gates = t.replay () in
      let per_round x = x /. float_of_int rounds_run in
      ( Replay.metrics summary ~jobs ~train_s
          ~round_wall:(per_round (total (fun r -> r.wall)))
          ~round_cpu:(per_round (total (fun r -> r.cpu_s)))
          ~dispatch_ms:(Replay.dispatch_ms ~jobs),
        gates )
    end
  in
  let m = Record.metric in
  {
    e2e =
      [
        m "setup_s" "s" setup_s;
        m "verdicts_per_s" "verdicts/s"
          (float_of_int (t.verdicts * rounds_run) /. total (fun r -> r.wall));
        m "accuracy" "fraction" (share (fun (site, l) -> l = Internet.Website.cca_in site region));
        m "known_frac" "fraction" (share (fun (_, l) -> l <> "unknown"));
        m "peak_rss_mb" "MB" (peak_rss_mb ());
      ];
    layers;
    checks = t.gates @ replay_gates;
    attempted = t.verdicts * rounds_run;
    failed = List.length (List.filter (fun (_, l) -> not (valid_label l)) t.labelled);
    rounds_run;
    work = t.work;
    jobs;
    population_seed = seed;
  }

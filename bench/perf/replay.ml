(* The traced replay: re-executes a workload serially, calling each
   layer's public functions in the order the program calls them and
   timing every call from here. Nothing inside the library is
   instrumented, so the timed runs stay untouched; the replay's outputs
   are compared with the timed run's to prove it did the same work.

   Two pieces mirror private code and are checked rather than trusted:
   the census site seed and attempt loop (census.ml / measurement.ml),
   and the serve verdict encoding and decay test (service.ml). If either
   drifts, the replay's labels or records stop matching and the run
   fails. *)

open Nebby

let now = Unix.gettimeofday
let region = Internet.Region.Ohio
let proto = Netsim.Packet.Tcp

(* Per-stage seconds and call counts of the current replay. Only the
   calling domain writes here: pool tasks return their own timings.
   Stages never nest, so their sum should cover the replay's wall. *)
let stages : (string, float * int) Hashtbl.t = Hashtbl.create 16

let timed name f =
  let t0 = now () in
  let r = f () in
  let s, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt stages name) in
  Hashtbl.replace stages name (s +. (now () -. t0), n + 1);
  r

let seconds name = fst (Option.value ~default:(0.0, 0) (Hashtbl.find_opt stages name))
let calls name = snd (Option.value ~default:(0.0, 0) (Hashtbl.find_opt stages name))

type summary = {
  wall : float;  (** replay wall time *)
  tasks : float list;  (** seconds per site measurement *)
  attempts : int list;  (** measurement attempts per site *)
  packets : int;  (** packets captured across all simulations *)
  pool : pool;
}

and pool =
  | Serial  (** tasks replayed one by one; the program made one pool call per round *)
  | Batches of { calls : int; wall : float }  (** pool calls replayed, and their wall time *)

(* census ------------------------------------------------------------------ *)

(* Census.site_seed at epoch 0 over TCP. *)
let site_seed (site : Internet.Website.t) =
  (site.Internet.Website.rank * 31) + (Internet.Region.index region * 7919)

let truncated (r : Testbed.result) =
  let sender_end =
    List.fold_left (fun acc (t, _) -> Float.max acc t) 0.0 r.Testbed.ground_truth_bif
  in
  Netsim.Trace.length r.Testbed.trace < 16
  || Netsim.Trace.duration r.Testbed.trace < 0.8 *. sender_end

let diagnose runs ~segments =
  if List.exists (fun (_, r) -> r.Testbed.flow_reset) runs then Measurement.Flow_reset
  else if List.exists (fun (_, r) -> truncated r) runs then Measurement.Trace_truncated
  else if List.exists (fun (_, r) -> not r.Testbed.finished) runs then Measurement.Timeout
  else if segments = 0 then Measurement.Too_few_oscillations
  else Measurement.Low_confidence

(* One site through Measurement.measure's label-only attempt loop with
   the default retry policy. *)
let measure_site ~control ~packets (site : Internet.Website.t) =
  let config = Measurement.default_config in
  let make_cca = Cca.Registry.create (Internet.Website.cca_in site region) in
  let noise = Netsim.Path.scale (Internet.Region.noise region) site.Internet.Website.noise_factor in
  let seed = site_seed site in
  let attempt n =
    let runs =
      List.mapi
        (fun i profile ->
          let r =
            timed "simulate" (fun () ->
                Testbed.run ~seed:(seed + (7919 * n) + (31 * i)) ~noise ~proto
                  ~page_bytes:site.Internet.Website.page_bytes ~profile ~make_cca ())
          in
          packets := !packets + Netsim.Trace.length r.Testbed.trace;
          (profile, r))
        control.Training.profiles
    in
    if List.exists (fun (_, r) -> r.Testbed.flow_reset) runs then Error Measurement.Flow_reset
    else
      match
        let prepared =
          List.map
            (fun (p, r) ->
              let bif = timed "bif" (fun () -> Bif.estimate r.Testbed.trace) in
              let prep = timed "prepare" (fun () -> Pipeline.prepare ~rtt:(Profile.rtt p) bif) in
              (p.Profile.name, prep))
            runs
        in
        (* the classifier reuses these memoised vectors *)
        List.iter
          (fun (_, prep) -> ignore (timed "features" (fun () -> Features.trace_vector prep)))
          prepared;
        let classify ps =
          fst (timed "classify" (fun () -> Classifier.classify_measurement ~proto ~control ps))
        in
        let outcome = classify prepared in
        List.iter (fun p -> ignore (classify [ p ])) prepared;
        (outcome, List.fold_left (fun acc (_, p) -> acc + Pipeline.segment_count p) 0 prepared)
      with
      | Classifier.Known label, _ -> Ok label
      | Classifier.Unknown, segments -> Error (diagnose runs ~segments)
      | exception _ ->
        Error
          (if List.exists (fun (_, r) -> truncated r) runs then Measurement.Trace_truncated
           else Measurement.Low_confidence)
  in
  let rec go n failures =
    match attempt n with
    | Ok label -> (label, n)
    | Error reason ->
      let failures = reason :: failures in
      let occurrences = List.length (List.filter (( = ) reason) failures) in
      let budget =
        Option.value ~default:max_int (List.assoc_opt reason config.Measurement.retry_budgets)
      in
      if n >= config.Measurement.max_attempts || occurrences > budget then ("unknown", n)
      else go (n + 1) failures
  in
  let label, attempts = go 1 [] in
  ((if label = Bbr_classifier.label_unknown_bbr then "bbr3" else label), attempts)

let census ~control websites =
  Hashtbl.reset stages;
  let packets = ref 0 in
  let t0 = now () in
  let results =
    List.map
      (fun site ->
        let t = now () in
        let label, attempts = measure_site ~control ~packets site in
        (label, attempts, now () -. t))
      websites
  in
  let wall = now () -. t0 in
  ( List.map (fun (label, _, _) -> label) results,
    {
      wall;
      tasks = List.map (fun (_, _, dt) -> dt) results;
      attempts = List.map (fun (_, a, _) -> a) results;
      packets = !packets;
      pool = Serial;
    } )

(* serve ------------------------------------------------------------------- *)

(* Service's verdict record and decay test. *)
let value_of_report (report : Measurement.report) =
  let confidence, margin =
    match report.Measurement.provenance with
    | Some p -> (p.Obs.Provenance.confidence, p.Obs.Provenance.margin)
    | None -> (0.0, 0.0)
  in
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("label", Obs.Json.Str report.Measurement.label);
         ("confidence", Obs.Json.Num confidence);
         ("margin", Obs.Json.Num margin);
         ("attempts", Obs.Json.Num (float_of_int report.Measurement.attempts));
         ( "failures",
           Obs.Json.Arr
             (List.map
                (fun r -> Obs.Json.Str (Measurement.failure_reason_label r))
                report.Measurement.failures) );
       ])

let decayed (config : Serve.Service.config) value =
  match Obs.Json.of_string value with
  | exception Obs.Json.Parse_error _ -> true
  | j -> (
    let num k = Option.bind (Obs.Json.member k j) Obs.Json.to_float in
    match (num "confidence", num "margin") with
    | Some c, Some m ->
      c < config.Serve.Service.confidence_floor || m < config.Serve.Service.margin_floor
    | _ -> true)

let rec chunks n = function
  | [] -> []
  | xs ->
    let batch = List.filteri (fun i _ -> i < n) xs in
    batch :: chunks n (List.filteri (fun i _ -> i >= n) xs)

type serve_counts = { recovered : int; carried : int; measured : int }

(* The epoch algorithm of service.mli over a store: recover journaled
   keys, carry stable verdicts, measure the rest in pool batches, re-read
   the epoch's verdicts (Service folds them into its snapshot and drift
   point), then compact. Snapshot records are not replayed. *)
let serve ~control ~(config : Serve.Service.config) ~store =
  Hashtbl.reset stages;
  let t0 = now () in
  let websites =
    Internet.Population.generate ~n:config.Serve.Service.sites ~seed:config.Serve.Service.seed ()
  in
  let key epoch site =
    let k =
      timed "cache_key" (fun () ->
          Internet.Census.cache_key ~control ~proto:config.Serve.Service.proto
            ~region:config.Serve.Service.region site)
    in
    Printf.sprintf "e%d|%s" epoch k
  in
  let j = timed "journal.open" (fun () -> Engine.Journal.open_ store) in
  let read f = timed "journal.read" f in
  let put ~key ~value = timed "journal.put" (fun () -> Engine.Journal.put j ~key ~value) in
  let recovered = ref 0 and carried = ref 0 in
  let measured = ref [] in
  let batches = ref 0 in
  for epoch = 0 to config.Serve.Service.epochs - 1 do
    let pending =
      List.filter
        (fun site ->
          let k = key epoch site in
          if read (fun () -> Engine.Journal.mem j k) then (incr recovered; false)
          else if epoch = 0 then true
          else
            let pk = key (epoch - 1) site in
            match read (fun () -> Engine.Journal.find j pk) with
            | Some prev when not (decayed config prev) ->
              put ~key:k ~value:prev;
              incr carried;
              false
            | Some _ | None -> true)
        websites
    in
    List.iter
      (fun batch ->
        incr batches;
        let results =
          timed "serve.measure" (fun () ->
              Engine.Pool.map_list ~jobs:config.Serve.Service.jobs
                (fun site ->
                  let t = now () in
                  let report =
                    Internet.Census.explain_site ~epoch ~control ~proto:config.Serve.Service.proto
                      ~region:config.Serve.Service.region site
                  in
                  (site, report, now () -. t))
                batch)
        in
        List.iter
          (fun (site, report, dt) ->
            let k = key epoch site in
            put ~key:k ~value:(value_of_report report);
            measured := (dt, report.Measurement.attempts) :: !measured)
          results)
      (chunks config.Serve.Service.batch pending);
    List.iter
      (fun site ->
        let k = key epoch site in
        ignore (read (fun () -> Engine.Journal.find j k)))
      websites
  done;
  timed "journal.compact" (fun () -> Engine.Journal.compact j);
  Engine.Journal.close j;
  let wall = now () -. t0 in
  let measured = List.rev !measured in
  ( { recovered = !recovered; carried = !carried; measured = List.length measured },
    {
      wall;
      tasks = List.map fst measured;
      attempts = List.map snd measured;
      packets = 0;
      pool = Batches { calls = !batches; wall = seconds "serve.measure" };
    } )

(* pool dispatch -------------------------------------------------------------- *)

(* Median wall time of a no-op [Pool.map] over 8 items: the fixed cost a
   batch pays before any measurement runs. *)
let dispatch_ms ~jobs =
  let items = Array.init 8 Fun.id in
  Stats.median
    (List.init 50 (fun _ ->
         let t0 = now () in
         ignore (Engine.Pool.map ~jobs Fun.id items);
         (now () -. t0) *. 1000.0))

(* metrics ------------------------------------------------------------------- *)

(* Per-layer metrics of one replay. [round_wall] and [round_cpu] are
   the timed run's wall and process CPU seconds per round; the census
   replay makes no pool calls, so its tasks are set against the timed
   run's single [Census.labels] call instead. *)
let metrics s ~jobs ~train_s ~round_wall ~round_cpu ~dispatch_ms =
  let m = Record.metric in
  let sum = List.fold_left ( +. ) 0.0 in
  let share name = seconds name /. s.wall in
  let per_call name =
    if calls name = 0 then 0.0 else seconds name /. float_of_int (calls name) *. 1e6
  in
  let layer name =
    [ m (name ^ ".s") "s" (seconds name); m (name ^ ".share") "fraction" (share name) ]
  in
  let task_s = sum s.tasks in
  let n = List.length s.tasks in
  (* [serial_s]: what the replay would have taken with every task run
     serially *)
  let batches, batch_wall, serial_s =
    match s.pool with
    | Serial -> (1, round_wall, s.wall)
    | Batches { calls; wall } -> (calls, wall, s.wall -. wall +. task_s)
  in
  let ms p = Stats.percentile p s.tasks *. 1000.0 in
  layer "simulate"
  @ [
      m "simulate.calls" "count" (float_of_int (calls "simulate"));
      m "simulate.us_per_pkt" "us"
        (if s.packets = 0 then 0.0 else seconds "simulate" /. float_of_int s.packets *. 1e6);
    ]
  @ layer "bif" @ layer "prepare" @ layer "features" @ layer "classify"
  @ [
      m "classify.calls" "count" (float_of_int (calls "classify"));
      m "measure.attempts_per_site" "attempts"
        (if n = 0 then 0.0 else float_of_int (List.fold_left ( + ) 0 s.attempts) /. float_of_int n);
      m "measure.p50_ms" "ms" (ms 50.0);
      m "measure.p98_ms" "ms" (ms 98.0);
      m "measure.n" "count" (float_of_int n);
      m "train.s" "s" train_s;
      m "pool.cpu_inflation" "ratio" (round_cpu /. serial_s);
      m "pool.dispatch_ms" "ms" dispatch_ms;
      m "pool.batches" "count" (float_of_int batches);
      m "pool.join_idle_frac" "fraction"
        (if batches = 0 then 0.0 else 1.0 -. (task_s /. (float_of_int jobs *. batch_wall)));
      m "journal.open_s" "s" (seconds "journal.open");
      m "journal.put.s" "s" (seconds "journal.put");
      m "journal.put.calls" "count" (float_of_int (calls "journal.put"));
      m "journal.put.us" "us" (per_call "journal.put");
      m "journal.read.s" "s" (seconds "journal.read");
      m "journal.read.calls" "count" (float_of_int (calls "journal.read"));
      m "journal.compact_s" "s" (seconds "journal.compact");
    ]
  @ layer "cache_key"
  @ [
      m "cache_key.calls" "count" (float_of_int (calls "cache_key"));
      m "cache_key.us" "us" (per_call "cache_key");
    ]
  @ layer "serve.measure"
  @ [
      m "trace.replay_s" "s" s.wall;
      m "trace.stage_sum_frac" "fraction"
        (Hashtbl.fold (fun _ (secs, _) acc -> acc +. secs) stages 0.0 /. s.wall);
    ]

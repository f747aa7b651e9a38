(* The continuous-census scheduler. See service.mli for the contract;
   the structural choices that matter:

   - All orchestration runs in the calling domain. Only measurement
     batches fan out (Engine.Pool.map over a pop_batch slice), so commit
     order is the deterministic queue order and the journal never sees
     concurrent writers.
   - Backpressure is handled where it surfaces: a push that returns
     Overloaded makes the producer drain one batch and retry, so the
     queue depth can never exceed high_water + batch-in-flight.
   - The watchdog is cooperative (wall-clock measured around each
     measurement, checked after it returns) because the measurement
     stack is a simulation — there is nothing to preempt. The default
     infinite deadline keeps the store bit-deterministic. *)

type config = {
  sites : int;
  seed : int;
  region : Internet.Region.t;
  proto : Netsim.Packet.proto;
  jobs : int;
  epochs : int;
  deadline_s : float;
  high_water : int;
  batch : int;
  max_entries : int option;
  confidence_floor : float;
  margin_floor : float;
  kill_after_commits : int option;
  status_file : string option;
  migration : Internet.Population.migration option;
  alert_rules : Alerts.rule list;
  alert_log : string option;
}

let default_config =
  {
    sites = 24;
    seed = 7;
    region = Internet.Region.Ohio;
    proto = Netsim.Packet.Tcp;
    jobs = 1;
    epochs = 2;
    deadline_s = infinity;
    high_water = 256;
    batch = 8;
    max_entries = None;
    confidence_floor = 0.9;
    margin_floor = 2.0;
    kill_after_commits = None;
    status_file = None;
    migration = None;
    alert_rules = [];
    alert_log = None;
  }

type summary = {
  measured : int;
  recovered : int;
  carried : int;
  timeouts : int;
  overloads : int;
  torn_dropped : int;
  snapshots : int;
  drift_events : int;
  alerts_fired : int;
}

type job = {
  site : Internet.Website.t;
  key : string;  (* journal key: epoch_key epoch (cache_key site) *)
  epoch : int;
  timeouts_so_far : int;
  prio : int;
  admitted_at : int;  (* commit tick at admission, for the wait histograms *)
}

let flight ~epoch ~event ~value =
  Obs.Flight.serve ~time:(float_of_int epoch) ~event ~value

(* [base] is the site's Census.cache_key, computed once per site-epoch *)
let epoch_key epoch base = "e" ^ string_of_int epoch ^ "|" ^ base

let snapshot_key epoch = Printf.sprintf "snapshot|e%d" epoch

(* Verdict records: a small stable JSON object. Confidence and margin
   ride along so the next epoch can judge decay without re-parsing the
   full provenance report. *)
let value_of_report (report : Nebby.Measurement.report) =
  let confidence, margin =
    match report.provenance with
    | Some p -> (p.Obs.Provenance.confidence, p.Obs.Provenance.margin)
    | None -> (0.0, 0.0)
  in
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("label", Obs.Json.Str report.label);
         ("confidence", Obs.Json.Num confidence);
         ("margin", Obs.Json.Num margin);
         ("attempts", Obs.Json.Num (float_of_int report.attempts));
         ( "failures",
           Obs.Json.Arr
             (List.map
                (fun r -> Obs.Json.Str (Nebby.Measurement.failure_reason_label r))
                report.failures) );
       ])

(* What the watchdog commits once a site's timeout retry budget is gone:
   the same shape the retry path inside Measurement produces for an
   exhausted measurement, so downstream consumers need no special case. *)
let timed_out_value ~attempts =
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("label", Obs.Json.Str "unknown");
         ("confidence", Obs.Json.Num 0.0);
         ("margin", Obs.Json.Num 0.0);
         ("attempts", Obs.Json.Num (float_of_int attempts));
         ( "failures",
           Obs.Json.Arr
             (List.init attempts (fun _ ->
                  Obs.Json.Str
                    (Nebby.Measurement.failure_reason_label Nebby.Measurement.Timeout))) );
       ])

let label_of_value value =
  match Obs.Json.of_string value with
  | exception Obs.Json.Parse_error _ -> "unknown"
  | j -> (
    match Option.bind (Obs.Json.member "label" j) Obs.Json.to_str with
    | Some l -> l
    | None -> "unknown")

(* A verdict decays when its confidence or winning margin sits below the
   configured floors — or when the record is unreadable, which should
   never happen but must fail towards re-measuring, not trusting. *)
let decayed cfg value =
  match Obs.Json.of_string value with
  | exception Obs.Json.Parse_error _ -> true
  | j -> (
    let num k = Option.bind (Obs.Json.member k j) Obs.Json.to_float in
    match (num "confidence", num "margin") with
    | Some c, Some m -> c < cfg.confidence_floor || m < cfg.margin_floor
    | _ -> true)

let timeout_retry_budget =
  match
    List.assoc_opt Nebby.Measurement.Timeout
      Nebby.Measurement.default_config.retry_budgets
  with
  | Some b -> b
  | None -> 1

let snapshot_to_json (s : Internet.Census_history.snapshot) =
  Obs.Json.Obj
    [
      ("study", Obs.Json.Str s.study);
      ("year", Obs.Json.Num (float_of_int s.year));
      ("total_hosts", Obs.Json.Num (float_of_int s.total_hosts));
      ( "shares",
        Obs.Json.Arr
          (List.map
             (fun (cls, pct) ->
               Obs.Json.Obj [ ("class", Obs.Json.Str cls); ("percent", Obs.Json.Num pct) ])
             s.shares) );
    ]

type state = {
  cfg : config;
  store : Engine.Journal.t;
  queue : job Job_queue.t;
  mutable commits : int;  (* puts so far, for crash injection *)
  mutable measured : int;
  mutable recovered : int;
  mutable carried : int;
  mutable timeouts : int;
  mutable torn : int;
  mutable epoch_now : int;
  t_start : float;  (* wall start, for the running-phase jobs/s gauge *)
  wait_hists : Obs.Histogram.t array;  (* per priority, in commit ticks *)
  alerts : Alerts.t option;
  mutable drift_points : Obs.Drift.point list;  (* newest first *)
  mutable drift_event_count : int;
  mutable transitions : Alerts.transition list;  (* newest first *)
}

(* The live health surface: everything except jobs_per_s is counted in
   commits/depths (deterministic at any jobs count); the final snapshot
   drops the wall-clock rate entirely so it diffs clean across runs. *)
let status st ~phase =
  {
    Health.version = Health.schema_version;
    phase;
    epoch = st.epoch_now;
    queue_depths = Job_queue.depths st.queue;
    high_water = Job_queue.high_water st.queue;
    overloads = Job_queue.overloads st.queue;
    measured = st.measured;
    recovered = st.recovered;
    carried = st.carried;
    timeouts = st.timeouts;
    commits = st.commits;
    journal_records = Engine.Journal.length st.store;
    journal_lag = Job_queue.depth st.queue;
    jobs_per_s =
      (if phase = "final" then None
       else
         let elapsed = Unix.gettimeofday () -. st.t_start in
         Some (if elapsed > 0.0 then float_of_int st.measured /. elapsed else 0.0));
    waits =
      Array.to_list (Array.mapi (fun prio h -> (prio, h)) st.wait_hists);
  }

let write_status st ~phase =
  match st.cfg.status_file with
  | None -> ()
  | Some path ->
    let extra = Option.map Alerts.gauges st.alerts in
    Health.write ?extra ~path (status st ~phase)

let observe_wait st (job : job) =
  Obs.Histogram.observe st.wait_hists.(job.prio)
    (float_of_int (st.commits - job.admitted_at))

(* Every journal write funnels through here so the crash-injection
   counter sees each commit exactly once, in commit order. *)
let commit st ~key ~value =
  Engine.Journal.put st.store ~key ~value;
  st.commits <- st.commits + 1;
  match st.cfg.kill_after_commits with
  | Some n when st.commits >= n -> Unix.kill (Unix.getpid ()) Sys.sigkill
  | _ -> ()

let process_batch st ~control =
  let batch = Job_queue.pop_batch st.queue st.cfg.batch in
  let cfg = st.cfg in
  let results =
    Engine.Pool.map_list ~jobs:cfg.jobs
      (fun job ->
        let t0 = Unix.gettimeofday () in
        let report =
          Internet.Census.explain_site ~epoch:job.epoch ~control ~proto:cfg.proto
            ~region:cfg.region job.site
        in
        (job, report, Unix.gettimeofday () -. t0))
      batch
  in
  List.iter
    (fun (job, report, elapsed) ->
      let key = job.key in
      if elapsed > cfg.deadline_s then begin
        (* hung measurement: route through the typed Timeout retry path *)
        st.timeouts <- st.timeouts + 1;
        Obs.Metrics.bump "serve.watchdog.timeouts";
        flight ~epoch:job.epoch ~event:"timeout" ~value:elapsed;
        let occurrences = job.timeouts_so_far + 1 in
        if occurrences > timeout_retry_budget then begin
          st.measured <- st.measured + 1;
          Obs.Metrics.bump "serve.measured";
          observe_wait st job;
          commit st ~key ~value:(timed_out_value ~attempts:occurrences)
        end
        else
          (* force: re-admitting already-accepted work must never be
             dropped by the high-water mark *)
          ignore
            (Job_queue.push st.queue ~prio:0 ~force:true
               { job with timeouts_so_far = occurrences; prio = 0;
                 admitted_at = st.commits })
      end
      else begin
        st.measured <- st.measured + 1;
        Obs.Metrics.bump "serve.measured";
        observe_wait st job;
        commit st ~key ~value:(value_of_report report)
      end)
    results;
  write_status st ~phase:"running"

(* Admission with backpressure: an Overloaded answer means the consumer
   is behind, so drain one batch in-line and try again. *)
let rec admit st ~control ~prio job =
  (* stamp at (each) admission attempt: backpressure drains commit work
     in between, and the wait histogram measures time-in-queue only *)
  let job = { job with prio; admitted_at = st.commits } in
  match Job_queue.push st.queue ~prio job with
  | Job_queue.Accepted -> ()
  | Job_queue.Overloaded ->
    process_batch st ~control;
    admit st ~control ~prio job
  | Job_queue.Closed -> invalid_arg "Serve.Service: queue closed while admitting"

let run_epoch st ~control ~websites epoch =
  let cfg = st.cfg in
  st.epoch_now <- epoch;
  let keyed =
    List.map
      (fun site ->
        (site, Internet.Census.cache_key ~control ~proto:cfg.proto ~region:cfg.region site))
      websites
  in
  List.iter
    (fun (site, base) ->
      let key = epoch_key epoch base in
      if Engine.Journal.mem st.store key then begin
        (* already durable: a previous (possibly killed) run measured it *)
        st.recovered <- st.recovered + 1;
        Obs.Metrics.bump "serve.recovered";
        flight ~epoch ~event:"recovered" ~value:(float_of_int site.Internet.Website.rank)
      end
      else
        let job = { site; key; epoch; timeouts_so_far = 0; prio = 1; admitted_at = 0 } in
        if epoch = 0 then admit st ~control ~prio:1 job
        else
          match Engine.Journal.find st.store (epoch_key (epoch - 1) base) with
          | Some prev when not (decayed cfg prev) ->
            (* stable verdict: carry it forward instead of re-measuring *)
            st.carried <- st.carried + 1;
            Obs.Metrics.bump "serve.carried";
            commit st ~key ~value:prev
          | Some _ | None -> admit st ~control ~prio:0 job)
    keyed;
  while Job_queue.depth st.queue > 0 do
    process_batch st ~control
  done;
  (* the epoch is fully durable: fold its verdicts into a
     Census_history snapshot (once) and a drift-ledger point (always —
     a resumed run rebuilds the same points from the same records) *)
  let values =
    List.filter_map (fun (_, base) -> Engine.Journal.find st.store (epoch_key epoch base)) keyed
  in
  let skey = snapshot_key epoch in
  if not (Engine.Journal.mem st.store skey) then begin
    let tally = Hashtbl.create 16 in
    List.iter
      (fun v ->
        let label = label_of_value v in
        Hashtbl.replace tally label
          (1 + Option.value ~default:0 (Hashtbl.find_opt tally label)))
      values;
    let counts =
      List.sort
        (fun (la, na) (lb, nb) -> if na <> nb then compare nb na else compare la lb)
        (Hashtbl.fold (fun l n acc -> (l, n) :: acc) tally [])
    in
    let snapshot =
      Internet.Census_history.snapshot_of_census ~total_hosts:cfg.sites counts
    in
    flight ~epoch ~event:"snapshot" ~value:(float_of_int (List.length counts));
    commit st ~key:skey ~value:(Obs.Json.to_string (snapshot_to_json snapshot))
  end;
  (* change-point detection over the ledger so far: CUSUM state is
     forward-only, so detecting on each prefix fires the same alarms
     the full-ledger pass would *)
  let point = Observatory.point_of_values ~epoch values in
  st.drift_points <- point :: st.drift_points;
  let ledger = Obs.Drift.make ~subject:"serve" (List.rev st.drift_points) in
  let events =
    List.filter
      (fun e -> Obs.Drift.event_epoch e = epoch)
      (Obs.Drift.detect ledger)
  in
  st.drift_event_count <- st.drift_event_count + List.length events;
  List.iter
    (fun e ->
      Obs.Metrics.bump "serve.drift.events";
      flight ~epoch ~event:"drift"
        ~value:
          (match e with
          | Obs.Drift.Emerged { rate_per_epoch; _ }
          | Obs.Drift.Collapsed { rate_per_epoch; _ }
          | Obs.Drift.Migration { rate_per_epoch; _ } ->
            rate_per_epoch))
    events;
  (match st.alerts with
  | None -> ()
  | Some engine ->
    let signal_value =
      Alerts.signal_values ~health:(status st ~phase:"running") ~point ~events ()
    in
    let edges = Alerts.evaluate engine ~epoch ~signal_value in
    List.iter
      (fun (tr : Alerts.transition) ->
        Obs.Metrics.bump "serve.alerts.transitions";
        flight ~epoch
          ~event:(match tr.action with Alerts.Fire -> "alert_fire" | Alerts.Resolve -> "alert_resolve")
          ~value:tr.value)
      edges;
    st.transitions <- List.rev_append edges st.transitions)

let run ~control ~config ~store =
  (* a zero-job batch drains nothing, so the queue would never empty *)
  if config.batch < 1 then invalid_arg "Service.run: batch must be >= 1";
  let torn = ref 0 in
  let on_warning msg =
    incr torn;
    Obs.Metrics.bump "serve.journal.torn";
    Obs.Flight.serve ~time:0.0 ~event:"torn_drop" ~value:1.0;
    Printf.eprintf "%s\n%!" msg
  in
  let journal = Engine.Journal.open_ ?max_entries:config.max_entries ~on_warning store in
  let st =
    {
      cfg = config;
      store = journal;
      queue = Job_queue.create ~levels:2 ~high_water:config.high_water ();
      commits = 0;
      measured = 0;
      recovered = 0;
      carried = 0;
      timeouts = 0;
      torn = Engine.Journal.torn_dropped journal;
      epoch_now = 0;
      t_start = Unix.gettimeofday ();
      wait_hists =
        Array.init 2 (fun prio ->
            Obs.Histogram.create
              ~name:(Printf.sprintf "serve.wait_ticks.prio%d" prio)
              ());
      alerts =
        (if config.alert_rules = [] then None else Some (Alerts.create config.alert_rules));
      drift_points = [];
      drift_event_count = 0;
      transitions = [];
    }
  in
  Fun.protect
    ~finally:(fun () -> Engine.Journal.close journal)
    (fun () ->
      let base = Internet.Population.generate ~n:config.sites ~seed:config.seed () in
      let websites_at epoch =
        match config.migration with
        | None -> base
        | Some migration ->
          Internet.Population.generate_at ~n:config.sites ~seed:config.seed ~migration
            ~epoch ()
      in
      for epoch = 0 to max 0 (config.epochs - 1) do
        run_epoch st ~control ~websites:(websites_at epoch) epoch
      done;
      (* graceful drain: stop admission, finish what is queued, then
         rewrite the store in canonical form *)
      Job_queue.close st.queue;
      while Job_queue.depth st.queue > 0 do
        process_batch st ~control
      done;
      flight ~epoch:(config.epochs - 1) ~event:"drain"
        ~value:(float_of_int (Engine.Journal.length journal));
      Engine.Journal.compact journal;
      write_status st ~phase:"final";
      Option.iter
        (fun path -> Alerts.write_log path (List.rev st.transitions))
        config.alert_log;
      {
        measured = st.measured;
        recovered = st.recovered;
        carried = st.carried;
        timeouts = st.timeouts;
        overloads = Job_queue.overloads st.queue;
        torn_dropped = st.torn;
        snapshots =
          List.length
            (List.filter
               (fun k -> String.length k >= 9 && String.sub k 0 9 = "snapshot|")
               (Engine.Journal.keys journal));
        drift_events = st.drift_event_count;
        alerts_fired =
          List.length
            (List.filter (fun tr -> tr.Alerts.action = Alerts.Fire) st.transitions);
      })

let compact_store ~store =
  let journal = Engine.Journal.open_ store in
  Fun.protect
    ~finally:(fun () -> Engine.Journal.close journal)
    (fun () ->
      Engine.Journal.compact journal;
      Engine.Journal.length journal)

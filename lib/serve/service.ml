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
  key : string;  (* journal key: epoch_key epoch (the slot's cache key) *)
  slot : int;  (* the site's position in its epoch's population *)
  epoch : int;
  timeouts_so_far : int;
  prio : int;
  admitted_at : int;  (* commit tick at admission, for the wait histograms *)
}

let flight ~epoch ~event ~value =
  Obs.Flight.serve ~time:(float_of_int epoch) ~event ~value

(* [base] is the site's Census.cache_key, computed once per run *)
let epoch_key epoch base = "e" ^ string_of_int epoch ^ "|" ^ base

let snapshot_key epoch = Printf.sprintf "snapshot|e%d" epoch

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

(* A committed verdict: the record text (committed again byte for byte
   when carried) and that text decoded once. *)
type held = { text : string; verdict : Verdict.t }

type state = {
  cfg : config;
  store : Engine.Journal.t;
  queue : job Job_queue.t;
  mutable commits : int;  (* records committed so far, for crash injection *)
  mutable carrying : (string * string) list;
      (* carried records committed but not yet written, newest first *)
  mutable measured : int;
  mutable recovered : int;
  mutable carried : int;
  mutable timeouts : int;
  mutable torn : int;
  mutable epoch_now : int;
  mutable held : held option array;  (* the running epoch's verdicts, by slot *)
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

(* Carried verdicts are written as one group: the slot loop queues them
   and this writes them, before any other record is committed, before a
   batch is measured and at the end of the slot loop, so the file holds
   every record in commit order. *)
let write_carried st =
  match st.carrying with
  | [] -> ()
  | group ->
    st.carrying <- [];
    Engine.Journal.put_group st.store (List.rev group)

(* Every commit funnels through here so the crash-injection counter sees
   each one exactly once, in commit order; a kill first writes the
   carried group up to this commit. *)
let committed st =
  st.commits <- st.commits + 1;
  match st.cfg.kill_after_commits with
  | Some n when st.commits >= n ->
    write_carried st;
    Unix.kill (Unix.getpid ()) Sys.sigkill
  | _ -> ()

let commit st ~key ~value =
  write_carried st;
  Engine.Journal.put st.store ~key ~value;
  committed st

let carry st ~key ~value =
  st.carrying <- (key, value) :: st.carrying;
  committed st

let commit_verdict st (job : job) verdict =
  let text = Verdict.to_string verdict in
  commit st ~key:job.key ~value:text;
  st.held.(job.slot) <- Some { text; verdict }

let process_batch st ~control =
  write_carried st;
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
          commit_verdict st job (Verdict.timed_out ~attempts:occurrences)
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
        commit_verdict st job (Verdict.of_report report)
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

(* [cache_keys] holds each slot's Census.cache_key: every epoch lists the
   same sites in the same order (a migration moves only deployments), and
   the key reads only rank, name, region, protocol and fingerprint *)
let run_epoch st ~control ~cache_keys ~websites epoch =
  let cfg = st.cfg in
  st.epoch_now <- epoch;
  (* the previous epoch's verdicts by slot: every epoch's population
     lists the same sites in the same order, and each slot was filled
     when its verdict was committed or recovered *)
  let prev = st.held in
  st.held <- Array.make (List.length websites) None;
  let recovered = st.recovered and carried = st.carried in
  List.iteri
    (fun slot site ->
      let key = epoch_key epoch cache_keys.(slot) in
      match Engine.Journal.find st.store key with
      | Some text ->
        (* already durable: a previous (possibly killed) run measured it *)
        st.recovered <- st.recovered + 1;
        flight ~epoch ~event:"recovered" ~value:(float_of_int site.Internet.Website.rank);
        st.held.(slot) <- Some { text; verdict = Verdict.of_string text }
      | None -> (
        let job = { site; key; slot; epoch; timeouts_so_far = 0; prio = 1; admitted_at = 0 } in
        if epoch = 0 then admit st ~control ~prio:1 job
        else
          match prev.(slot) with
          | Some h
            when Verdict.stable ~confidence_floor:cfg.confidence_floor
                   ~margin_floor:cfg.margin_floor h.verdict ->
            (* stable verdict: carry it forward instead of re-measuring *)
            st.carried <- st.carried + 1;
            carry st ~key ~value:h.text;
            st.held.(slot) <- prev.(slot)
          | Some _ | None -> admit st ~control ~prio:0 job))
    websites;
  write_carried st;
  (* one bump per epoch: bump hashes the counter's name *)
  let bump name n = if n > 0 then Obs.Metrics.bump ~by:n name in
  bump "serve.recovered" (st.recovered - recovered);
  bump "serve.carried" (st.carried - carried);
  while Job_queue.depth st.queue > 0 do
    process_batch st ~control
  done;
  (* the epoch is fully durable: fold its verdicts into a
     Census_history snapshot (once) and a drift-ledger point (always —
     a resumed run rebuilds the same points from the same records) *)
  let verdicts =
    Array.fold_right (fun h acc -> match h with Some h -> h.verdict :: acc | None -> acc)
      st.held []
  in
  let skey = snapshot_key epoch in
  if not (Engine.Journal.mem st.store skey) then begin
    let tally = Hashtbl.create 16 in
    List.iter
      (fun (v : Verdict.t) ->
        Hashtbl.replace tally v.label
          (1 + Option.value ~default:0 (Hashtbl.find_opt tally v.label)))
      verdicts;
    (* the snapshot sums counts per class, so their order is immaterial *)
    let counts = Hashtbl.fold (fun l n acc -> (l, n) :: acc) tally [] in
    let snapshot =
      Internet.Census_history.snapshot_of_census ~total_hosts:cfg.sites counts
    in
    flight ~epoch ~event:"snapshot" ~value:(float_of_int (List.length counts));
    commit st ~key:skey ~value:(Obs.Json.to_string (snapshot_to_json snapshot))
  end;
  (* change-point detection over the ledger so far: CUSUM state is
     forward-only, so detecting on each prefix fires the same alarms
     the full-ledger pass would *)
  let point = Observatory.point_of_verdicts ~epoch verdicts in
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
      carrying = [];
      measured = 0;
      recovered = 0;
      carried = 0;
      timeouts = 0;
      torn = Engine.Journal.torn_dropped journal;
      epoch_now = 0;
      held = [||];
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
      let cache_keys =
        Array.of_list
          (List.map
             (Internet.Census.cache_key ~control ~proto:config.proto ~region:config.region)
             base)
      in
      let websites_at epoch =
        match config.migration with
        | None -> base
        | Some migration ->
          Internet.Population.generate_at ~n:config.sites ~seed:config.seed ~migration
            ~epoch ()
      in
      for epoch = 0 to max 0 (config.epochs - 1) do
        run_epoch st ~control ~cache_keys ~websites:(websites_at epoch) epoch
      done;
      (* graceful drain: stop admission, finish what is queued, then
         rewrite the store in canonical form. The last epoch's verdicts
         are folded already; let them go before compaction reads the
         whole file. *)
      st.held <- [||];
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
        snapshots = Engine.Journal.count_prefix journal "snapshot|";
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

(* Status snapshots for the continuous-census daemon. See health.mli;
   the two properties that matter:

   - Writes go through Obs.Versioned.atomic_write, so a reader polling
     the path mid-run never sees a torn document.
   - Everything except jobs_per_s is measured in commit ticks or plain
     counts, so the final snapshot is a deterministic function of the
     workload and diffs clean across jobs counts. *)

type snapshot = {
  version : int;
  phase : string;
  epoch : int;
  queue_depths : int list;
  high_water : int;
  overloads : int;
  measured : int;
  recovered : int;
  carried : int;
  timeouts : int;
  commits : int;
  journal_records : int;
  journal_lag : int;
  jobs_per_s : float option;
  waits : (int * Obs.Histogram.t) list;
}

let schema_version = 1
let kind = "nebby_serve_status"

let to_json s =
  Obs.Json.Obj
    (Obs.Versioned.fields ~kind ~version:s.version
    @ [
      ("phase", Obs.Json.Str s.phase);
      ("epoch", Obs.Json.Num (float_of_int s.epoch));
      ( "queue_depths",
        Obs.Json.Arr (List.map (fun d -> Obs.Json.Num (float_of_int d)) s.queue_depths) );
      ("high_water", Obs.Json.Num (float_of_int s.high_water));
      ("overloads", Obs.Json.Num (float_of_int s.overloads));
      ("measured", Obs.Json.Num (float_of_int s.measured));
      ("recovered", Obs.Json.Num (float_of_int s.recovered));
      ("carried", Obs.Json.Num (float_of_int s.carried));
      ("timeouts", Obs.Json.Num (float_of_int s.timeouts));
      ("commits", Obs.Json.Num (float_of_int s.commits));
      ("journal_records", Obs.Json.Num (float_of_int s.journal_records));
      ("journal_lag", Obs.Json.Num (float_of_int s.journal_lag));
      ( "jobs_per_s",
        match s.jobs_per_s with Some r -> Obs.Json.Num r | None -> Obs.Json.Null );
      ( "waits",
        Obs.Json.Arr
          (List.map
             (fun (prio, h) ->
               Obs.Json.Obj
                 [
                   ("prio", Obs.Json.Num (float_of_int prio));
                   ("hist", Obs.Histogram.to_json h);
                 ])
             s.waits) );
    ])

let ctx = "serve status"
let get_int = Obs.Json.get_int ctx

let of_json j =
  Obs.Versioned.check ~kind ~version:schema_version j;
  {
    version = schema_version;
    phase = Obs.Json.get_str ctx "phase" j;
    epoch = get_int "epoch" j;
    queue_depths =
      List.map
        (fun d -> int_of_float (Obs.Json.num ctx d))
        (Obs.Json.get_arr ctx "queue_depths" j);
    high_water = get_int "high_water" j;
    overloads = get_int "overloads" j;
    measured = get_int "measured" j;
    recovered = get_int "recovered" j;
    carried = get_int "carried" j;
    timeouts = get_int "timeouts" j;
    commits = get_int "commits" j;
    journal_records = get_int "journal_records" j;
    journal_lag = get_int "journal_lag" j;
    jobs_per_s =
      (match Obs.Json.field ctx "jobs_per_s" j with
      | Obs.Json.Null -> None
      | r -> Some (Obs.Json.num ctx r));
    waits =
      List.map
        (fun w -> (get_int "prio" w, Obs.Histogram.of_json (Obs.Json.field ctx "hist" w)))
        (Obs.Json.get_arr ctx "waits" j);
  }

(* Prometheus text exposition. Quantiles follow the summary-metric
   convention; wait histograms are in commit ticks, which is what makes
   them comparable across hosts and jobs counts. *)
let to_prometheus ?(extra = "") s =
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string buf (l ^ "\n")) fmt in
  let num v =
    (* integers print bare, rates keep their precision *)
    if Float.is_integer v then Printf.sprintf "%.0f" v else Printf.sprintf "%.6g" v
  in
  line "# HELP nebby_serve_up 1 while the daemon is running, 0 once drained.";
  line "# TYPE nebby_serve_up gauge";
  line "nebby_serve_up %d" (if s.phase = "final" then 0 else 1);
  line "# HELP nebby_serve_queue_depth Queued jobs per priority level.";
  line "# TYPE nebby_serve_queue_depth gauge";
  List.iteri (fun prio d -> line "nebby_serve_queue_depth{prio=\"%d\"} %d" prio d)
    s.queue_depths;
  line "# HELP nebby_serve_overloads_total Admissions rejected with Overloaded.";
  line "# TYPE nebby_serve_overloads_total counter";
  line "nebby_serve_overloads_total %d" s.overloads;
  line "# HELP nebby_serve_measured_total Sites measured.";
  line "# TYPE nebby_serve_measured_total counter";
  line "nebby_serve_measured_total %d" s.measured;
  line "# HELP nebby_serve_recovered_total Keys found already journaled (crash recovery).";
  line "# TYPE nebby_serve_recovered_total counter";
  line "nebby_serve_recovered_total %d" s.recovered;
  line "# HELP nebby_serve_carried_total Non-decayed verdicts copied forward to the epoch.";
  line "# TYPE nebby_serve_carried_total counter";
  line "nebby_serve_carried_total %d" s.carried;
  line "# HELP nebby_serve_timeouts_total Watchdog deadline hits.";
  line "# TYPE nebby_serve_timeouts_total counter";
  line "nebby_serve_timeouts_total %d" s.timeouts;
  line "# HELP nebby_serve_commits_total Journal puts.";
  line "# TYPE nebby_serve_commits_total counter";
  line "nebby_serve_commits_total %d" s.commits;
  line "# HELP nebby_serve_journal_records Live keys in the verdict journal.";
  line "# TYPE nebby_serve_journal_records gauge";
  line "nebby_serve_journal_records %d" s.journal_records;
  line "# HELP nebby_serve_journal_lag Admitted jobs not yet committed.";
  line "# TYPE nebby_serve_journal_lag gauge";
  line "nebby_serve_journal_lag %d" s.journal_lag;
  (match s.jobs_per_s with
  | Some r ->
    line "# HELP nebby_serve_jobs_per_second Wall-clock measurement rate.";
    line "# TYPE nebby_serve_jobs_per_second gauge";
    line "nebby_serve_jobs_per_second %s" (num r)
  | None -> ());
  line
    "# HELP nebby_serve_wait_ticks Admission-to-commit wait per priority, in journal \
     commit ticks.";
  line "# TYPE nebby_serve_wait_ticks summary";
  List.iter
    (fun (prio, h) ->
      if Obs.Histogram.count h > 0 then begin
        List.iter
          (fun q ->
            line "nebby_serve_wait_ticks{prio=\"%d\",quantile=\"%g\"} %s" prio q
              (num (Obs.Histogram.quantile h q)))
          [ 0.5; 0.9; 0.99 ];
        line "nebby_serve_wait_ticks_sum{prio=\"%d\"} %s" prio
          (num (Obs.Histogram.sum h))
      end;
      line "nebby_serve_wait_ticks_count{prio=\"%d\"} %d" prio (Obs.Histogram.count h))
    s.waits;
  Buffer.add_string buf extra;
  Buffer.contents buf

let render s =
  let buf = Buffer.create 1024 in
  let row k v = Buffer.add_string buf (Printf.sprintf "%-24s %s\n" k v) in
  row "phase" s.phase;
  row "epoch" (string_of_int s.epoch);
  row "queue depth"
    (Printf.sprintf "%s (high water %d)"
       (String.concat "+" (List.map string_of_int s.queue_depths))
       s.high_water);
  row "overload arms" (string_of_int s.overloads);
  row "measured" (string_of_int s.measured);
  row "recovered" (string_of_int s.recovered);
  row "carried" (string_of_int s.carried);
  row "timeouts" (string_of_int s.timeouts);
  row "commits" (string_of_int s.commits);
  row "journal records" (string_of_int s.journal_records);
  row "journal lag" (string_of_int s.journal_lag);
  row "jobs/s"
    (match s.jobs_per_s with Some r -> Printf.sprintf "%.4g" r | None -> "-");
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Obs.Histogram.render
       (List.map
          (fun (prio, h) ->
            (* re-label per priority so the table reads on its own *)
            let labeled =
              Obs.Histogram.create
                ~name:(Printf.sprintf "serve.wait_ticks.prio%d" prio)
                ()
            in
            Obs.Histogram.merge_into ~dst:labeled h;
            labeled)
          s.waits));
  Buffer.contents buf

let write ?extra ~path s =
  let write path text = Obs.Versioned.atomic_write path (fun oc -> output_string oc text) in
  write path (Obs.Json.to_string (to_json s) ^ "\n");
  write (path ^ ".prom") (to_prometheus ?extra s)

let read path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  of_json (Obs.Json.of_string text)

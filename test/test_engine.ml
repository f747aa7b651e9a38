(* The multicore engine: the determinism contract (bit-identical results
   for every worker count), sharded-queue correctness, error propagation,
   and worker-telemetry flushing. *)

let proto = Netsim.Packet.Tcp
let region = Internet.Region.Ohio

(* A deliberately small control: these tests pin engine behaviour, not
   classification accuracy. *)
let control =
  lazy (Nebby.Training.train ~runs_per_cca:3 ~quic_runs_per_cca:2 ~seed:11 ())

let websites = lazy (Internet.Population.generate ~n:32 ~seed:5 ())

(* the jobs=1 path never spawns a domain, so it is the ground truth the
   parallel paths must reproduce *)
let reference_labels =
  lazy
    (Internet.Census.labels ~jobs:1 ~control:(Lazy.force control) ~proto ~region
       (Lazy.force websites))

let worker_counts = [ 1; 2; 4; 8 ]

(* ---------------- pool ---------------- *)

let test_map_order () =
  let xs = Array.init 100 Fun.id in
  let expected = Array.map (fun x -> x * x) xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "map preserves order at jobs=%d" jobs)
        expected
        (Engine.Pool.map ~jobs (fun x -> x * x) xs))
    worker_counts

let test_map_empty_and_tiny () =
  Alcotest.(check (array int)) "empty input" [||] (Engine.Pool.map ~jobs:4 (fun x -> x) [||]);
  Alcotest.(check (array int))
    "more workers than jobs" [| 2; 4 |]
    (Engine.Pool.map ~jobs:8 (fun x -> 2 * x) [| 1; 2 |])

let test_map_error_propagates () =
  List.iter
    (fun jobs ->
      match
        Engine.Pool.map ~jobs
          (fun x -> if x mod 10 = 7 then failwith (Printf.sprintf "boom %d" x) else x)
          (Array.init 64 Fun.id)
      with
      | _ -> Alcotest.fail "expected the job's exception to reach the caller"
      | exception Failure msg ->
        (* jobs 7, 17, 27, ... all fail; the lowest index must win so the
           error is deterministic too *)
        Alcotest.(check string)
          (Printf.sprintf "lowest failing job reported at jobs=%d" jobs)
          "boom 7" msg)
    worker_counts

let test_map_list () =
  Alcotest.(check (list int))
    "map_list preserves order" [ 1; 2; 3; 4; 5 ]
    (Engine.Pool.map_list ~jobs:3 (fun x -> x + 1) [ 0; 1; 2; 3; 4 ])

let test_worker_telemetry_flushed () =
  Obs.Runtime.with_armed (fun () ->
      Obs.Metrics.reset ();
      ignore
        (Engine.Pool.map ~jobs:4
           (fun i ->
             Obs.Metrics.incr (Obs.Metrics.counter "test.engine.work");
             i)
           (Array.init 20 Fun.id));
      Alcotest.(check int) "every worker increment reaches the collector" 20
        (Obs.Metrics.counter_value (Obs.Metrics.counter "test.engine.work"));
      Alcotest.(check int) "pool records the job count" 20
        (Obs.Metrics.counter_value (Obs.Metrics.counter "engine.pool.jobs"));
      Obs.Metrics.reset ())

(* A telemetry recording around a pool must see every worker's spans and
   counts: the summary read back is the same at jobs=1 and jobs=4, except
   for the pool's own engine.pool.* counters. *)
let telemetry_summary ~jobs =
  let path = Filename.temp_file "engine_telemetry" ".jsonl" in
  Obs.Metrics.reset ();
  Obs.Histogram.reset ();
  Obs.Telemetry.record ~jsonl:path (fun () ->
      ignore
        (Engine.Pool.map ~jobs
           (fun i ->
             Obs.Span.with_ ~name:"task" (fun () ->
                 Obs.Span.with_ ~name:"record" (fun () ->
                     let time = float_of_int i in
                     Obs.Flight.enqueue ~time ~size:1500 ~queue_bytes:i;
                     Obs.Flight.drop ~time ~size:1500 ~queue_bytes:i;
                     Obs.Flight.retx ~time ~seq:i;
                     Obs.Flight.fault ~time ~family:"test" ~detail:"";
                     Obs.Histogram.observe (Obs.Histogram.get "test.value") time)))
           (Array.init 24 Fun.id)));
  let s = Obs.Telemetry.read_summary path in
  Sys.remove path;
  Obs.Flight.clear ();
  Obs.Metrics.reset ();
  Obs.Histogram.reset ();
  let spans =
    List.sort compare (List.map (fun (name, n, _) -> (name, n)) s.Obs.Telemetry.spans)
  in
  let counters =
    List.filter_map
      (function
        | Obs.Metrics.Counter_snap { name; value }
          when not (String.starts_with ~prefix:"engine.pool." name) ->
          Some (name, value)
        | _ -> None)
      s.Obs.Telemetry.metrics
  in
  (spans, counters)

let test_telemetry_complete_at_any_jobs () =
  let spans1, counters1 = telemetry_summary ~jobs:1 in
  let spans4, counters4 = telemetry_summary ~jobs:4 in
  Alcotest.(check (list (pair string int))) "jobs=1 sees every span"
    [ ("record", 24); ("task", 24) ] spans1;
  Alcotest.(check (list (pair string int))) "jobs=4 spans equal jobs=1" spans1 spans4;
  Alcotest.(check (list (pair string int))) "jobs=1 counts every recorder call"
    [ ("faults.injected", 24); ("netsim.link.drops", 24); ("netsim.link.enqueued", 24);
      ("transport.retransmissions", 24) ]
    counters1;
  Alcotest.(check (list (pair string int))) "jobs=4 counters equal jobs=1" counters1 counters4

(* ---------------- pool task tracing ---------------- *)

let traced_run ~jobs n =
  Obs.Pooltrace.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.Pooltrace.set_enabled false)
    (fun () ->
      ignore (Engine.Pool.map ~jobs (fun x -> x * x) (Array.init n Fun.id));
      Obs.Pooltrace.drain ())

let test_trace_covers_every_task () =
  Obs.Histogram.reset ();
  let n = 32 in
  let trace = traced_run ~jobs:4 n in
  Alcotest.(check int) "job count recorded" n trace.Obs.Pooltrace.jobs;
  Alcotest.(check int) "one sample per task" n (List.length trace.Obs.Pooltrace.tasks);
  let indices =
    List.sort_uniq compare
      (List.map (fun t -> t.Obs.Pooltrace.index) trace.Obs.Pooltrace.tasks)
  in
  Alcotest.(check (list int)) "every index covered exactly once" (List.init n Fun.id) indices;
  List.iter
    (fun (t : Obs.Pooltrace.task) ->
      Alcotest.(check int)
        (Printf.sprintf "task %d owned by shard index mod workers" t.Obs.Pooltrace.index)
        (t.Obs.Pooltrace.index mod 4) t.Obs.Pooltrace.shard;
      Alcotest.(check bool)
        (Printf.sprintf "task %d stolen iff run off-shard" t.Obs.Pooltrace.index)
        t.Obs.Pooltrace.stolen
        (t.Obs.Pooltrace.worker <> t.Obs.Pooltrace.shard);
      Alcotest.(check bool)
        (Printf.sprintf "task %d timestamps ordered" t.Obs.Pooltrace.index)
        true
        (t.Obs.Pooltrace.t_submit <= t.Obs.Pooltrace.t_start
        && t.Obs.Pooltrace.t_start <= t.Obs.Pooltrace.t_finish))
    trace.Obs.Pooltrace.tasks;
  (* the record path also feeds the wait/run histograms *)
  Alcotest.(check int) "queue-wait histogram observed every task" n
    (Obs.Histogram.count (Obs.Histogram.get "pool.queue_wait_us"));
  Obs.Histogram.reset ()

let test_trace_serial_path () =
  Obs.Histogram.reset ();
  let trace = traced_run ~jobs:1 8 in
  Alcotest.(check int) "serial path records every task" 8
    (List.length trace.Obs.Pooltrace.tasks);
  List.iter
    (fun (t : Obs.Pooltrace.task) ->
      Alcotest.(check bool) "nothing stolen on the serial path" false t.Obs.Pooltrace.stolen;
      Alcotest.(check int) "worker 0" 0 t.Obs.Pooltrace.worker)
    trace.Obs.Pooltrace.tasks;
  Obs.Histogram.reset ()

let test_trace_off_records_nothing () =
  ignore (Obs.Pooltrace.drain ());
  ignore (Engine.Pool.map ~jobs:4 Fun.id (Array.init 16 Fun.id));
  let trace = Obs.Pooltrace.drain () in
  Alcotest.(check int) "disabled tracing buffers nothing" 0
    (List.length trace.Obs.Pooltrace.tasks)

let test_trace_round_trip_and_report () =
  Obs.Histogram.reset ();
  let trace = traced_run ~jobs:2 12 in
  let once = Obs.Pooltrace.to_string trace in
  let parsed = Obs.Pooltrace.of_string once in
  Alcotest.(check string) "to_string/of_string round-trip byte identical" once
    (Obs.Pooltrace.to_string parsed);
  Alcotest.(check string) "report is a pure function of the trace"
    (Obs.Pooltrace.report trace) (Obs.Pooltrace.report parsed);
  Alcotest.(check string) "chrome export deterministic for equal traces"
    (Obs.Pooltrace.to_chrome_string trace)
    (Obs.Pooltrace.to_chrome_string parsed);
  (* schema skew is a typed error, not a silent misparse *)
  let replace ~needle ~by hay =
    let nl = String.length needle in
    let rec find i =
      if i + nl > String.length hay then None
      else if String.sub hay i nl = needle then Some i
      else find (i + 1)
    in
    match find 0 with
    | None -> hay
    | Some i ->
      String.sub hay 0 i ^ by ^ String.sub hay (i + nl) (String.length hay - i - nl)
  in
  let version_field v = Printf.sprintf "\"version\":%d" v in
  let skewed =
    let with_space = replace
        ~needle:(Printf.sprintf "\"version\": %d" Obs.Pooltrace.schema_version)
        ~by:(Printf.sprintf "\"version\": %d" (Obs.Pooltrace.schema_version + 1))
        once
    in
    if with_space <> once then with_space
    else
      replace ~needle:(version_field Obs.Pooltrace.schema_version)
        ~by:(version_field (Obs.Pooltrace.schema_version + 1))
        once
  in
  (match Obs.Pooltrace.of_string skewed with
  | _ -> Alcotest.fail "expected Version_mismatch"
  | exception Obs.Versioned.Version_mismatch { kind; got; _ } ->
    Alcotest.(check string) "mismatch names the kind" "pool_trace" kind;
    Alcotest.(check int) "mismatch carries the skewed version"
      (Obs.Pooltrace.schema_version + 1) got);
  Obs.Histogram.reset ()

(* ---------------- census determinism ---------------- *)

let test_census_determinism () =
  let control = Lazy.force control in
  let websites = Lazy.force websites in
  let reference = Lazy.force reference_labels in
  let reference_tally = Internet.Census.tally_of_labels reference in
  List.iter
    (fun jobs ->
      let labels = Internet.Census.labels ~jobs ~control ~proto ~region websites in
      Alcotest.(check bool)
        (Printf.sprintf "per-site labels at jobs=%d match jobs=1" jobs)
        true (labels = reference);
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "tally at jobs=%d matches jobs=1" jobs)
        reference_tally
        (Internet.Census.run ~jobs ~control ~proto ~region websites))
    [ 2; 4; 8 ]

let suite =
  [
    Alcotest.test_case "pool map preserves order at every worker count" `Quick test_map_order;
    Alcotest.test_case "pool map: empty input, workers > jobs" `Quick test_map_empty_and_tiny;
    Alcotest.test_case "pool map re-raises the lowest-indexed error" `Quick
      test_map_error_propagates;
    Alcotest.test_case "pool map_list preserves order" `Quick test_map_list;
    Alcotest.test_case "worker telemetry is flushed at join" `Quick
      test_worker_telemetry_flushed;
    Alcotest.test_case "telemetry complete at jobs 1 and 4" `Quick
      test_telemetry_complete_at_any_jobs;
    Alcotest.test_case "pool trace covers every task at jobs=4" `Quick
      test_trace_covers_every_task;
    Alcotest.test_case "pool trace on the serial path" `Quick test_trace_serial_path;
    Alcotest.test_case "pool tracing off records nothing" `Quick
      test_trace_off_records_nothing;
    Alcotest.test_case "pool trace round-trip, report purity, version gate" `Quick
      test_trace_round_trip_and_report;
    Alcotest.test_case "32-site census identical for jobs 1/2/4/8" `Quick
      test_census_determinism;
  ]

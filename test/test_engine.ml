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

(* The caller is worker 0: it claims job 0 before spawning anyone, and
   jobs = k spawns at most k - 1 other domains. *)
let test_caller_is_worker_zero () =
  let caller = (Domain.self () :> int) in
  let ran_on =
    Engine.Pool.map ~jobs:4
      (fun _ ->
        Unix.sleepf 0.001;
        (Domain.self () :> int))
      (Array.init 32 Fun.id)
  in
  Alcotest.(check int) "job 0 runs on the calling domain" caller ran_on.(0);
  let others = List.sort_uniq compare (List.filter (( <> ) caller) (Array.to_list ran_on)) in
  Alcotest.(check bool)
    (Printf.sprintf "at most 3 other domains (saw %d)" (List.length others))
    true
    (List.length others <= 3)

(* The caller emits between its own jobs; when those are the slow ones,
   the other workers run ahead and emission must still go 0..n-1. *)
let test_map_stream_slow_caller_shard () =
  List.iter
    (fun jobs ->
      let n = 24 in
      let emitted = ref [] in
      let out =
        Engine.Pool.map_stream ~jobs
          ~emit:(fun i y -> emitted := (i, y) :: !emitted)
          (fun x ->
            if x mod jobs = 0 then Unix.sleepf 0.003;
            x + 1)
          (Array.init n Fun.id)
      in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "emission in index order at jobs=%d" jobs)
        (List.init n (fun i -> (i, i + 1)))
        (List.rev !emitted);
      Alcotest.(check (array int))
        (Printf.sprintf "results intact at jobs=%d" jobs)
        (Array.init n (fun i -> i + 1))
        out)
    [ 2; 4 ]

(* An [emit] that raises (a campaign store on a full disk) must not leave
   spawned workers unjoined: their counters are absorbed before the
   exception reaches the caller, and the pool is usable afterwards. *)
let test_map_stream_emit_raises () =
  ignore @@ Obs.Span.record (fun () ->
      Obs.Metrics.reset ();
      let ran = Atomic.make 0 in
      (match
         Engine.Pool.map_stream ~jobs:4
           ~emit:(fun i _ -> if i = 3 then failwith "disk full")
           (fun x ->
             Unix.sleepf 0.001;
             Atomic.incr ran;
             Obs.Metrics.incr (Obs.Metrics.counter "test.engine.work");
             x)
           (Array.init 32 Fun.id)
       with
      | _ -> Alcotest.fail "expected emit's exception to reach the caller"
      | exception Failure msg -> Alcotest.(check string) "emit's exception" "disk full" msg);
      Alcotest.(check int) "every job that ran was counted, worker counters included"
        (Atomic.get ran)
        (Obs.Metrics.counter_value (Obs.Metrics.counter "test.engine.work"));
      Alcotest.(check bool) "jobs 0..3 ran before emit failed" true (Atomic.get ran >= 4);
      Alcotest.(check int) "the pool joined all four workers" 4
        (Obs.Metrics.counter_value (Obs.Metrics.counter "engine.pool.workers"));
      Obs.Metrics.reset ());
  Alcotest.(check (array int))
    "a following map works" (Array.init 16 (fun i -> 2 * i))
    (Engine.Pool.map ~jobs:4 (fun x -> 2 * x) (Array.init 16 Fun.id))

let test_worker_telemetry_flushed () =
  ignore @@ Obs.Span.record (fun () ->
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
    [ ("pool.task", 24); ("record", 24); ("task", 24) ] spans1;
  Alcotest.(check (list (pair string int))) "jobs=4 spans equal jobs=1" spans1 spans4;
  Alcotest.(check (list (pair string int))) "jobs=1 counts every recorder call"
    [ ("faults.injected", 24); ("netsim.link.drops", 24); ("netsim.link.enqueued", 24);
      ("transport.retransmissions", 24) ]
    counters1;
  Alcotest.(check (list (pair string int))) "jobs=4 counters equal jobs=1" counters1 counters4

(* ---------------- pool task tracing ---------------- *)

(* The pool.task spans of one recorded pool run. *)
let traced_run ~jobs n =
  let _, spans =
    Obs.Span.record (fun () -> Engine.Pool.map ~jobs (fun x -> x * x) (Array.init n Fun.id))
  in
  Obs.Metrics.reset ();
  spans

let test_trace_covers_every_task ~jobs () =
  Obs.Histogram.reset ();
  let n = 32 in
  let spans = traced_run ~jobs n in
  let tasks = Obs.Pooltrace.tasks spans in
  Alcotest.(check int) "one pool.task span per task" n (List.length tasks);
  let indices = List.sort compare (List.map (fun t -> t.Obs.Pooltrace.index) tasks) in
  Alcotest.(check (list int)) "every index covered exactly once" (List.init n Fun.id) indices;
  List.iter
    (fun (t : Obs.Pooltrace.task) ->
      Alcotest.(check int)
        (Printf.sprintf "task %d owned by shard index mod workers" t.Obs.Pooltrace.index)
        (t.Obs.Pooltrace.index mod jobs) t.Obs.Pooltrace.shard;
      Alcotest.(check bool)
        (Printf.sprintf "task %d stolen iff run off-shard" t.Obs.Pooltrace.index)
        t.Obs.Pooltrace.stolen
        (t.Obs.Pooltrace.worker <> t.Obs.Pooltrace.shard);
      Alcotest.(check bool)
        (Printf.sprintf "task %d timestamps ordered" t.Obs.Pooltrace.index)
        true
        (t.Obs.Pooltrace.t_submit <= t.Obs.Pooltrace.t_start
        && t.Obs.Pooltrace.t_start <= t.Obs.Pooltrace.t_finish))
    tasks;
  (* the task spans also feed the registry's span histogram *)
  Alcotest.(check int) "span.pool.task histogram observed every task" n
    (Obs.Histogram.count (Obs.Histogram.get "span.pool.task"));
  Obs.Histogram.reset ()

let test_trace_serial_path () =
  Obs.Histogram.reset ();
  let tasks = Obs.Pooltrace.tasks (traced_run ~jobs:1 8) in
  Alcotest.(check int) "serial path records every task" 8 (List.length tasks);
  List.iter
    (fun (t : Obs.Pooltrace.task) ->
      Alcotest.(check bool) "nothing stolen on the serial path" false t.Obs.Pooltrace.stolen;
      Alcotest.(check int) "worker 0" 0 t.Obs.Pooltrace.worker)
    tasks;
  Obs.Histogram.reset ()

let test_trace_off_records_nothing () =
  Obs.Histogram.reset ();
  Alcotest.(check bool) "not armed" false (Obs.Runtime.armed ());
  ignore (Engine.Pool.map ~jobs:4 Fun.id (Array.init 16 Fun.id));
  Alcotest.(check (option int)) "a disarmed pool opens no task span" None
    (Option.map Obs.Histogram.count (Obs.Histogram.find "span.pool.task"))

(* Worker spans hang under the caller's open span, so a recording is the
   same tree at any pool size: equal folded paths and counts. *)
let test_worker_spans_under_caller () =
  let profile jobs =
    let _, spans =
      Obs.Span.record (fun () ->
          Obs.Span.with_ ~name:"outer" (fun () ->
              Engine.Pool.map ~jobs
                (fun x -> Obs.Span.with_ ~name:"work" (fun () -> x + 1))
                (Array.init 8 Fun.id)))
    in
    Obs.Metrics.reset ();
    Obs.Histogram.reset ();
    List.map (fun (e : Obs.Prof.entry) -> (e.Obs.Prof.path, e.stat.Obs.Prof.count))
      (Obs.Prof.of_spans spans)
  in
  let serial = profile 1 in
  Alcotest.(check (list (pair string int))) "paths at jobs=1"
    [ ("outer", 1); ("outer;pool.task", 8); ("outer;pool.task;work", 8) ]
    serial;
  Alcotest.(check (list (pair string int))) "jobs=2 folds like jobs=1" serial (profile 2)

let contains ~needle hay =
  let n = String.length needle in
  let rec at i = i + n <= String.length hay && (String.sub hay i n = needle || at (i + 1)) in
  at 0

let test_trace_round_trip_and_report () =
  Obs.Histogram.reset ();
  let spans = traced_run ~jobs:2 12 in
  let path = Filename.temp_file "engine_pool" ".jsonl" in
  Obs.Versioned.write_file path (fun oc ->
      List.iter
        (fun c ->
          output_string oc (Obs.Json.to_string (Obs.Span.to_json c));
          output_char oc '\n')
        spans);
  let parsed = Obs.Telemetry.read_spans path in
  Sys.remove path;
  Alcotest.(check bool) "spans survive a telemetry file" true (spans = parsed);
  Alcotest.(check string) "report is a pure function of the spans"
    (Obs.Pooltrace.report spans) (Obs.Pooltrace.report parsed);
  let chrome s = Obs.Json.to_string (Obs.Span.chrome_trace s) in
  Alcotest.(check string) "chrome export deterministic for equal spans" (chrome spans)
    (chrome parsed);
  (* one named thread per worker that ran a task *)
  let workers =
    List.sort_uniq compare
      (List.map (fun t -> t.Obs.Pooltrace.worker) (Obs.Pooltrace.tasks spans))
  in
  List.iter
    (fun w ->
      let needle = Printf.sprintf "\"worker %d\"" w in
      Alcotest.(check bool) (needle ^ " thread named") true
        (contains ~needle (chrome spans)))
    workers;
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

(* ---------------- training fan-out ---------------- *)

(* Training cells run through the pool and fold back in (proto, CCA,
   run) order: the golden-pinned control is byte-identical at any jobs. *)
let test_training_identical_at_any_jobs () =
  let train jobs = Nebby.Training.train ~runs_per_cca:4 ~quic_runs_per_cca:2 ~seed:7 ~jobs () in
  let serial = train 1 and parallel = train 4 in
  Alcotest.(check string) "fingerprint" serial.Nebby.Training.fingerprint
    parallel.Nebby.Training.fingerprint;
  Alcotest.(check bool) "samples" true
    (serial.Nebby.Training.samples = parallel.Nebby.Training.samples);
  Alcotest.(check (list (pair string (array int)))) "degree_hist"
    serial.Nebby.Training.degree_hist parallel.Nebby.Training.degree_hist

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
      (test_trace_covers_every_task ~jobs:4);
    Alcotest.test_case "pool trace on the serial path" `Quick test_trace_serial_path;
    Alcotest.test_case "pool tracing off records nothing" `Quick
      test_trace_off_records_nothing;
    Alcotest.test_case "pool trace round-trip, report purity, chrome threads" `Quick
      test_trace_round_trip_and_report;
    Alcotest.test_case "32-site census identical for jobs 1/2/4/8" `Quick
      test_census_determinism;
    (* Cases added after the original ones keep the earlier case indices stable. *)
    Alcotest.test_case "pool caller is worker 0, jobs=4 spawns at most 3" `Quick
      test_caller_is_worker_zero;
    Alcotest.test_case "pool map_stream in order with a slow caller shard" `Quick
      test_map_stream_slow_caller_shard;
    Alcotest.test_case "pool map_stream joins workers when emit raises" `Quick
      test_map_stream_emit_raises;
    Alcotest.test_case "pool trace covers every task at jobs=2" `Quick
      (test_trace_covers_every_task ~jobs:2);
    Alcotest.test_case "pool trace covers every task at jobs=1" `Quick
      (test_trace_covers_every_task ~jobs:1);
    Alcotest.test_case "training identical at jobs 1 and 4" `Quick
      test_training_identical_at_any_jobs;
    Alcotest.test_case "worker spans hang under the caller's open span" `Quick
      test_worker_spans_under_caller;
  ]

(* Tests for the flight recorder (Obs.Flight): ring-buffer wraparound at
   capacity boundaries, cross-domain drain/absorb losslessness, the
   anomaly triggers in Measurement, dump JSONL round trips, the
   Prof.folded frame sanitization, and deterministic HTML rendering. *)

let small_control =
  lazy (Nebby.Training.train ~runs_per_cca:4 ~quic_runs_per_cca:2 ~seed:7 ())

(* every test starts from a pristine recorder in this domain *)
let reset () =
  Obs.Flight.set_capacity Obs.Flight.default_capacity;
  Obs.Flight.set_enabled true;
  Obs.Runtime.set_level Obs.Runtime.Normal;
  Obs.Flight.clear ()

let seqs evs = List.map (fun (e : Obs.Flight.event) -> e.Obs.Flight.seq) evs

let sorted_values evs =
  List.sort compare (List.map (fun (e : Obs.Flight.event) -> e.Obs.Flight.a) evs)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ---- ring buffer ---- *)

let test_ring_wraparound () =
  reset ();
  Obs.Flight.set_capacity 16;
  Alcotest.(check int) "capacity floor honoured" 16 (Obs.Flight.capacity ());
  for i = 0 to 15 do
    Obs.Flight.drop ~time:(float_of_int i) ~size:i ~queue_bytes:0
  done;
  let evs = Obs.Flight.events () in
  Alcotest.(check int) "exactly at capacity: all events live" 16 (List.length evs);
  Alcotest.(check (list int)) "seqs 0..15 in order" (List.init 16 Fun.id) (seqs evs);
  (* four more pushes overwrite the four oldest slots *)
  for i = 16 to 19 do
    Obs.Flight.drop ~time:(float_of_int i) ~size:i ~queue_bytes:0
  done;
  let evs = Obs.Flight.events () in
  Alcotest.(check int) "still capacity events after wrap" 16 (List.length evs);
  Alcotest.(check (list int)) "oldest four evicted"
    (List.init 16 (fun i -> i + 4))
    (seqs evs);
  Alcotest.(check (list (float 1e-9))) "payloads follow their seqs"
    (List.init 16 (fun i -> float_of_int (i + 4)))
    (sorted_values evs);
  (* a mark taken now bounds later reads *)
  let m = Obs.Flight.mark () in
  Obs.Flight.drop ~time:99.0 ~size:99 ~queue_bytes:0;
  Alcotest.(check int) "since-mark readout" 1
    (List.length (Obs.Flight.events ~since:m ()));
  reset ()

let test_level_gating () =
  reset ();
  Obs.Runtime.set_level Obs.Runtime.Quiet;
  Obs.Flight.bif ~time:0.0 ~bytes:100;
  Obs.Flight.drop ~time:0.0 ~size:1 ~queue_bytes:0;
  Alcotest.(check int) "quiet keeps anomalies, drops the BiF series" 1
    (List.length (Obs.Flight.events ()));
  Obs.Runtime.set_level Obs.Runtime.Normal;
  Obs.Flight.enqueue ~time:0.0 ~size:1 ~queue_bytes:0;
  Obs.Flight.bif ~time:0.0 ~bytes:100;
  Alcotest.(check int) "normal adds BiF but not enqueues" 2
    (List.length (Obs.Flight.events ()));
  Obs.Runtime.set_level Obs.Runtime.Debug;
  Obs.Flight.enqueue ~time:0.0 ~size:1 ~queue_bytes:0;
  Alcotest.(check int) "debug records per-packet enqueues" 3
    (List.length (Obs.Flight.events ()));
  Obs.Flight.set_enabled false;
  Obs.Flight.drop ~time:0.0 ~size:1 ~queue_bytes:0;
  Alcotest.(check int) "disabled records nothing" 3
    (List.length (Obs.Flight.events ()));
  reset ()

let test_drain_absorb_lossless () =
  List.iter
    (fun jobs ->
      reset ();
      let n = 64 in
      let out =
        Engine.Pool.map_list ~jobs
          (fun i ->
            Obs.Flight.drop ~time:(float_of_int i) ~size:i ~queue_bytes:0;
            i)
          (List.init n Fun.id)
      in
      Alcotest.(check (list int)) "results in order" (List.init n Fun.id) out;
      let evs = Obs.Flight.events () in
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d: every worker event absorbed at join" jobs)
        n (List.length evs);
      Alcotest.(check (list (float 1e-9)))
        (Printf.sprintf "jobs=%d: payload multiset intact" jobs)
        (List.init n float_of_int) (sorted_values evs))
    [ 1; 2; 4; 8 ];
  reset ()

(* ---- measurement triggers ---- *)

let test_trigger_low_confidence_once () =
  reset ();
  let control = Lazy.force small_control in
  (* a threshold of 2 makes every verdict "low confidence" *)
  let config = { Nebby.Measurement.default_config with flight_confidence = 2.0 } in
  let r = Nebby.Measurement.measure_cca ~control ~config ~seed:1 "cubic" in
  match r.Nebby.Measurement.flight with
  | None -> Alcotest.fail "forced threshold produced no flight dump"
  | Some d ->
    Alcotest.(check int) "first trigger wins: dump is from attempt 1" 1
      d.Obs.Flight.attempt;
    if r.Nebby.Measurement.failures = [] then
      Alcotest.(check string) "trigger tag" "low_confidence" d.Obs.Flight.trigger;
    Alcotest.(check string) "subject cross-links to provenance" "cubic"
      d.Obs.Flight.subject;
    (match r.Nebby.Measurement.provenance with
    | Some p ->
      Alcotest.(check string) "same subject id as the verdict report"
        p.Obs.Provenance.subject d.Obs.Flight.subject
    | None -> Alcotest.fail "provenance missing");
    Alcotest.(check bool) "dump carries events" true (d.Obs.Flight.events <> [])

let test_no_trigger_no_dump () =
  reset ();
  let control = Lazy.force small_control in
  (* thresholds of 0 disarm the low-confidence trigger; seed 1 cubic
     classifies on the first attempt, so nothing fires *)
  let config =
    { Nebby.Measurement.default_config with flight_confidence = 0.0; flight_margin = 0.0 }
  in
  let r = Nebby.Measurement.measure_cca ~control ~config ~seed:1 "cubic" in
  Alcotest.(check bool) "clean measurement has no failures" true
    (r.Nebby.Measurement.failures = []);
  Alcotest.(check bool) "no trigger, no dump" true (r.Nebby.Measurement.flight = None)

(* ---- dump serialization ---- *)

let sample_dump =
  Obs.Flight.make_dump ~subject:"test-subject" ~trigger:"low_confidence" ~attempt:2
    ~window_s:10.0
    [
      {
        Obs.Flight.seq = 0; run = 1; time = 0.0; kind = Obs.Flight.Stage;
        a = 0.0; b = 0.0; c = 0.0; detail = "simulate:200kbps+50ms"; extra = "";
      };
      {
        Obs.Flight.seq = 1; run = 1; time = 0.125; kind = Obs.Flight.Bif;
        a = 2900.0; b = 0.0; c = 0.0; detail = ""; extra = "";
      };
      {
        Obs.Flight.seq = 2; run = 1; time = 0.25; kind = Obs.Flight.Cca_state;
        a = 14500.0; b = -1.0; c = 72500.5; detail = "cubic"; extra = "avoidance";
      };
      {
        Obs.Flight.seq = 3; run = 2; time = 0.1; kind = Obs.Flight.Drop;
        a = 1450.0; b = 29000.0; c = 0.0; detail = ""; extra = "";
      };
      {
        Obs.Flight.seq = 4; run = 2; time = 0.2; kind = Obs.Flight.Fault;
        a = 0.0; b = 0.0; c = 0.0; detail = "path.delay"; extra = "ack";
      };
    ]

let test_dump_roundtrip_bytes () =
  let text = Obs.Flight.dump_to_string sample_dump in
  let parsed = Obs.Flight.dump_of_string text in
  Alcotest.(check bool) "structural round trip" true (parsed = sample_dump);
  Alcotest.(check string) "serialize . parse . serialize is byte-identical" text
    (Obs.Flight.dump_to_string parsed);
  (* file round trip through write_dump/read_dump *)
  let path = Filename.temp_file "flight_test" ".jsonl" in
  let oc = open_out path in
  Obs.Flight.write_dump oc sample_dump;
  close_out oc;
  let re_read = Obs.Flight.read_dump path in
  Sys.remove path;
  Alcotest.(check bool) "file round trip" true (re_read = sample_dump)

(* replace the first occurrence of [sub] in [s] with [by] *)
let replace_once ~sub ~by s =
  let sl = String.length sub in
  let rec find i =
    if i + sl > String.length s then None
    else if String.sub s i sl = sub then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> s
  | Some i ->
    String.sub s 0 i ^ by ^ String.sub s (i + sl) (String.length s - i - sl)

let test_dump_version_gate () =
  let text = Obs.Flight.dump_to_string sample_dump in
  let bumped = replace_once ~sub:"\"version\":1" ~by:"\"version\":999" text in
  Alcotest.(check bool) "version field rewritten" true (text <> bumped);
  Alcotest.check_raises "future schema version raises"
    (Obs.Versioned.Version_mismatch
       { kind = "flight_dump"; expected = Obs.Flight.schema_version; got = 999 })
    (fun () -> ignore (Obs.Flight.dump_of_string bumped))

(* ---- Prof.folded frame sanitization ---- *)

let test_folded_sanitizes_frames () =
  let (), spans =
    Obs.Span.record (fun () ->
        Obs.Span.with_ ~name:"outer stage" (fun () ->
            Obs.Span.with_ ~name:"bad;frame\tname" (fun () -> ())))
  in
  let folded = Obs.Prof.folded (Obs.Prof.of_spans spans) in
  (* each folded line is "stack count": the stack is everything before
     the last space and must never contain whitespace, and the separator
     ';' may only appear as the frame join *)
  let stacks =
    List.filter_map
      (fun line ->
        if String.trim line = "" then None
        else
          match String.rindex_opt line ' ' with
          | None -> Alcotest.fail "folded line has no sample count"
          | Some i -> Some (String.sub line 0 i))
      (String.split_on_char '\n' folded)
  in
  Alcotest.(check bool) "';' and whitespace sanitized inside frames" true
    (List.mem "outer_stage;bad:frame_name" stacks);
  List.iter
    (fun stack ->
      String.iter
        (fun ch ->
          if ch = ' ' || ch = '\t' then
            Alcotest.fail "whitespace survived sanitization inside a stack")
        stack)
    stacks

(* ---- rendering ---- *)

let sample_provenance =
  Obs.Provenance.make ~subject:"test-subject" ~label:"cubic" ~confidence:0.42
    ~margin:0.1
    ~features:[ ("p50", [| 1.0; -2.5 |]) ]
    ~stages:[ { Obs.Provenance.stage = "bif:p50"; fields = [ ("points", 100.0) ] } ]
    ~candidates:
      [
        {
          Obs.Provenance.source = "loss_gnb"; label = "cubic"; score = -10.0;
          confidence = 0.42;
        };
        {
          Obs.Provenance.source = "loss_gnb"; label = "bic"; score = -20.0;
          confidence = 0.0;
        };
      ]

(* a dump rich enough to exercise every chart: an oscillating BiF series
   with cwnd snapshots and all four anomaly marks *)
let rich_dump =
  let events = ref [] in
  let seq = ref 0 in
  let push run time kind a detail extra =
    events :=
      { Obs.Flight.seq = !seq; run; time; kind; a; b = 0.0; c = 0.0; detail; extra }
      :: !events;
    incr seq
  in
  push 1 0.0 Obs.Flight.Stage 0.0 "simulate:200kbps+50ms" "";
  for i = 0 to 63 do
    let t = 0.05 *. float_of_int i in
    push 1 t Obs.Flight.Bif (10000.0 +. (4000.0 *. sin (2.0 *. Float.pi *. t))) "" "";
    if i mod 8 = 0 then push 1 t Obs.Flight.Cca_state 12000.0 "cubic" "avoidance"
  done;
  push 1 1.0 Obs.Flight.Drop 1450.0 "" "";
  push 1 1.5 Obs.Flight.Fault 0.0 "path.delay" "ack";
  push 1 2.0 Obs.Flight.Stall 2.5 "" "";
  push 1 2.2 Obs.Flight.Retx 7.0 "" "";
  Obs.Flight.make_dump ~subject:"test-subject" ~trigger:"low_confidence" ~attempt:1
    ~window_s:10.0 (List.rev !events)

let sample_profile =
  [
    {
      Obs.Prof.path = "measure";
      stat =
        {
          Obs.Prof.count = 1; wall_s = 2.0; self_s = 0.5; alloc_words = 0.0;
          major_collections = 0;
        };
    };
    {
      Obs.Prof.path = "measure;simulate";
      stat =
        {
          Obs.Prof.count = 4; wall_s = 1.5; self_s = 1.5; alloc_words = 0.0;
          major_collections = 0;
        };
    };
  ]

let test_render_deterministic () =
  let render () =
    Obs.Render.measurement_report ~provenance:sample_provenance ~prof:sample_profile
      ~dump:rich_dump ()
  in
  let a = render () and b = render () in
  Alcotest.(check string) "byte-identical across renders" a b;
  Alcotest.(check bool) "self-contained: no scripts" false (contains ~needle:"<script" a);
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "report contains %S" needle) true
        (contains ~needle a))
    [
      "<svg"; "bytes in flight"; "cwnd"; "Frequency spectrum"; "dominant";
      "Per-stage waterfall"; "Candidate scores"; "low_confidence"; "test-subject";
      "simulate:200kbps+50ms";
    ]

let test_render_optional_sections () =
  let plain = Obs.Render.measurement_report ~dump:rich_dump () in
  Alcotest.(check bool) "no waterfall without a profile" false
    (contains ~needle:"Per-stage waterfall" plain);
  Alcotest.(check bool) "no candidate table without provenance" false
    (contains ~needle:"Candidate scores" plain);
  (* a quiet-level dump (anomalies only) degrades to a note, not charts *)
  let quiet_dump =
    Obs.Flight.make_dump ~subject:"q" ~trigger:"failure:timeout" ~attempt:1 ~window_s:10.0
      [
        {
          Obs.Flight.seq = 0; run = 1; time = 0.5; kind = Obs.Flight.Drop;
          a = 1450.0; b = 0.0; c = 0.0; detail = ""; extra = "";
        };
      ]
  in
  let quiet = Obs.Render.measurement_report ~dump:quiet_dump () in
  Alcotest.(check bool) "quiet dump renders without charts" false
    (contains ~needle:"<polyline" quiet);
  Alcotest.(check bool) "quiet dump notes the missing series" true
    (contains ~needle:"no BiF series recorded" quiet)

let suite =
  [
    Alcotest.test_case "ring wraparound at capacity boundaries" `Quick
      test_ring_wraparound;
    Alcotest.test_case "detail levels gate what is recorded" `Quick test_level_gating;
    Alcotest.test_case "drain/absorb lossless across 1/2/4/8 domains" `Quick
      test_drain_absorb_lossless;
    Alcotest.test_case "low-confidence trigger fires exactly once" `Quick
      test_trigger_low_confidence_once;
    Alcotest.test_case "no trigger, no dump" `Quick test_no_trigger_no_dump;
    Alcotest.test_case "dump jsonl round trip is byte-identical" `Quick
      test_dump_roundtrip_bytes;
    Alcotest.test_case "dump schema version gate fails loudly" `Quick
      test_dump_version_gate;
    Alcotest.test_case "folded stacks sanitize ';' and whitespace" `Quick
      test_folded_sanitizes_frames;
    Alcotest.test_case "html report renders deterministically" `Quick
      test_render_deterministic;
    Alcotest.test_case "optional sections appear only when supplied" `Quick
      test_render_optional_sections;
  ]

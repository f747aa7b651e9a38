(* Tests for the lib/obs telemetry subsystem: metrics correctness, span
   trees, the silent no-sink fast path, JSONL round-trips, and the
   per-stage counters a full measurement records. *)

let small_control = lazy (Nebby.Training.train ~runs_per_cca:4 ~quic_runs_per_cca:2 ())

(* ---- metrics ---- *)

let test_counter_updates () =
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter "t.counter" in
  for _ = 1 to 10_000 do
    Obs.Metrics.incr c
  done;
  Obs.Metrics.add c 500;
  Alcotest.(check int) "10500 after 10000 incrs + add 500" 10_500 (Obs.Metrics.counter_value c);
  Alcotest.(check int) "same handle via registry" 10_500
    (Obs.Metrics.counter_value (Obs.Metrics.counter "t.counter"))

let test_gauge () =
  Obs.Metrics.reset ();
  let g = Obs.Metrics.gauge "t.gauge" in
  Obs.Metrics.set g 1.5;
  Obs.Metrics.set g 2.5;
  Alcotest.(check (float 1e-9)) "last write wins" 2.5 (Obs.Metrics.gauge_value g)

(* ---- spans ---- *)

let test_span_tree () =
  let result, completed =
    Obs.Span.record (fun () ->
        Obs.Span.with_ ~name:"root" (fun () ->
            Obs.Span.with_ ~name:"child1" (fun () -> ());
            Obs.Span.with_ ~name:"child2" (fun () ->
                Obs.Span.with_ ~name:"grand" (fun () -> 17))))
  in
  Alcotest.(check int) "with_ is transparent" 17 result;
  let by_name name =
    match List.find_opt (fun c -> c.Obs.Span.name = name) completed with
    | Some c -> c
    | None -> Alcotest.fail ("span not recorded: " ^ name)
  in
  let root = by_name "root" and c1 = by_name "child1" in
  let c2 = by_name "child2" and grand = by_name "grand" in
  Alcotest.(check bool) "root has no parent" true (root.Obs.Span.parent_id = None);
  Alcotest.(check int) "root depth" 0 root.Obs.Span.depth;
  Alcotest.(check bool) "child1 under root" true (c1.Obs.Span.parent_id = Some root.Obs.Span.id);
  Alcotest.(check bool) "child2 under root" true (c2.Obs.Span.parent_id = Some root.Obs.Span.id);
  Alcotest.(check bool) "grand under child2" true
    (grand.Obs.Span.parent_id = Some c2.Obs.Span.id);
  Alcotest.(check int) "grand depth" 2 grand.Obs.Span.depth;
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (c.Obs.Span.name ^ " stop after start")
        true
        (c.Obs.Span.wall_s >= 0.0))
    completed;
  (* the stats summary folds each span into its duration histogram *)
  match
    List.find_opt
      (fun h -> Obs.Histogram.name h = "span.root")
      (Obs.Telemetry.span_histograms completed)
  with
  | Some h -> Alcotest.(check int) "span.root observed once" 1 (Obs.Histogram.count h)
  | None -> Alcotest.fail "span.root histogram missing"

let test_span_exception () =
  Obs.Metrics.reset ();
  let (), completed =
    Obs.Span.record (fun () ->
        (try Obs.Span.with_ ~name:"boom" (fun () -> failwith "boom") with Failure _ -> ());
        (* the stack must be clean: a sibling span opened afterwards is a root *)
        Obs.Span.with_ ~name:"after" (fun () -> ()))
  in
  let find name = List.find (fun c -> c.Obs.Span.name = name) completed in
  Alcotest.(check bool) "raised flagged" true (find "boom").Obs.Span.raised;
  Alcotest.(check bool) "sibling is a root" true ((find "after").Obs.Span.parent_id = None)

(* ---- no-sink fast path ---- *)

let test_no_sink_emits_nothing () =
  Obs.Metrics.reset ();
  Alcotest.(check bool) "not armed" false (Obs.Runtime.armed ());
  let r = Obs.Span.with_ ~name:"silent" (fun () -> 42) in
  Alcotest.(check int) "span body still runs" 42 r;
  ignore (Nebby.Testbed.run_cca ~profile:Nebby.Profile.delay_50ms ~seed:5 "cubic");
  Alcotest.(check int) "registry untouched by an uninstrumented run" 0
    (List.length (Obs.Metrics.snapshot ()))

let test_armed_run_records () =
  Obs.Metrics.reset ();
  let r, spans =
    Obs.Span.record (fun () ->
        let r = Nebby.Testbed.run_cca ~profile:Nebby.Profile.delay_50ms ~seed:5 "cubic" in
        ignore (Nebby.Measurement.prepare_result ~profile:Nebby.Profile.delay_50ms r);
        r)
  in
  let histogram name =
    List.find_opt (fun h -> Obs.Histogram.name h = name) (Obs.Telemetry.span_histograms spans)
  in
  Alcotest.(check bool) "disarmed again" false (Obs.Runtime.armed ());
  let counter_value name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
  Alcotest.(check bool) "sim events counted" true (counter_value "netsim.sim.events" > 0);
  Alcotest.(check bool) "packets counted" true (counter_value "netsim.link.enqueued" > 0);
  (match histogram "span.simulate" with
  | Some h ->
    Alcotest.(check int) "one simulate span" 1 (Obs.Histogram.count h);
    Alcotest.(check bool) "positive duration" true (Obs.Histogram.sum h > 0.0)
  | None -> Alcotest.fail "span.simulate histogram missing");
  match histogram "span.virt.simulate" with
  | Some h ->
    (* the transfer's simulated time, which ends well before the 60 s
       time limit *)
    Alcotest.(check (float 0.0)) "virtual duration is the transfer's" r.duration
      (Obs.Histogram.sum h);
    Alcotest.(check bool) "under the time limit" true (r.duration < 59.0)
  | None -> Alcotest.fail "span.virt.simulate histogram missing"

(* ---- JSONL round trip ---- *)

let test_jsonl_roundtrip () =
  Obs.Metrics.reset ();
  let path = Filename.temp_file "obs_test" ".jsonl" in
  Obs.Telemetry.record ~jsonl:path (fun () ->
      Obs.Metrics.bump "t.attempts";
      Obs.Metrics.set (Obs.Metrics.gauge "t.depth") 2.5;
      Obs.Span.with_ ~name:"stage" (fun () -> ()));
  let r = Obs.Telemetry.read path in
  Sys.remove path;
  Alcotest.(check bool) "counter survives" true
    (List.mem (Obs.Metrics.Counter_snap { name = "t.attempts"; value = 1 })
       r.Obs.Telemetry.metrics);
  Alcotest.(check bool) "gauge survives" true
    (List.mem (Obs.Metrics.Gauge_snap { name = "t.depth"; value = 2.5 }) r.Obs.Telemetry.metrics);
  Alcotest.(check (list string)) "stage span read back" [ "stage" ]
    (List.map (fun c -> c.Obs.Span.name) r.Obs.Telemetry.spans);
  Alcotest.(check (list string)) "its duration histogram is derived" [ "span.stage" ]
    (List.map Obs.Histogram.name (Obs.Telemetry.span_histograms r.Obs.Telemetry.spans))

(* ---- the one reader is strict: a single bad line fails the file ---- *)

let test_read_rejects_garbage () =
  let path = Filename.temp_file "obs_garbage" ".jsonl" in
  Obs.Telemetry.record ~jsonl:path (fun () -> Obs.Span.with_ ~name:"stage" (fun () -> ()));
  Alcotest.(check int) "the clean file reads" 1
    (List.length (Obs.Telemetry.read path).Obs.Telemetry.spans);
  Out_channel.with_open_gen [ Open_append ] 0o644 path (fun oc ->
      output_string oc "not json at all\n");
  let rejected =
    match Obs.Telemetry.read path with
    | _ -> false
    | exception Obs.Json.Parse_error _ -> true
  in
  Sys.remove path;
  Alcotest.(check bool) "one garbage line raises Parse_error" true rejected

(* ---- span lines: of_json inverts to_json ---- *)

let test_span_json_roundtrip () =
  let (), spans =
    Obs.Span.record (fun () ->
        Obs.Span.with_ ~attrs:[ ("index", 3.0); ("submit", 1.25e9 +. 0.1) ] ~name:"outer"
          (fun () ->
            ignore (Nebby.Testbed.run_cca ~profile:Nebby.Profile.delay_50ms ~seed:5 "cubic");
            try Obs.Span.with_ ~name:"boom" (fun () -> failwith "boom") with Failure _ -> ()))
  in
  Alcotest.(check bool) "a simulated span carries virtual time" true
    (List.exists (fun c -> c.Obs.Span.virt_s <> None) spans);
  Alcotest.(check bool) "a raised span is recorded" true
    (List.exists (fun c -> c.Obs.Span.raised) spans);
  List.iter
    (fun c ->
      let line = Obs.Json.to_string (Obs.Span.to_json c) in
      Alcotest.(check bool)
        (c.Obs.Span.name ^ ": of_json (to_json c) = c")
        true
        (Obs.Span.of_json (Obs.Json.of_string line) = c))
    spans

(* ---- records nest: --prof around --telemetry sees the file's spans ---- *)

let test_nested_record () =
  let path = Filename.temp_file "obs_nested" ".jsonl" in
  let (), outer =
    Obs.Span.record (fun () ->
        Obs.Telemetry.record ~jsonl:path (fun () ->
            ignore
              (Engine.Pool.map ~jobs:2
                 (fun profile ->
                   let r = Nebby.Testbed.run_cca ~profile ~seed:5 "cubic" in
                   ignore (Nebby.Measurement.prepare_result ~profile r))
                 [| Nebby.Profile.delay_50ms; Nebby.Profile.delay_100ms |])))
  in
  let in_file = (Obs.Telemetry.read path).Obs.Telemetry.spans in
  Sys.remove path;
  Alcotest.(check bool) "the inner record's spans reach the outer one" true (outer <> []);
  Alcotest.(check bool) "profiler and telemetry file hold the same spans" true
    (outer = in_file);
  Alcotest.(check string) "and the same profile"
    (Obs.Prof.render (Obs.Prof.of_spans outer))
    (Obs.Prof.render (Obs.Prof.of_spans in_file))

let test_json_parser () =
  let j = Obs.Json.of_string {|{"kind":"x","n":1.5,"s":"a\"b","l":[1,2,null,true]}|} in
  Alcotest.(check (option string)) "string member" (Some "a\"b")
    (Option.bind (Obs.Json.member "s" j) Obs.Json.to_str);
  Alcotest.(check (option (float 1e-9))) "number member" (Some 1.5)
    (Option.bind (Obs.Json.member "n" j) Obs.Json.to_float);
  (match Option.bind (Obs.Json.member "l" j) Obs.Json.to_list with
  | Some l -> Alcotest.(check int) "list length" 4 (List.length l)
  | None -> Alcotest.fail "list member missing");
  Alcotest.check_raises "trailing garbage rejected"
    (Obs.Json.Parse_error "trailing garbage at offset 3") (fun () ->
      ignore (Obs.Json.of_string "{} x"))

(* ---- string escaping: control chars, non-ASCII, \u escapes ---- *)

let test_json_string_escaping () =
  (* every single-byte string must round trip byte-for-byte, and the
     encoded form must never contain a raw control character *)
  for b = 0 to 255 do
    let s = String.make 1 (Char.chr b) in
    let encoded = Obs.Json.to_string (Obs.Json.Str s) in
    String.iter
      (fun c ->
        if Char.code c < 0x20 then
          Alcotest.fail (Printf.sprintf "byte 0x%02x encoded with a raw control char" b))
      encoded;
    match Obs.Json.to_str (Obs.Json.of_string encoded) with
    | Some s' -> Alcotest.(check string) (Printf.sprintf "byte 0x%02x round trips" b) s s'
    | None -> Alcotest.fail (Printf.sprintf "byte 0x%02x did not decode to a string" b)
  done;
  (* multi-byte UTF-8 passes through raw and untouched *)
  let s = "caf\xc3\xa9 \xe2\x96\x88 \xf0\x9f\x94\xa5" in
  Alcotest.(check (option string)) "utf-8 passthrough" (Some s)
    (Obs.Json.to_str (Obs.Json.of_string (Obs.Json.to_string (Obs.Json.Str s))))

let test_json_unicode_escapes () =
  let decode s = Obs.Json.to_str (Obs.Json.of_string s) in
  Alcotest.(check (option string)) "ascii escape" (Some "A") (decode {|"\u0041"|});
  Alcotest.(check (option string)) "2-byte escape" (Some "\xc3\xa9") (decode {|"\u00E9"|});
  Alcotest.(check (option string)) "3-byte escape" (Some "\xe2\x82\xac")
    (decode {|"\u20AC"|});
  Alcotest.(check (option string)) "surrogate pair -> 4-byte scalar"
    (Some "\xf0\x9f\x98\x80")
    (decode {|"\uD83D\uDE00"|});
  Alcotest.(check (option string)) "unpaired high surrogate -> U+FFFD"
    (Some "\xef\xbf\xbdx")
    (decode {|"\uD83Dx"|});
  Alcotest.(check (option string)) "lone low surrogate -> U+FFFD" (Some "\xef\xbf\xbd")
    (decode {|"\uDC00"|});
  (* escaped control characters decode back to the raw byte *)
  Alcotest.(check (option string)) "escaped NUL" (Some "\x00") (decode {|"\u0000"|});
  Alcotest.(check bool) "malformed hex rejected" true
    (match decode {|"\u00zz"|} with
    | exception Obs.Json.Parse_error _ -> true
    | _ -> false)

let test_json_nesting_limit () =
  let nested depth = String.make depth '[' ^ String.make depth ']' in
  let rec depth_of = function
    | Obs.Json.Arr [] -> 1
    | Obs.Json.Arr [ x ] -> 1 + depth_of x
    | _ -> Alcotest.fail "unexpected shape"
  in
  let m = Obs.Json.max_depth in
  Alcotest.(check int) "arrays at the limit parse" m (depth_of (Obs.Json.of_string (nested m)));
  let objects depth =
    String.concat "" (List.init depth (fun _ -> "{\"a\":")) ^ "1" ^ String.make depth '}'
  in
  ignore (Obs.Json.of_string (objects m));
  let rejected s =
    match Obs.Json.of_string s with
    | exception Obs.Json.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "arrays one past the limit are a Parse_error" true
    (rejected (nested (m + 1)));
  Alcotest.(check bool) "objects one past the limit are a Parse_error" true
    (rejected (objects (m + 1)));
  Alcotest.(check bool) "a 200k-deep run is a Parse_error, not a stack overflow" true
    (rejected (String.make 200_000 '['))

(* ---- span path, gc accounting, and the Fun.protect guard ---- *)

let test_span_path_and_alloc () =
  let (), completed =
    Obs.Span.record (fun () ->
        Obs.Span.with_ ~name:"outer" (fun () ->
            Obs.Span.with_ ~name:"inner" (fun () ->
                ignore (Sys.opaque_identity (Array.make 100_000 0.0)))))
  in
  let find name = List.find (fun c -> c.Obs.Span.name = name) completed in
  Alcotest.(check (list string)) "nested path is root-first" [ "outer"; "inner" ]
    (find "inner").Obs.Span.path;
  Alcotest.(check (list string)) "root path is just the root" [ "outer" ]
    (find "outer").Obs.Span.path;
  Alcotest.(check bool) "allocation attributed to the allocating span" true
    ((find "inner").Obs.Span.alloc_words >= 100_000.0);
  Alcotest.(check bool) "allocation included in the enclosing span" true
    ((find "outer").Obs.Span.alloc_words >= (find "inner").Obs.Span.alloc_words)

let test_span_unbalanced_exit () =
  (* the Fun.protect guard: an exception mid-body still pops the stack,
     reports the span (raised = true), and leaves the tree coherent *)
  let (), completed =
    Obs.Span.record (fun () ->
        (try
           Obs.Span.with_ ~name:"guard_outer" (fun () ->
               Obs.Span.with_ ~name:"guard_inner" (fun () -> failwith "kaboom"))
         with Failure _ -> ());
        Obs.Span.with_ ~name:"guard_after" (fun () -> ()))
  in
  let find name = List.find (fun c -> c.Obs.Span.name = name) completed in
  Alcotest.(check bool) "inner flagged raised" true (find "guard_inner").Obs.Span.raised;
  Alcotest.(check bool) "outer flagged raised" true (find "guard_outer").Obs.Span.raised;
  Alcotest.(check (list string)) "stack clean: next span is a root again"
    [ "guard_after" ]
    (find "guard_after").Obs.Span.path

(* ---- drain/absorb edge cases ---- *)

let test_histogram_bimodal () =
  let h = Obs.Histogram.create ~name:"t.bimodal" () in
  (* 90 small values and 10 large ones: p50 must sit in the low mode,
     p99 in the high mode *)
  for _ = 1 to 90 do
    Obs.Histogram.observe h 0.001
  done;
  for _ = 1 to 10 do
    Obs.Histogram.observe h 10.0
  done;
  List.iter
    (fun (q, expected) ->
      let v = Obs.Histogram.quantile h q in
      let rel = Float.abs (v -. expected) /. Float.max 1.0 expected in
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f = %.3f within 5%% of %.3f" (q *. 100.0) v expected)
        true (rel < 0.05))
    [ (0.50, 0.001); (0.99, 10.0) ]

let test_drain_empty_registry () =
  Obs.Metrics.reset ();
  Alcotest.(check int) "empty registry drains to nothing" 0
    (List.length (Obs.Metrics.drain ()));
  Obs.Metrics.absorb [];
  Alcotest.(check int) "absorbing nothing is a no-op" 0
    (List.length (Obs.Metrics.snapshot ()))

(* ---- the full measurement's per-stage counters ---- *)

(* numeric cells of the histogram rows [render_summary] prints: name,
   count, sum, p50, p90, p99, max *)
let rendered_quantiles text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         match List.filter (( <> ) "") (String.split_on_char ' ' line) with
         | [ name; _; _; p50; p90; p99; max_v ] -> (
           match List.map float_of_string_opt [ p50; p90; p99; max_v ] with
           | [ Some p50; Some p90; Some p99; Some max_v ] ->
             Some (name, [ p50; p90; p99 ], max_v)
           | _ -> None)
         | _ -> None)

let test_measure_event_kinds () =
  let control = Lazy.force small_control in
  Obs.Metrics.reset ();
  let path = Filename.temp_file "obs_measure" ".jsonl" in
  let report =
    Obs.Telemetry.record ~jsonl:path (fun () ->
        Nebby.Measurement.measure ~control ~proto:Netsim.Packet.Tcp ~noise:Netsim.Path.mild
          ~seed:42 ~make_cca:(Cca.Registry.create "cubic") ())
  in
  let recording = Obs.Telemetry.read path in
  Sys.remove path;
  Alcotest.(check bool) "classification produced a label" true
    (String.length report.Nebby.Measurement.label > 0);
  Alcotest.(check bool) "disarmed afterwards" false (Obs.Runtime.armed ());
  (* every pipeline stage (netsim, transport, BiF pipeline, classifier,
     measurement driver) counted its occurrences *)
  let counter name =
    List.find_map
      (function
        | Obs.Metrics.Counter_snap { name = n; value } when n = name -> Some value
        | _ -> None)
      recording.Obs.Telemetry.metrics
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) ("counted: " ^ name) true
        (match counter name with Some v -> v > 0 | None -> false))
    [
      "netsim.sim.runs";
      "netsim.link.enqueued";
      "netsim.link.drops";
      "transport.acks";
      "transport.retransmissions";
      "pipeline.backoffs";
      "pipeline.segments";
      "classifier.votes";
      "measurement.attempts";
      "measurement.done";
    ];
  (* the printed quantiles of every histogram stay within its max *)
  let rows = rendered_quantiles (Obs.Telemetry.render_summary recording) in
  Alcotest.(check bool) "histogram rows rendered" true
    (List.exists (fun (name, _, _) -> name = "span.virt.simulate") rows);
  List.iter
    (fun (name, quantiles, max_v) ->
      List.iter
        (fun q ->
          Alcotest.(check bool)
            (Printf.sprintf "%s quantile %g <= max %g" name q max_v)
            true (q <= max_v))
        quantiles)
    rows

let suite =
  [
    Alcotest.test_case "counter sequential updates" `Quick test_counter_updates;
    Alcotest.test_case "gauge last-write-wins" `Quick test_gauge;
    Alcotest.test_case "span nesting forms a tree" `Quick test_span_tree;
    Alcotest.test_case "span survives exceptions" `Quick test_span_exception;
    Alcotest.test_case "no sink: fast path emits nothing" `Quick test_no_sink_emits_nothing;
    Alcotest.test_case "armed run records metrics" `Quick test_armed_run_records;
    Alcotest.test_case "jsonl round trip" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "telemetry read rejects a garbage line" `Quick
      test_read_rejects_garbage;
    Alcotest.test_case "json parser" `Quick test_json_parser;
    Alcotest.test_case "json escaping: every byte round trips" `Quick
      test_json_string_escaping;
    Alcotest.test_case "json unicode escapes and surrogates" `Quick
      test_json_unicode_escapes;
    Alcotest.test_case "span path and gc attribution" `Quick test_span_path_and_alloc;
    Alcotest.test_case "span guard survives unbalanced exits" `Quick
      test_span_unbalanced_exit;
    Alcotest.test_case "histogram percentiles (bimodal)" `Quick test_histogram_bimodal;
    Alcotest.test_case "drain/absorb: empty registry" `Quick test_drain_empty_registry;
    Alcotest.test_case "measure emits every stage's events" `Quick test_measure_event_kinds;
    Alcotest.test_case "span of_json inverts to_json" `Quick test_span_json_roundtrip;
    Alcotest.test_case "records nest: profiler sees the telemetry file's spans" `Quick
      test_nested_record;
    Alcotest.test_case "json nesting limit" `Quick test_json_nesting_limit;
  ]

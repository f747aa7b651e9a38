(* The versioned-file contract (Obs.Versioned) across every on-disk
   reader: one gate rule checked by one table, a seeded robustness
   property (any bytes give a value or a typed error), and atomic writes
   that never rename a short file over good data. *)

let temp_path () = Filename.temp_file "versioned" ".dat"

let remove_all paths = List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths

let write_file path text = Out_channel.with_open_bin path (fun oc -> output_string oc text)
let read_file path = In_channel.with_open_bin path In_channel.input_all

(* run a path-based reader over [text] in a scratch file *)
let via_file read text =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> remove_all [ path; path ^ ".tmp" ])
    (fun () ->
      write_file path text;
      read path)

(* ---- one sample file per reader ---- *)

type reader = {
  kind : string;
  version : int;
  sample : string Lazy.t;  (** a valid file; its first line is the header *)
  read : string -> unit;  (** parse a whole file's bytes *)
}

let journal_sample =
  lazy
    (via_file
       (fun path ->
         let j = Engine.Journal.open_ path in
         Engine.Journal.put j ~key:"e0|a.example" ~value:"{\"label\":\"cubic\"}";
         Engine.Journal.put j ~key:"e0|b.example" ~value:"bbr";
         Engine.Journal.close j;
         read_file path)
       "")

let campaign_sample =
  lazy
    (let path = temp_path () in
     Fun.protect
       ~finally:(fun () -> remove_all [ path ])
       (fun () ->
         Out_channel.with_open_bin path (fun oc ->
             Obs.Campaign.write_store oc ~experiment:"accuracy"
               [
                 { Obs.Campaign.seed = 1; metrics = [ ("accuracy", 0.75) ];
                   outcomes = [ { subject = "cubic"; expected = "cubic"; got = "cubic" } ] };
                 { seed = 2; metrics = [ ("accuracy", 1.0) ]; outcomes = [] };
               ]);
         read_file path))

let drift_sample =
  lazy
    (Obs.Json.to_string
       (Obs.Drift.to_json
          (Obs.Drift.make ~subject:"m.journal"
             [
               { Obs.Drift.epoch = 0; hosts = 4; shares = [ ("cubic", 75.0); ("bbr", 25.0) ];
                 unknown_share = 0.0; mean_confidence = 0.9; mean_margin = 0.4;
                 timeouts = 0 };
             ])))

let flight_sample =
  lazy
    (Obs.Flight.dump_to_string
       (Obs.Flight.make_dump ~subject:"cubic" ~trigger:"low_confidence" ~attempt:1
          ~window_s:10.0
          [
            { Obs.Flight.seq = 0; run = 1; time = 0.5; kind = Obs.Flight.Stage; a = 0.0;
              b = 0.0; c = 0.0; detail = "simulate"; extra = "" };
            { seq = 1; run = 1; time = 0.75; kind = Obs.Flight.Bif; a = 2900.0; b = 1.0;
              c = 0.0; detail = ""; extra = "x" };
          ]))

let pool_sample =
  lazy
    (Obs.Pooltrace.to_string
       {
         Obs.Pooltrace.jobs = 2;
         workers = 2;
         tasks =
           [
             { Obs.Pooltrace.index = 0; shard = 0; worker = 0; stolen = false;
               t_submit = 0.0; t_start = 0.001; t_finish = 0.25 };
             { index = 1; shard = 1; worker = 0; stolen = true; t_submit = 0.0;
               t_start = 0.25; t_finish = 0.5 };
           ];
       })

let provenance_sample =
  lazy
    (Obs.Json.to_string
       (Obs.Provenance.to_json
          (Obs.Provenance.make ~subject:"cubic" ~label:"cubic" ~confidence:0.9 ~margin:0.3
             ~features:[ ("delay_50ms", [| 1.0; 2.5 |]) ]
             ~stages:[ { Obs.Provenance.stage = "bif"; fields = [ ("points", 12.0) ] } ]
             ~candidates:
               [ { Obs.Provenance.source = "loss_gnb"; label = "cubic"; score = -3.5;
                   confidence = 0.9 } ]))
    ^ "\n")

let rules_sample =
  lazy (Obs.Json.to_string (Serve.Alerts.rules_to_json Serve.Alerts.default_rules))

let alert_log_sample =
  lazy
    (via_file
       (fun path ->
         Serve.Alerts.write_log path
           [
             { Serve.Alerts.epoch = 1; rule = "timeouts"; action = Serve.Alerts.Fire;
               value = 2.0; limit = 0.0 };
             { epoch = 2; rule = "timeouts"; action = Serve.Alerts.Resolve; value = 0.0;
               limit = 0.0 };
           ];
         read_file path)
       "")

let status_sample =
  lazy
    (let hist = Obs.Histogram.create ~name:"serve.wait_ticks" () in
     List.iter (Obs.Histogram.observe hist) [ 1.0; 3.0; 8.0 ];
     Obs.Json.to_string
       (Serve.Health.to_json
          {
            Serve.Health.version = Serve.Health.schema_version;
            phase = "final";
            epoch = 1;
            queue_depths = [ 0; 0 ];
            high_water = 4;
            overloads = 1;
            measured = 3;
            recovered = 0;
            carried = 2;
            timeouts = 0;
            commits = 5;
            journal_records = 5;
            journal_lag = 0;
            jobs_per_s = None;
            waits = [ (1, hist) ];
          })
     ^ "\n")

let fixture_sample =
  lazy
    (let dir =
       List.find (fun d -> Sys.file_exists d) [ "adversarial"; "test/adversarial" ]
     in
     let file =
       List.find (fun f -> Filename.check_suffix f ".json") (Array.to_list (Sys.readdir dir))
     in
     read_file (Filename.concat dir file))

let readers =
  [
    { kind = "nebby_journal"; version = Engine.Journal.schema_version; sample = journal_sample;
      read =
        via_file (fun p ->
            Engine.Journal.close (Engine.Journal.open_ ~on_warning:ignore p)) };
    { kind = "campaign"; version = Obs.Campaign.schema_version; sample = campaign_sample;
      read = via_file (fun p -> ignore (Obs.Campaign.read_store p)) };
    { kind = "nebby_drift_ledger"; version = Obs.Drift.schema_version; sample = drift_sample;
      read = (fun s -> ignore (Obs.Drift.of_json (Obs.Json.of_string s))) };
    { kind = "flight_dump"; version = Obs.Flight.schema_version; sample = flight_sample;
      read = (fun s -> ignore (Obs.Flight.dump_of_string s)) };
    { kind = "pool_trace"; version = Obs.Pooltrace.schema_version; sample = pool_sample;
      read = (fun s -> ignore (Obs.Pooltrace.of_string s)) };
    { kind = "provenance"; version = Obs.Provenance.schema_version;
      sample = provenance_sample;
      read = via_file (fun p -> ignore (Obs.Provenance.read_jsonl p)) };
    { kind = "nebby_alert_rules"; version = Serve.Alerts.schema_version;
      sample = rules_sample; read = via_file (fun p -> ignore (Serve.Alerts.load_rules p)) };
    { kind = "nebby_alert"; version = Serve.Alerts.schema_version;
      sample = alert_log_sample;
      read = via_file (fun p -> ignore (Serve.Alerts.read_log p)) };
    { kind = "nebby_serve_status"; version = Serve.Health.schema_version;
      sample = status_sample; read = via_file (fun p -> ignore (Serve.Health.read p)) };
    (* a fixture reports shape errors, the codec's included, as [Error] *)
    { kind = "nebby_adversarial"; version = Search.Fixture.schema_version;
      sample = fixture_sample;
      read =
        (fun s ->
          match Search.Fixture.of_string s with
          | Ok _ -> ()
          | Error e -> raise (Obs.Json.Parse_error e)) };
  ]

let test_samples_read_back () =
  List.iter
    (fun r ->
      match r.read (Lazy.force r.sample) with
      | () -> ()
      | exception e -> Alcotest.failf "%s: sample does not read: %s" r.kind (Printexc.to_string e))
    readers

(* ---- one gate rule, every reader ---- *)

(* rewrite the header (the first line) of a sample *)
let with_header f text =
  let nl = Option.value ~default:(String.length text) (String.index_opt text '\n') in
  let rest = String.sub text nl (String.length text - nl) in
  match Obs.Json.of_string (String.sub text 0 nl) with
  | Obs.Json.Obj fields -> Obs.Json.to_string (Obs.Json.Obj (f fields)) ^ rest
  | _ -> Alcotest.fail "sample header is not an object"

let set key v fields = List.map (fun (k, x) -> if k = key then (k, v) else (k, x)) fields

(* [None]: a Parse_error; [Some got]: a Version_mismatch reading [got] *)
let test_gate_table () =
  let cases =
    [
      ("wrong kind", set "kind" (Obs.Json.Str "not_a_kind"), None);
      ("missing version", List.filter (fun (k, _) -> k <> "version"), Some 0);
      ("version 1.5", set "version" (Obs.Json.Num 1.5), None);
      ("version 99", set "version" (Obs.Json.Num 99.0), Some 99);
    ]
  in
  List.iter
    (fun r ->
      List.iter
        (fun (case, edit, want) ->
          let name = Printf.sprintf "%s, %s" r.kind case in
          match r.read (with_header edit (Lazy.force r.sample)) with
          | () -> Alcotest.failf "%s: accepted" name
          | exception Obs.Json.Parse_error _ -> Alcotest.(check (option int)) name want None
          | exception Obs.Versioned.Version_mismatch { kind; expected; got } ->
            Alcotest.(check (option int)) name want (Some got);
            Alcotest.(check string) (name ^ ": kind") r.kind kind;
            Alcotest.(check int) (name ^ ": expected") r.version expected
          | exception e -> Alcotest.failf "%s: raised %s" name (Printexc.to_string e))
        cases)
    readers

(* ---- any bytes give a value or a typed error ---- *)

let typed r ~what input =
  match r.read input with
  | () | (exception Obs.Json.Parse_error _) | (exception Obs.Versioned.Version_mismatch _) ->
    ()
  | exception e ->
    Alcotest.failf "%s on %s: untyped %s (input %S)" r.kind what (Printexc.to_string e) input

let test_any_bytes_typed () =
  let rng = Random.State.make [| 14 |] in
  List.iter
    (fun r ->
      let sample = Lazy.force r.sample in
      let n = String.length sample in
      for len = 0 to n - 1 do
        typed r ~what:(Printf.sprintf "prefix %d" len) (String.sub sample 0 len)
      done;
      for i = 1 to 200 do
        let b = Bytes.of_string sample in
        let pos = Random.State.int rng n in
        Bytes.set b pos
          (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl Random.State.int rng 8)));
        typed r ~what:(Printf.sprintf "bit flip %d" i) (Bytes.to_string b)
      done;
      for i = 1 to 200 do
        (* half raw bytes, half drawn from the sample's own characters *)
        let pick () =
          if i mod 2 = 0 then Char.chr (Random.State.int rng 256)
          else sample.[Random.State.int rng n]
        in
        typed r ~what:(Printf.sprintf "random string %d" i)
          (String.init (Random.State.int rng 80) (fun _ -> pick ()))
      done)
    readers

(* ---- atomic writes ---- *)

(* [f path full]: calling [full ()] symlinks [path ^ ".tmp"] to
   /dev/full, so the temp file opens but its bytes only reach the device
   at close, which fails with ENOSPC *)
let with_full_tmp f =
  if not (Sys.file_exists "/dev/full") then Alcotest.skip ();
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> remove_all [ path; path ^ ".tmp" ])
    (fun () -> f path (fun () -> Unix.symlink "/dev/full" (path ^ ".tmp")))

let test_atomic_write_failure_keeps_old () =
  with_full_tmp (fun path full ->
      write_file path "good bytes\n";
      full ();
      (match Obs.Versioned.atomic_write path (fun oc -> output_string oc "new bytes\n") with
      | () -> Alcotest.fail "a write to a full device reported success"
      | exception Sys_error _ -> ());
      Alcotest.(check string) "original bytes survive" "good bytes\n" (read_file path);
      Alcotest.(check bool) "temp file removed" false
        (Sys.file_exists (path ^ ".tmp"));
      (* the serve status file goes through the same writer *)
      let status = Serve.Health.of_json (Obs.Json.of_string (Lazy.force status_sample)) in
      full ();
      (match Serve.Health.write ~path status with
      | () -> Alcotest.fail "a status write to a full device reported success"
      | exception Sys_error _ -> ());
      Alcotest.(check string) "status file keeps its bytes" "good bytes\n" (read_file path))

let test_atomic_write_replaces () =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> remove_all [ path ])
    (fun () ->
      write_file path "old";
      Obs.Versioned.atomic_write path (fun oc -> output_string oc "new");
      Alcotest.(check string) "replaced" "new" (read_file path);
      Alcotest.(check bool) "no temp file left" false (Sys.file_exists (path ^ ".tmp")))

let test_compact_failure_keeps_journal () =
  with_full_tmp (fun path full ->
      Sys.remove path;
      let j = Engine.Journal.open_ path in
      Engine.Journal.put j ~key:"b" ~value:"1";
      Engine.Journal.put j ~key:"a" ~value:"2";
      Engine.Journal.put j ~key:"b" ~value:"3";
      let before = read_file path in
      full ();
      (match Engine.Journal.compact j with
      | () -> Alcotest.fail "compaction onto a full device reported success"
      | exception Sys_error _ -> ());
      Alcotest.(check string) "store bytes unchanged" before (read_file path);
      (* the handle stays usable on the old file *)
      Engine.Journal.put j ~key:"c" ~value:"4";
      Alcotest.(check (option string)) "old record readable" (Some "3")
        (Engine.Journal.find j "b");
      Engine.Journal.close j;
      let j = Engine.Journal.open_ path in
      Alcotest.(check (list string)) "reopens with every key" [ "a"; "b"; "c" ]
        (Engine.Journal.keys j);
      Alcotest.(check int) "nothing torn" 0 (Engine.Journal.torn_dropped j);
      Engine.Journal.close j)

let suite =
  [
    Alcotest.test_case "every sample reads back" `Quick test_samples_read_back;
    Alcotest.test_case "one gate rule for every kind" `Quick test_gate_table;
    Alcotest.test_case "any bytes give a value or a typed error" `Quick test_any_bytes_typed;
    Alcotest.test_case "atomic write replaces the file" `Quick test_atomic_write_replaces;
    Alcotest.test_case "failed atomic write keeps the old bytes" `Quick
      test_atomic_write_failure_keeps_old;
    Alcotest.test_case "failed compaction keeps the journal" `Quick
      test_compact_failure_keeps_journal;
  ]

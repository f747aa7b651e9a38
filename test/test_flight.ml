(* Tests for the flight recorder (Obs.Flight): ring-buffer wraparound at
   capacity boundaries, pool workers inheriting the enabled flag, the
   anomaly triggers in Measurement, dumps' BiF rows taken from the
   sender's columns, dump JSONL round trips, the
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
  let evs = Obs.Flight.snapshot () in
  Alcotest.(check int) "exactly at capacity: all events live" 16 (List.length evs);
  Alcotest.(check (list int)) "seqs 0..15 in order" (List.init 16 Fun.id) (seqs evs);
  (* four more pushes overwrite the four oldest slots *)
  for i = 16 to 19 do
    Obs.Flight.drop ~time:(float_of_int i) ~size:i ~queue_bytes:0
  done;
  let evs = Obs.Flight.snapshot () in
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
    (List.length (Obs.Flight.snapshot ~since:m ()));
  reset ()

let cubic_reading cwnd =
  { Obs.Flight.snap_cwnd = cwnd; snap_ssthresh = -1.0; snap_pacing = -1.0 }

let test_level_gating () =
  reset ();
  Obs.Runtime.set_level Obs.Runtime.Quiet;
  Obs.Flight.cca_state ~time:0.0 ~cca:"cubic" ~mode:"slow_start" (cubic_reading 1.0);
  Obs.Flight.drop ~time:0.0 ~size:1 ~queue_bytes:0;
  Alcotest.(check int) "quiet keeps anomalies, drops CCA state" 1
    (List.length (Obs.Flight.snapshot ()));
  Obs.Runtime.set_level Obs.Runtime.Normal;
  Obs.Flight.enqueue ~time:0.0 ~size:1 ~queue_bytes:0;
  Obs.Flight.cca_state ~time:0.0 ~cca:"cubic" ~mode:"slow_start" (cubic_reading 1.0);
  Alcotest.(check int) "normal adds CCA state but not enqueues" 2
    (List.length (Obs.Flight.snapshot ()));
  Obs.Runtime.set_level Obs.Runtime.Debug;
  Obs.Flight.enqueue ~time:0.0 ~size:1 ~queue_bytes:0;
  Alcotest.(check int) "debug records per-packet enqueues" 3
    (List.length (Obs.Flight.snapshot ()));
  Obs.Flight.set_enabled false;
  Obs.Flight.drop ~time:0.0 ~size:1 ~queue_bytes:0;
  Alcotest.(check int) "disabled records nothing" 3
    (List.length (Obs.Flight.snapshot ()));
  reset ()

let bif_rows (d : Obs.Flight.dump) =
  List.filter_map
    (fun (e : Obs.Flight.event) ->
      if e.kind = Obs.Flight.Bif then Some (e.run, e.time, e.a) else None)
    d.events

(* A dump's BiF rows come from the sender's columns under the levels
   that gate the ring: none when disabled or Quiet, the ACK-clock samples
   at Normal, every sample at Debug. The window ends at the run's last
   ring event or its last admitted row, whichever is later; a run the
   ring does not hold gets no rows. *)
let test_capture_gates_bif_rows () =
  reset ();
  let run = Obs.Flight.new_run () in
  Obs.Flight.stage ~time:0.0 ~name:"simulate:test";
  Obs.Flight.drop ~time:6.5 ~size:1 ~queue_bytes:0;
  (* samples every 0.5 s up to 10 s; the ACK clock takes every other one,
     so the last sample (at 10 s) is a send *)
  let count = 21 in
  let times = Array.init (count + 3) (fun i -> 0.5 *. float_of_int i) in
  let acked = Bytes.init (count + 3) (fun i -> if i mod 2 = 1 then '\001' else '\000') in
  let cols =
    {
      Obs.Flight.log_run = run;
      log_times = times;
      log_bytes = Array.init (count + 3) (fun i -> 100 * i);
      log_acked = acked;
      log_count = count;
    }
  in
  let absent = { cols with Obs.Flight.log_run = run + 1 } in
  let capture () =
    Obs.Flight.capture ~subject:"s" ~trigger:"t" ~attempt:1 ~window_s:3.0
      ~bif:[ cols; absent ] ()
  in
  let rows_where keep =
    List.filter_map
      (fun i -> if keep i then Some (run, times.(i), float_of_int (100 * i)) else None)
      (List.init count Fun.id)
  in
  let check_rows what level ~enabled want =
    Obs.Runtime.set_level level;
    Obs.Flight.set_enabled enabled;
    Alcotest.(check (list (triple int (float 0.0) (float 0.0)))) what want (bif_rows (capture ()))
  in
  check_rows "quiet: no rows" Obs.Runtime.Quiet ~enabled:true [];
  check_rows "disabled: no rows" Obs.Runtime.Debug ~enabled:false [];
  (* Normal: the last ACK-clock row is at 9.5 s, so the window opens at 6.5 s *)
  check_rows "normal: the ACK-clock rows in the window" Obs.Runtime.Normal ~enabled:true
    (rows_where (fun i -> i mod 2 = 1 && times.(i) >= 6.5));
  (* Debug: the send at 10 s ends the window, which opens at 7 s *)
  check_rows "debug: every row in the window" Obs.Runtime.Debug ~enabled:true
    (rows_where (fun i -> times.(i) >= 7.0));
  Obs.Runtime.set_level Obs.Runtime.Normal;
  let d = capture () in
  Alcotest.(check (list string)) "ring events, then the run's rows"
    [ "drop"; "bif"; "bif"; "bif"; "bif" ]
    (List.map (fun (e : Obs.Flight.event) -> Obs.Flight.kind_label e.kind) d.events);
  Alcotest.(check (list int)) "a row's seq is its sample index"
    [ 13; 15; 17; 19 ]
    (List.filter_map
       (fun (e : Obs.Flight.event) -> if e.kind = Obs.Flight.Bif then Some e.seq else None)
       d.events);
  (* a ring event after the last row ends the window instead *)
  Obs.Flight.retx ~time:20.0 ~seq:1;
  Alcotest.(check int) "the ring's last event can end the window" 0
    (List.length (bif_rows (capture ())));
  reset ()

(* The materialise-then-filter snapshot that the window-first one
   replaced, kept as its oracle: every event since the mark, then each
   run's last time through a Hashtbl, then a filtered second list. *)
let oracle_snapshot ?since ~window_s () =
  let evs = Obs.Flight.snapshot ?since () in
  if window_s = infinity then evs
  else begin
    let run_max = Hashtbl.create 4 in
    List.iter
      (fun (e : Obs.Flight.event) ->
        let prev = Option.value ~default:neg_infinity (Hashtbl.find_opt run_max e.run) in
        if e.time > prev then Hashtbl.replace run_max e.run e.time)
      evs;
    let in_window (e : Obs.Flight.event) =
      match Hashtbl.find_opt run_max e.run with
      | Some last -> e.time >= last -. window_s
      | None -> true
    in
    (* per run, the seq of its newest CCA state before the window *)
    let carried = Hashtbl.create 4 in
    List.iter
      (fun (e : Obs.Flight.event) ->
        if e.kind = Obs.Flight.Cca_state && not (in_window e) then
          Hashtbl.replace carried e.run e.seq)
      evs;
    List.filter
      (fun (e : Obs.Flight.event) -> in_window e || Hashtbl.find_opt carried e.run = Some e.seq)
      evs
  end

(* Several runs on a 64-slot ring that wraps: times on a 0.25 s grid
   (exact in binary, so some events sit exactly at [last - window_s],
   and CCA states sit before a window to be carried into it),
   stage marks at time 0 after each run's data like Measurement's, and
   a mix of kinds. Each window is compared with the oracle for [since]
   before the oldest live slot, exactly at it, and after it. *)
let test_snapshot_matches_oracle () =
  reset ();
  Obs.Flight.set_capacity 64;
  let rng = Random.State.make [| 2024 |] in
  let marks = ref [ 0 ] in
  for run = 1 to 7 do
    ignore (Obs.Flight.new_run ());
    marks := Obs.Flight.mark () :: !marks;
    let n = 5 + Random.State.int rng 30 in
    for k = 0 to n - 1 do
      let time = 0.25 *. float_of_int k in
      match Random.State.int rng 4 with
      | 0 -> Obs.Flight.drop ~time ~size:k ~queue_bytes:run
      | 1 -> Obs.Flight.stall ~time ~until:(time +. 1.0)
      | 2 ->
        Obs.Flight.cca_state ~time ~cca:"cubic" ~mode:"avoidance"
          (cubic_reading (float_of_int k))
      | _ -> Obs.Flight.retx ~time ~seq:k
    done;
    Obs.Flight.stage ~time:0.0 ~name:"classify"
  done;
  let next = Obs.Flight.mark () in
  let oldest = next - Obs.Flight.capacity () in
  Alcotest.(check bool) "the ring wrapped" true (oldest > 0);
  let sinces = (oldest - 5) :: oldest :: (oldest + 7) :: (next - 3) :: next :: !marks in
  let boundary = ref false and carried = ref false in
  List.iter
    (fun window_s ->
      List.iter
        (fun since ->
          let got = Obs.Flight.snapshot ~since ~window_s () in
          let want = oracle_snapshot ~since ~window_s () in
          Alcotest.(check (list int))
            (Printf.sprintf "window %g since %d: same events" window_s since)
            (seqs want) (seqs got);
          Alcotest.(check bool)
            (Printf.sprintf "window %g since %d: same payloads" window_s since)
            true (got = want);
          (* an event exactly at its run's [last - window_s] is kept, and
             one before it only as the run's carried CCA state *)
          if window_s < infinity then
            List.iter
              (fun (e : Obs.Flight.event) ->
                let last =
                  List.fold_left
                    (fun m (e' : Obs.Flight.event) ->
                      if e'.run = e.run then Float.max m e'.time else m)
                    neg_infinity got
                in
                if e.time = last -. window_s then boundary := true;
                if e.time < last -. window_s then begin
                  Alcotest.(check string) "only CCA state is carried in" "cca_state"
                    (Obs.Flight.kind_label e.kind);
                  carried := true
                end)
              got)
        sinces)
    [ 0.0; 0.5; 1.0; 2.0; 3.75; infinity ];
  Alcotest.(check bool) "some kept event sits exactly on the window edge" true !boundary;
  Alcotest.(check bool) "some run carries its CCA state into the window" true !carried;
  Alcotest.(check int) "no window keeps every live event"
    (List.length (Obs.Flight.snapshot ~since:0 ()))
    (Obs.Flight.capacity ());
  reset ()

(* A pool worker records into its own ring under the caller's enabled
   flag; nothing is merged at join, so each job counts its own events in
   the domain that ran it. *)
let test_workers_inherit_enabled () =
  List.iter
    (fun (jobs, on) ->
      reset ();
      Obs.Flight.set_enabled on;
      let recorded =
        Engine.Pool.map_list ~jobs
          (fun i ->
            let m = Obs.Flight.mark () in
            Obs.Flight.drop ~time:(float_of_int i) ~size:i ~queue_bytes:0;
            List.length (Obs.Flight.snapshot ~since:m ()))
          (List.init 16 Fun.id)
      in
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d, enabled=%b: each job sees its own event" jobs on)
        (List.init 16 (fun _ -> if on then 1 else 0))
        recorded)
    [ (1, true); (2, true); (4, true); (8, true); (4, false) ];
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

(* ---- CCA state on change ---- *)

(* Every reading a CUBIC sender takes, against the ones the ring kept:
   the kept ones are exactly the first reading and each one whose mode,
   ssthresh, cwnd (by one MSS) or pacing rate (by over 1%) moved since the
   last kept. So every mode change is kept, and a cwnd move under one
   MSS alone is not. *)
let test_cca_state_on_change () =
  reset ();
  let mss = float_of_int Cca.default_params.Cca.mss in
  let readings = ref [] in
  let make_cca params =
    let cca = Cca.Registry.create "cubic" params in
    let snapshot snap =
      let mode = cca.Cca.snapshot snap in
      readings := (mode, snap.Cca.snap_cwnd, snap.snap_ssthresh, snap.snap_pacing) :: !readings;
      mode
    in
    { cca with Cca.snapshot }
  in
  let since = Obs.Flight.mark () in
  ignore
    (Nebby.Testbed.simulate ~profile:Nebby.Profile.delay_50ms ~seed:3
       ~noise:Netsim.Path.mild ~make_cca ());
  let kept =
    List.filter_map
      (fun (e : Obs.Flight.event) ->
        if e.kind = Obs.Flight.Cca_state then Some (e.extra, e.a, e.c, e.b) else None)
      (Obs.Flight.snapshot ~since ())
  in
  let readings = List.rev !readings in
  let changed (mode, cwnd, ssthresh, pacing) (mode', cwnd', ssthresh', pacing') =
    mode <> mode'
    || Float.abs (cwnd -. cwnd') >= mss
    || ssthresh <> ssthresh'
    || Float.abs (pacing -. pacing') > 0.01 *. Float.abs pacing'
  in
  let expected =
    List.rev
      (List.fold_left
         (fun acc r ->
           match acc with last :: _ when not (changed r last) -> acc | _ -> r :: acc)
         [] readings)
  in
  Alcotest.(check bool) "kept exactly the changed readings" true (kept = expected);
  let modes l = List.map (fun (m, _, _, _) -> m) l in
  let rec transitions = function
    | a :: (b :: _ as rest) -> (if a <> b then 1 else 0) + transitions rest
    | _ -> 0
  in
  Alcotest.(check bool) "the run changes mode" true (transitions (modes readings) > 0);
  Alcotest.(check int) "every mode change is kept" (transitions (modes readings))
    (transitions (modes kept));
  let skipped_small_move =
    List.exists2
      (fun (_, cwnd, _, _) (_, cwnd', _, _) -> cwnd <> cwnd' && Float.abs (cwnd -. cwnd') < mss)
      (List.filteri (fun i _ -> i > 0) readings)
      (List.filteri (fun i _ -> i < List.length readings - 1) readings)
  in
  Alcotest.(check bool) "some ack moved cwnd by under one MSS" true skipped_small_move;
  Alcotest.(check bool) "fewer kept than taken" true (List.length kept < List.length readings)

(* After a simulated transfer at Normal the ring holds no BiF sample; a
   dump of the run takes the ACK-clock samples from the sender's columns,
   exactly those within the window of the run's last time. *)
let test_dump_bif_from_columns () =
  reset ();
  let since = Obs.Flight.mark () in
  let s =
    Nebby.Testbed.simulate ~profile:Nebby.Profile.delay_50ms ~seed:3 ~noise:Netsim.Path.mild
      ~make_cca:(Cca.Registry.create "cubic") ()
  in
  let ring = Obs.Flight.snapshot ~since () in
  Alcotest.(check bool) "the ring holds the run" true (ring <> []);
  Alcotest.(check bool) "the ring holds no BiF" false
    (List.exists (fun (e : Obs.Flight.event) -> e.kind = Obs.Flight.Bif) ring);
  let window_s = 10.0 in
  let d =
    Obs.Flight.capture ~subject:"cubic" ~trigger:"t" ~attempt:1 ~since ~window_s ~bif:[ s.bif ]
      ()
  in
  let cols = s.bif in
  let acks =
    List.filter
      (fun i -> Bytes.get cols.log_acked i = '\001')
      (List.init cols.log_count Fun.id)
  in
  Alcotest.(check bool) "both clocks sampled" true
    (List.length acks > 0 && List.length acks < cols.log_count);
  let last =
    List.fold_left
      (fun m (e : Obs.Flight.event) -> Float.max m e.time)
      cols.log_times.(List.nth acks (List.length acks - 1))
      ring
  in
  let want =
    List.filter_map
      (fun i ->
        let t = cols.log_times.(i) in
        if t >= last -. window_s then Some (cols.log_run, t, float_of_int cols.log_bytes.(i))
        else None)
      acks
  in
  Alcotest.(check bool) "the window cuts the series" true (List.length want < List.length acks);
  Alcotest.(check (list (triple int (float 0.0) (float 0.0))))
    "the dump's rows are the ACK-clock rows in the window" want (bif_rows d)

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
  (* file round trip, written and read back as the CLI does *)
  let path = Filename.temp_file "flight_test" ".jsonl" in
  Obs.Versioned.write_file path (fun oc -> output_string oc text);
  let re_read =
    Obs.Flight.dump_of_string (In_channel.with_open_bin path In_channel.input_all)
  in
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

(* A measurement's own dump, thinned to CCA state changes, still draws
   every section: each run's BiF timeline with its CCA state note and
   cwnd steps (one run here keeps only 3 acks in its window, none of which
   changed the state, so both come from the reading carried in from
   before the window), the spectrum where a run has the samples for one,
   and the candidate table. *)
let test_measured_dump_renders_every_section () =
  reset ();
  let control = Lazy.force small_control in
  let config = { Nebby.Measurement.default_config with flight_confidence = 2.0 } in
  let r = Nebby.Measurement.measure_cca ~control ~config ~seed:1 "cubic" in
  match r.Nebby.Measurement.flight with
  | None -> Alcotest.fail "forced threshold produced no flight dump"
  | Some dump ->
    let html =
      Obs.Render.measurement_report ?provenance:r.Nebby.Measurement.provenance ~dump ()
    in
    let count needle =
      let nl = String.length needle in
      let rec go i n =
        if i + nl > String.length html then n
        else go (i + 1) (if String.sub html i nl = needle then n + 1 else n)
      in
      go 0 0
    in
    let runs = List.length Nebby.Profile.default_pair in
    List.iter
      (fun needle ->
        Alcotest.(check int) (Printf.sprintf "one %S per run" needle) runs (count needle))
      [ "<h2>BiF timeline — "; "CCA state: cubic ["; "stroke-dasharray=\"4 2\"" ];
    Alcotest.(check bool) "a spectrum" true (count "<h2>Frequency spectrum — " > 0);
    Alcotest.(check int) "the candidate table" 1 (count "Candidate scores");
    Alcotest.(check int) "no escaped entities in headings" 0 (count "&amp;#")

let suite =
  [
    Alcotest.test_case "ring wraparound at capacity boundaries" `Quick
      test_ring_wraparound;
    Alcotest.test_case "window-first snapshot matches materialise-then-filter" `Quick
      test_snapshot_matches_oracle;
    Alcotest.test_case "detail levels gate what is recorded" `Quick test_level_gating;
    Alcotest.test_case "capture gates BiF rows by level and window" `Quick
      test_capture_gates_bif_rows;
    Alcotest.test_case "a dump's BiF comes from the sender's columns" `Quick
      test_dump_bif_from_columns;
    Alcotest.test_case "workers inherit the enabled flag" `Quick
      test_workers_inherit_enabled;
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
    Alcotest.test_case "CCA state is recorded on change only" `Quick test_cca_state_on_change;
    Alcotest.test_case "a measured dump renders every section" `Quick
      test_measured_dump_renders_every_section;
  ]

(* Additional coverage: unit conversions, packet construction, profile
   arithmetic, BBR variant distinctions, CCA edge cases, and smaller
   library corners not exercised elsewhere. *)

let params = Cca.default_params
let mss = float_of_int params.Cca.mss

let ack ?(now = 1.0) ?(rtt = 0.1) ?(min_rtt = 0.1) ?(acked = params.Cca.mss)
    ?(inflight = 10 * params.Cca.mss) ?(rate = 25_000.0) () =
  {
    Cca.sample = { now; rtt; min_rtt; srtt = rtt; delivery_rate = rate };
    acked;
    inflight;
    app_limited = false;
    in_recovery = false;
  }

(* ---- units / packets / profiles ---- *)

let test_units_roundtrip () =
  Alcotest.(check (float 1e-9)) "200 kbps" 25_000.0 (Netsim.Units.bytes_per_sec_of_kbps 200.0);
  Alcotest.(check (float 1e-9)) "inverse" 200.0
    (Netsim.Units.kbps_of_bytes_per_sec (Netsim.Units.bytes_per_sec_of_kbps 200.0));
  Alcotest.(check (float 1e-9)) "ms" 0.05 (Netsim.Units.ms 50.0);
  Alcotest.(check int) "kib" 2048 (Netsim.Units.kib 2)

let test_packet_sizes () =
  let data = Netsim.Packet.data Netsim.Packet.Tcp ~id:0 ~seq:0 ~payload:250 ~retx:false in
  Alcotest.(check int) "tcp data wire size" 290 data.size;
  let ack = Netsim.Packet.ack Netsim.Packet.Quic ~id:0 ~ack:100 ~hole_end:0 ~received_total:0 in
  Alcotest.(check int) "quic ack wire size" 30 ack.size;
  Alcotest.(check bool) "ack flagged" true ack.is_ack;
  Alcotest.(check bool) "data not flagged" false data.is_ack

let test_packet_pp () =
  let data = Netsim.Packet.data Netsim.Packet.Tcp ~id:0 ~seq:500 ~payload:250 ~retx:true in
  let s = Format.asprintf "%a" Netsim.Packet.pp data in
  Alcotest.(check bool) "mentions seq" true
    (String.length s > 0 && Option.is_some (String.index_opt s '5'))

let test_profile_custom () =
  let p = Nebby.Profile.make ~bandwidth_kbps:400.0 ~base_delay:0.02 ~buffer_bdp:3.0
      ~extra_delay:0.08 () in
  Alcotest.(check (float 1e-6)) "bandwidth" 50_000.0 p.Nebby.Profile.bandwidth;
  Alcotest.(check (float 1e-6)) "rtt" 0.2 (Nebby.Profile.rtt p);
  Alcotest.(check int) "buffer 3 BDP" 30_000 p.Nebby.Profile.buffer_bytes

(* ---- BBR variant distinctions ---- *)

let run_bbr_for variant seconds =
  let cca = Cca.Bbr.create variant params in
  let drains = ref [] and below = ref false in
  let steps = int_of_float (seconds /. 0.011) in
  for i = 0 to steps do
    let now = 0.1 +. (0.011 *. float_of_int i) in
    cca.Cca.on_ack (ack ~now ~rtt:0.12 ~min_rtt:0.1 ());
    let low = cca.Cca.cwnd () <= 4.5 *. mss in
    if low && not !below then drains := now :: !drains;
    below := low
  done;
  List.rev !drains

let test_bbr_v1_vs_v2_cadence () =
  (* v1 drains on a ~10 s cadence, v2 on ~5 s: v2 must drain more often *)
  let v1 = List.length (run_bbr_for Cca.Bbr.V1 24.0) in
  let v2 = List.length (run_bbr_for Cca.Bbr.V2 24.0) in
  Alcotest.(check bool)
    (Printf.sprintf "v2 (%d) drains more often than v1 (%d)" v2 v1)
    true (v2 > v1)

let test_bbr_v3_distinct_from_v2 () =
  let v2 = List.length (run_bbr_for Cca.Bbr.V2 24.0) in
  let v3 = List.length (run_bbr_for Cca.Bbr.V3 24.0) in
  Alcotest.(check bool) "v3's ProbeRTT cadence is v1-like, slower than v2" true (v3 < v2)

let test_bbr_names () =
  Alcotest.(check string) "v1 name" "bbr" (Cca.Bbr.create_v1 params).Cca.name;
  Alcotest.(check string) "v2 name" "bbr2" (Cca.Bbr.create_v2 params).Cca.name;
  Alcotest.(check string) "v3 name" "bbr3" (Cca.Bbr.create_v3 params).Cca.name

(* ---- CCA edge cases ---- *)

let test_cwnd_never_below_floor () =
  List.iter
    (fun name ->
      let cca = Cca.Registry.create name params in
      (* hammer with losses and timeouts *)
      for i = 0 to 20 do
        cca.Cca.on_loss
          { Cca.now = float_of_int i; inflight = params.Cca.mss; by_timeout = i mod 2 = 0 }
      done;
      Alcotest.(check bool) (name ^ " floor") true (cca.Cca.cwnd () >= 0.9 *. mss))
    Cca.Registry.all

let test_pacing_rates_positive () =
  List.iter
    (fun name ->
      let cca = Cca.Registry.create name params in
      for i = 0 to 50 do
        cca.Cca.on_ack (ack ~now:(1.0 +. (0.01 *. float_of_int i)) ())
      done;
      match cca.Cca.pacing_rate () with
      | Some r -> Alcotest.(check bool) (name ^ " positive rate") true (r > 0.0)
      | None -> ())
    Cca.Registry.all

let test_hstcp_response_function () =
  (* the RFC 3649 closed forms at spot values *)
  let cca = Cca.Registry.create "hstcp" params in
  ignore cca;
  (* a(38) = 1, b(38) = 0.5 per the RFC's low-window regime boundary *)
  Alcotest.(check bool) "exists" true (Cca.Registry.mem "hstcp")

let test_cubic_fast_convergence () =
  (* two losses in a row: the second epoch's w_max is reduced below the
     window at loss, releasing bandwidth faster *)
  let cca = Cca.Registry.create "cubic" params in
  cca.Cca.on_loss { Cca.now = 0.5; inflight = 10 * params.Cca.mss; by_timeout = false };
  for i = 0 to 199 do
    cca.Cca.on_ack (ack ~now:(1.0 +. (0.01 *. float_of_int i)) ())
  done;
  let w1 = cca.Cca.cwnd () in
  cca.Cca.on_loss { Cca.now = 3.0; inflight = 10 * params.Cca.mss; by_timeout = false };
  (* shrink again quickly: fast convergence anchors w_max below w1 *)
  cca.Cca.on_loss { Cca.now = 3.5; inflight = 10 * params.Cca.mss; by_timeout = false };
  for i = 0 to 400 do
    cca.Cca.on_ack (ack ~now:(4.0 +. (0.01 *. float_of_int i)) ())
  done;
  (* growth stalls near the reduced w_max rather than racing past w1 *)
  Alcotest.(check bool) "fast convergence caps regrowth" true (cca.Cca.cwnd () < 2.0 *. w1)

let test_illinois_beta_grows_with_delay () =
  let backoff_with rtt_during =
    let cca = Cca.Registry.create "illinois" params in
    cca.Cca.on_loss { Cca.now = 0.5; inflight = 10 * params.Cca.mss; by_timeout = false };
    (* establish the propagation floor, then a high-delay excursion that
       fixes d_max, then settle at the delay under test *)
    for i = 0 to 49 do
      cca.Cca.on_ack (ack ~now:(1.0 +. (0.01 *. float_of_int i)) ~rtt:0.1 ~min_rtt:0.1 ())
    done;
    for i = 0 to 49 do
      cca.Cca.on_ack (ack ~now:(1.6 +. (0.01 *. float_of_int i)) ~rtt:0.4 ~min_rtt:0.1 ())
    done;
    for i = 0 to 199 do
      cca.Cca.on_ack (ack ~now:(2.5 +. (0.01 *. float_of_int i)) ~rtt:rtt_during ~min_rtt:0.1 ())
    done;
    let before = cca.Cca.cwnd () in
    cca.Cca.on_loss { Cca.now = 5.0; inflight = 10 * params.Cca.mss; by_timeout = false };
    cca.Cca.cwnd () /. before
  in
  let low_delay_keep = backoff_with 0.11 in
  let high_delay_keep = backoff_with 0.39 in
  Alcotest.(check bool)
    (Printf.sprintf "beta grows with delay (keep %.2f vs %.2f)" low_delay_keep high_delay_keep)
    true
    (high_delay_keep < low_delay_keep)

let test_copa_velocity_resets_on_flip () =
  (* drive copa with alternating delay so direction flips: cwnd must stay
     bounded instead of accelerating away *)
  let cca = Cca.Registry.create "copa" params in
  for i = 0 to 999 do
    let rtt = if (i / 50) mod 2 = 0 then 0.11 else 0.25 in
    cca.Cca.on_ack (ack ~now:(1.0 +. (0.01 *. float_of_int i)) ~rtt ~min_rtt:0.1 ())
  done;
  Alcotest.(check bool) "bounded" true (cca.Cca.cwnd () < 200.0 *. mss)

let test_akamai_epoch_backoff () =
  (* the pacing rate must collapse during the post-epoch drain *)
  let cca = Cca.Akamai_cc.create ~seed:9 params in
  let rates = ref [] in
  for i = 0 to 2500 do
    cca.Cca.on_ack (ack ~now:(0.1 +. (0.01 *. float_of_int i)) ());
    match cca.Cca.pacing_rate () with Some r -> rates := r :: !rates | None -> ()
  done;
  let lo = List.fold_left Float.min infinity !rates in
  let hi = List.fold_left Float.max 0.0 !rates in
  Alcotest.(check bool) "drain rate is a trickle" true (lo < 1_000.0);
  Alcotest.(check bool) "epoch rate is provisioned" true (hi > 20_000.0)

(* ---- sigproc corners ---- *)

let test_sample_uniform_single () =
  let s = Sigproc.Series.sample_uniform ~n:5 [| 7.0 |] in
  Alcotest.(check (array (float 1e-9))) "constant" [| 7.0; 7.0; 7.0; 7.0; 7.0 |] s

let test_gnb_class_stats () =
  let model = Sigproc.Gnb.fit [ ("a", [ [| 1.0 |]; [| 3.0 |] ]); ("b", [ [| 9.0 |]; [| 11.0 |] ]) ] in
  let stats = Sigproc.Gnb.class_stats model "a" in
  Alcotest.(check (float 1e-9)) "mean" 2.0 (fst stats.(0));
  Alcotest.(check bool) "missing class raises" true
    (try
       ignore (Sigproc.Gnb.class_stats model "zzz");
       false
     with Not_found -> true)

let test_kurtosis_of_uniform () =
  (* a uniform distribution has negative excess kurtosis (~ -1.2) *)
  let rng = Netsim.Rng.create 3 in
  let xs = Array.init 20_000 (fun _ -> Netsim.Rng.float rng) in
  let k = Sigproc.Stats.kurtosis xs in
  Alcotest.(check bool) (Printf.sprintf "kurtosis %.2f ~ -1.2" k) true
    (k < -0.9 && k > -1.5)

let test_percentile () =
  Alcotest.(check (float 1e-9)) "median" 3.0
    (Nebby.Training.percentile 0.5 [ 1.0; 2.0; 3.0; 4.0; 5.0 ]);
  Alcotest.(check bool) "empty" true (Nebby.Training.percentile 0.5 [] = neg_infinity)

(* ---- netsim corners ---- *)

let test_queue_length_tracking () =
  let q = Netsim.Event_queue.create () in
  Alcotest.(check bool) "empty" true (Netsim.Event_queue.is_empty q);
  Netsim.Event_queue.push q ~time:1.0 ();
  Netsim.Event_queue.push q ~time:2.0 ();
  Alcotest.(check int) "length" 2 (Netsim.Event_queue.length q);
  Alcotest.(check (float 1e-9)) "peek" 1.0 (Netsim.Event_queue.min_time q)

let test_link_counters () =
  let sim = Netsim.Sim.create () in
  let link =
    Netsim.Link.create sim ~rate:100_000.0 ~buffer_bytes:10_000 ~sink:(fun _ -> ()) ()
  in
  for i = 0 to 4 do
    Netsim.Link.send link
      (Netsim.Packet.data Netsim.Packet.Tcp ~id:i ~seq:(i * 100) ~payload:100 ~retx:false)
  done;
  Netsim.Sim.run sim;
  Alcotest.(check int) "all delivered" 5 (Netsim.Link.delivered link);
  Alcotest.(check int) "queue drained" 0 (Netsim.Link.queue_bytes link)

let test_noise_scaling () =
  let scaled = Netsim.Path.scale Netsim.Path.mild 2.0 in
  Alcotest.(check (float 1e-12)) "drop prob doubles" (2.0 *. Netsim.Path.mild.drop_prob)
    scaled.Netsim.Path.drop_prob;
  Alcotest.(check (float 1e-12)) "hold time unchanged" Netsim.Path.mild.ack_compress_delay
    scaled.Netsim.Path.ack_compress_delay

(* ---- testbed determinism ---- *)

let test_testbed_deterministic () =
  let run () =
    let r = Nebby.Testbed.run_cca ~profile:Nebby.Profile.delay_50ms ~seed:31
        ~page_bytes:150_000 "cubic" in
    Nebby.Bif.estimate r.Nebby.Testbed.trace
  in
  Alcotest.(check bool) "identical traces from identical seeds" true (run () = run ())

let test_testbed_seed_sensitivity () =
  let run seed =
    let r = Nebby.Testbed.run_cca ~profile:Nebby.Profile.delay_50ms ~seed
        ~noise:Netsim.Path.mild ~page_bytes:150_000 "cubic" in
    Nebby.Bif.estimate r.Nebby.Testbed.trace
  in
  Alcotest.(check bool) "different seeds differ under noise" true (run 1 <> run 2)

let suite =
  [
    Alcotest.test_case "unit conversions roundtrip" `Quick test_units_roundtrip;
    Alcotest.test_case "packet wire sizes" `Quick test_packet_sizes;
    Alcotest.test_case "packet pretty-printer" `Quick test_packet_pp;
    Alcotest.test_case "custom profile arithmetic" `Quick test_profile_custom;
    Alcotest.test_case "bbr v2 drains more often than v1" `Quick test_bbr_v1_vs_v2_cadence;
    Alcotest.test_case "bbr v3 cadence differs from v2" `Quick test_bbr_v3_distinct_from_v2;
    Alcotest.test_case "bbr variant names" `Quick test_bbr_names;
    Alcotest.test_case "no CCA collapses below one MSS" `Quick test_cwnd_never_below_floor;
    Alcotest.test_case "pacing rates are positive" `Quick test_pacing_rates_positive;
    Alcotest.test_case "hstcp registered" `Quick test_hstcp_response_function;
    Alcotest.test_case "cubic fast convergence" `Quick test_cubic_fast_convergence;
    Alcotest.test_case "illinois backs off harder under delay" `Quick
      test_illinois_beta_grows_with_delay;
    Alcotest.test_case "copa stays bounded under flapping delay" `Quick
      test_copa_velocity_resets_on_flip;
    Alcotest.test_case "akamai pacing collapses at epoch ends" `Quick test_akamai_epoch_backoff;
    Alcotest.test_case "uniform sampling of singleton" `Quick test_sample_uniform_single;
    Alcotest.test_case "gnb class stats" `Quick test_gnb_class_stats;
    Alcotest.test_case "kurtosis of a uniform sample" `Quick test_kurtosis_of_uniform;
    Alcotest.test_case "percentile helper" `Quick test_percentile;
    Alcotest.test_case "event queue length/peek" `Quick test_queue_length_tracking;
    Alcotest.test_case "link counters" `Quick test_link_counters;
    Alcotest.test_case "noise scaling semantics" `Quick test_noise_scaling;
    Alcotest.test_case "testbed is deterministic" `Quick test_testbed_deterministic;
    Alcotest.test_case "testbed is seed-sensitive" `Quick test_testbed_seed_sensitivity;
  ]

(* Unit tests for the congestion control algorithms: each CCA's control law
   is driven directly with synthetic ACK/loss events. *)

let params = Cca.default_params
let mss = float_of_int params.Cca.mss

let ack ?(now = 1.0) ?(rtt = 0.1) ?(min_rtt = 0.1) ?(acked = params.Cca.mss)
    ?(inflight = 10 * params.Cca.mss) ?(rate = 25_000.0) ?(in_recovery = false) () =
  {
    Cca.sample = { now; rtt; min_rtt; srtt = rtt; delivery_rate = rate };
    acked;
    inflight;
    app_limited = false;
    in_recovery;
  }

let loss ?(now = 5.0) ?(inflight = 10 * params.Cca.mss) ?(by_timeout = false) () =
  { Cca.now; inflight; by_timeout }

(* feed [n] acks spread over time starting at [t0], one per [gap] seconds *)
let feed_acks ?(t0 = 1.0) ?(gap = 0.01) ?rtt ?min_rtt cca n =
  for i = 0 to n - 1 do
    cca.Cca.on_ack (ack ~now:(t0 +. (float_of_int i *. gap)) ?rtt ?min_rtt ())
  done

let leave_slow_start cca =
  (* one congestion event ends slow start and pins ssthresh *)
  cca.Cca.on_loss (loss ~now:0.5 ())

let test_slow_start_grows_per_ack () =
  let cca = Cca.Registry.create "newreno" params in
  let before = cca.Cca.cwnd () in
  feed_acks cca 10;
  Alcotest.(check bool) "one MSS per acked MSS" true
    (cca.Cca.cwnd () -. before >= 10.0 *. mss *. 0.99)

let test_newreno_ca_additive () =
  let cca = Cca.Registry.create "newreno" params in
  leave_slow_start cca;
  let w0 = cca.Cca.cwnd () /. mss in
  (* one window's worth of acks = one RTT = +1 MSS *)
  feed_acks cca (int_of_float w0);
  let w1 = cca.Cca.cwnd () /. mss in
  Alcotest.(check bool) "+1 MSS per RTT" true (Float.abs (w1 -. w0 -. 1.0) < 0.1)

let test_newreno_halves_on_loss () =
  let cca = Cca.Registry.create "newreno" params in
  leave_slow_start cca;
  feed_acks cca 50;
  let before = cca.Cca.cwnd () in
  cca.Cca.on_loss (loss ());
  Alcotest.(check bool) "halved" true (Float.abs (cca.Cca.cwnd () -. (before /. 2.0)) < mss)

let test_timeout_collapses_to_one_mss () =
  let cca = Cca.Registry.create "newreno" params in
  leave_slow_start cca;
  feed_acks cca 50;
  cca.Cca.on_loss (loss ~by_timeout:true ());
  Alcotest.(check bool) "cwnd = 1 MSS" true (Float.abs (cca.Cca.cwnd () -. mss) < 1.0)

let test_recovery_freezes_growth () =
  let cca = Cca.Registry.create "newreno" params in
  leave_slow_start cca;
  let before = cca.Cca.cwnd () in
  for i = 0 to 49 do
    cca.Cca.on_ack (ack ~now:(1.0 +. (0.01 *. float_of_int i)) ~in_recovery:true ())
  done;
  Alcotest.(check (float 1e-9)) "no growth during recovery" before (cca.Cca.cwnd ())

let test_cubic_backoff_factor () =
  let cca = Cca.Registry.create "cubic" params in
  leave_slow_start cca;
  feed_acks cca 100;
  let before = cca.Cca.cwnd () in
  cca.Cca.on_loss (loss ());
  Alcotest.(check bool) "multiplies by 0.7" true
    (Float.abs (cca.Cca.cwnd () -. (0.7 *. before)) < mss)

let test_cubic_grows_cubically () =
  let cca = Cca.Registry.create "cubic" params in
  leave_slow_start cca;
  cca.Cca.on_loss (loss ~now:1.0 ());
  (* sample growth speed early vs late in the epoch: convex after K *)
  let growth t0 =
    let w0 = cca.Cca.cwnd () in
    feed_acks ~t0 ~gap:0.02 cca 20;
    cca.Cca.cwnd () -. w0
  in
  let early = growth 1.1 in
  let late = growth 8.0 in
  Alcotest.(check bool) "accelerates late in epoch" true (late > early)

let test_scalable_mimd () =
  let cca = Cca.Registry.create "scalable" params in
  leave_slow_start cca;
  let w0 = cca.Cca.cwnd () in
  feed_acks cca 100;
  let w1 = cca.Cca.cwnd () in
  Alcotest.(check bool) "0.01 MSS per ack" true (Float.abs (w1 -. w0 -. (mss *. 1.0)) < mss /. 2.0);
  cca.Cca.on_loss (loss ());
  Alcotest.(check bool) "backs off by 1/8" true (Float.abs (cca.Cca.cwnd () -. (0.875 *. w1)) < 1.0)

let test_hstcp_reno_below_threshold () =
  (* below w = 38 the RFC mandates standard TCP *)
  let hstcp = Cca.Registry.create "hstcp" params in
  let reno = Cca.Registry.create "newreno" params in
  List.iter leave_slow_start [ hstcp; reno ];
  feed_acks hstcp 20;
  feed_acks reno 20;
  Alcotest.(check (float 1.0)) "identical below w_low" (reno.Cca.cwnd ()) (hstcp.Cca.cwnd ())

let test_htcp_alpha_grows_with_time () =
  let cca = Cca.Registry.create "htcp" params in
  leave_slow_start cca;
  cca.Cca.on_loss (loss ~now:1.0 ());
  let growth t0 =
    let w0 = cca.Cca.cwnd () in
    feed_acks ~t0 ~gap:0.001 cca 20;
    cca.Cca.cwnd () -. w0
  in
  feed_acks ~t0:1.01 ~gap:0.001 cca 5 (* establish the RTT spread *);
  let early = growth 1.5 (* within the 1 s low-speed regime *) in
  let late = growth 6.0 in
  Alcotest.(check bool) "quadratic alpha beats reno" true (late > 2.0 *. early)

let test_vegas_holds_at_target () =
  let cca = Cca.Registry.create "vegas" params in
  leave_slow_start cca;
  (* establish the propagation-delay baseline first *)
  feed_acks ~t0:1.0 cca 30 ~rtt:0.1 ~min_rtt:0.1;
  (* then an rtt implying a backlog of ~3 packets: inside [alpha=2, beta=4] *)
  let w = cca.Cca.cwnd () /. mss in
  let rtt = 0.1 /. (1.0 -. (3.0 /. w)) in
  let before = cca.Cca.cwnd () in
  for i = 0 to 99 do
    cca.Cca.on_ack (ack ~now:(2.0 +. (0.01 *. float_of_int i)) ~rtt ~min_rtt:0.1 ())
  done;
  Alcotest.(check bool) "window steady" true (Float.abs (cca.Cca.cwnd () -. before) < 2.0 *. mss)

let test_vegas_retreats_when_queueing () =
  let cca = Cca.Registry.create "vegas" params in
  leave_slow_start cca;
  feed_acks ~t0:1.0 cca 30 ~rtt:0.1 ~min_rtt:0.1;
  let before = cca.Cca.cwnd () in
  (* rtt 3x the base: backlog far above beta *)
  for i = 0 to 199 do
    cca.Cca.on_ack (ack ~now:(2.0 +. (0.01 *. float_of_int i)) ~rtt:0.3 ~min_rtt:0.1 ())
  done;
  Alcotest.(check bool) "window decreased" true (cca.Cca.cwnd () < before)

let test_veno_gentle_on_random_loss () =
  let cca = Cca.Registry.create "veno" params in
  leave_slow_start cca;
  (* no queueing: the loss looks random, back off by 0.8 only *)
  feed_acks cca 20 ~rtt:0.1 ~min_rtt:0.1;
  let before = cca.Cca.cwnd () in
  cca.Cca.on_loss (loss ());
  Alcotest.(check bool) "four-fifths backoff" true
    (Float.abs (cca.Cca.cwnd () -. (0.8 *. before)) < mss)

let test_westwood_backoff_to_bdp () =
  let cca = Cca.Registry.create "westwood" params in
  leave_slow_start cca;
  (* sustained 25 kB/s at min rtt 0.1: BDP = 2500 B *)
  for i = 0 to 299 do
    cca.Cca.on_ack (ack ~now:(1.0 +. (0.01 *. float_of_int i)) ())
  done;
  cca.Cca.on_loss (loss ~now:5.0 ());
  Alcotest.(check bool) "window ~ bw * rtt_min" true
    (Float.abs (cca.Cca.cwnd () -. 2500.0) < 800.0)

let test_illinois_backoff_small_when_no_delay () =
  let cca = Cca.Registry.create "illinois" params in
  leave_slow_start cca;
  feed_acks cca 50 ~rtt:0.1 ~min_rtt:0.1;
  let before = cca.Cca.cwnd () in
  cca.Cca.on_loss (loss ());
  (* no queueing delay -> beta_min = 1/8 *)
  Alcotest.(check bool) "small decrease" true (cca.Cca.cwnd () > 0.8 *. before)

let test_bic_binary_search_slows_near_wmax () =
  let cca = Cca.Registry.create "bic" params in
  leave_slow_start cca;
  feed_acks cca 200;
  let at_loss = cca.Cca.cwnd () in
  cca.Cca.on_loss (loss ());
  (* right after the backoff BIC climbs half the gap per RTT, so growth
     shrinks as cwnd approaches the old maximum *)
  let w0 = cca.Cca.cwnd () in
  feed_acks ~t0:2.0 cca (int_of_float (w0 /. mss));
  let first_step = cca.Cca.cwnd () -. w0 in
  feed_acks ~t0:3.0 cca (int_of_float (cca.Cca.cwnd () /. mss));
  let second_step = cca.Cca.cwnd () -. w0 -. first_step in
  Alcotest.(check bool) "approach decelerates" true (second_step < first_step);
  Alcotest.(check bool) "stays below old max" true (cca.Cca.cwnd () < at_loss)

let test_yeah_decongests_on_queue () =
  let cca = Cca.Registry.create "yeah" params in
  leave_slow_start cca;
  (* grow a substantial window in fast mode first *)
  feed_acks ~gap:0.001 cca 3000 ~rtt:0.1 ~min_rtt:0.1;
  let before = cca.Cca.cwnd () in
  (* then a large sustained queue: precautionary decongestion must shrink
     the window without any loss *)
  for i = 0 to 299 do
    cca.Cca.on_ack (ack ~now:(10.0 +. (0.01 *. float_of_int i)) ~rtt:1.0 ~min_rtt:0.1 ())
  done;
  Alcotest.(check bool) "window reduced without a loss" true (cca.Cca.cwnd () < before)

let test_bbr_paces_after_samples () =
  let cca = Cca.Registry.create "bbr" params in
  Alcotest.(check bool) "no pacing before samples" true (cca.Cca.pacing_rate () = None);
  feed_acks cca 50;
  (match cca.Cca.pacing_rate () with
  | Some rate ->
    (* any steady-state gain over the 25 kB/s sample is acceptable *)
    Alcotest.(check bool) "paces near measured bw" true (rate > 15_000.0)
  | None -> Alcotest.fail "expected a pacing rate")

let test_bbr_startup_gain () =
  let cca = Cca.Registry.create "bbr" params in
  feed_acks cca 5;
  (match cca.Cca.pacing_rate () with
  | Some rate ->
    (* startup pacing gain 2.885 over the 25 kB/s sample *)
    Alcotest.(check bool) "startup overshoots" true (rate > 2.0 *. 25_000.0)
  | None -> Alcotest.fail "expected a pacing rate")

let test_bbr_probe_rtt_shrinks_cwnd () =
  let cca = Cca.Registry.create "bbr" params in
  (* drive for 25 s with no new rtt minimum: at least two ProbeRTT windows
     must drain the window to its floor *)
  let dips = ref 0 and below = ref false in
  for i = 0 to 2300 do
    cca.Cca.on_ack (ack ~now:(0.1 +. (0.011 *. float_of_int i)) ~rtt:0.12 ~min_rtt:0.1 ());
    let low = cca.Cca.cwnd () <= 4.5 *. mss in
    if low && not !below then incr dips;
    below := low
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d ProbeRTT dips observed" !dips)
    true (!dips >= 2)

let test_akamai_rate_independent_of_acks () =
  let cca = Cca.Akamai_cc.create ~seed:3 params in
  let r0 = cca.Cca.pacing_rate () in
  feed_acks cca 100 ~rtt:0.3;
  Alcotest.(check bool) "fixed rate" true (cca.Cca.pacing_rate () = r0)

let test_copa_oscillates () =
  let cca = Cca.Registry.create "copa" params in
  (* constant small queueing delay: copa should move the window both ways *)
  let ups = ref 0 and downs = ref 0 in
  let prev = ref (cca.Cca.cwnd ()) in
  for i = 0 to 999 do
    let rtt = 0.1 +. (0.02 *. Float.abs (sin (float_of_int i /. 30.0))) in
    cca.Cca.on_ack (ack ~now:(1.0 +. (0.01 *. float_of_int i)) ~rtt ~min_rtt:0.1 ());
    let w = cca.Cca.cwnd () in
    if w > !prev then incr ups else if w < !prev then incr downs;
    prev := w
  done;
  Alcotest.(check bool) "both directions" true (!ups > 50 && !downs > 50)

let test_vivace_probe_alternates () =
  let cca = Cca.Registry.create "vivace" params in
  let rates = ref [] in
  for i = 0 to 999 do
    cca.Cca.on_ack (ack ~now:(1.0 +. (0.01 *. float_of_int i)) ());
    match cca.Cca.pacing_rate () with
    | Some r -> rates := r :: !rates
    | None -> ()
  done;
  let distinct = List.sort_uniq compare !rates in
  Alcotest.(check bool) "probing produces multiple rates" true (List.length distinct > 2)

let test_registry_complete () =
  Alcotest.(check int) "12 kernel CCAs" 12 (List.length Cca.Registry.kernel_ccas);
  Alcotest.(check int) "11 loss-based" 11 (List.length Cca.Registry.loss_based);
  List.iter
    (fun name ->
      Alcotest.(check bool) ("mem " ^ name) true (Cca.Registry.mem name);
      let cca = Cca.Registry.create name params in
      Alcotest.(check string) "name matches" name cca.Cca.name)
    Cca.Registry.all

let test_registry_unknown () =
  Alcotest.(check bool) "unknown not mem" false (Cca.Registry.mem "swift");
  Alcotest.check_raises "create raises" Not_found (fun () ->
      ignore (Cca.Registry.create "swift" params))

let test_custom_cubic_beta () =
  let cca = Cca.Cubic.create_custom ~beta:0.5 params in
  leave_slow_start cca;
  feed_acks cca 100;
  let before = cca.Cca.cwnd () in
  cca.Cca.on_loss (loss ());
  Alcotest.(check bool) "custom backoff factor" true
    (Float.abs (cca.Cca.cwnd () -. (0.5 *. before)) < mss)

let test_max_filter_window () =
  let f = Cca.Max_filter.create ~window:1.0 in
  Cca.Max_filter.update f ~now:0.0 10.0;
  Cca.Max_filter.update f ~now:0.5 5.0;
  Alcotest.(check (float 1e-9)) "max in window" 10.0 (Cca.Max_filter.get f);
  Cca.Max_filter.update f ~now:1.5 3.0;
  Alcotest.(check (float 1e-9)) "old max expired" 5.0 (Cca.Max_filter.get f);
  Cca.Max_filter.update f ~now:1.6 7.0;
  Alcotest.(check (float 1e-9)) "new max dominates" 7.0 (Cca.Max_filter.get f)

(* The list filter Max_filter replaced, kept as the oracle: entries are
   newest-first; an update filters out the expired ones, drops the
   newest ones the new value dominates and conses it; [get] folds the
   whole list. *)
module List_max_filter = struct
  type f = { window : float; mutable entries : (float * float) list }

  let create ~window = { window; entries = [] }

  let update f ~now v =
    let alive (t, _) = now -. t <= f.window in
    let rec drop_dominated = function
      | (_, v') :: rest when v' <= v -> drop_dominated rest
      | entries -> entries
    in
    f.entries <- (now, v) :: drop_dominated (List.filter alive f.entries)

  let get f = List.fold_left (fun acc (_, v) -> Float.max acc v) 0.0 f.entries
end

(* Random streams with non-decreasing times: gaps of 0 (equal
   timestamps), under, exactly at and over the 1 s window; values drawn
   from a few integers (equal values) or any float, negatives included.
   [get] must agree with the oracle after every update. *)
let prop_max_filter_matches_list =
  let step =
    QCheck.Gen.(
      pair
        (oneof [ oneofl [ 0.0; 0.0; 0.3; 1.0; 1.5; 4.0 ]; float_range 0.0 2.5 ])
        (oneof [ map float_of_int (int_range (-2) 6); float_range (-5.0) 100.0 ]))
  in
  QCheck.Test.make ~name:"max filter equals the list filter" ~count:500
    (QCheck.make
       ~print:QCheck.Print.(list (pair float float))
       QCheck.Gen.(list_size (int_range 0 200) step))
    (fun steps ->
      let f = Cca.Max_filter.create ~window:1.0 in
      let oracle = List_max_filter.create ~window:1.0 in
      let now = ref 0.0 in
      List.for_all
        (fun (gap, v) ->
          now := !now +. gap;
          Cca.Max_filter.update f ~now:!now v;
          List_max_filter.update oracle ~now:!now v;
          Float.equal (Cca.Max_filter.get f) (List_max_filter.get oracle))
        steps)

let suite =
  [
    Alcotest.test_case "slow start grows one MSS per acked MSS" `Quick test_slow_start_grows_per_ack;
    Alcotest.test_case "newreno adds one MSS per RTT" `Quick test_newreno_ca_additive;
    Alcotest.test_case "newreno halves on loss" `Quick test_newreno_halves_on_loss;
    Alcotest.test_case "timeouts collapse the window" `Quick test_timeout_collapses_to_one_mss;
    Alcotest.test_case "recovery freezes window growth" `Quick test_recovery_freezes_growth;
    Alcotest.test_case "cubic backs off by 0.7" `Quick test_cubic_backoff_factor;
    Alcotest.test_case "cubic growth accelerates past K" `Quick test_cubic_grows_cubically;
    Alcotest.test_case "scalable is MIMD" `Quick test_scalable_mimd;
    Alcotest.test_case "hstcp equals reno below w_low" `Quick test_hstcp_reno_below_threshold;
    Alcotest.test_case "htcp alpha grows quadratically" `Quick test_htcp_alpha_grows_with_time;
    Alcotest.test_case "vegas holds at its backlog target" `Quick test_vegas_holds_at_target;
    Alcotest.test_case "vegas retreats when queueing" `Quick test_vegas_retreats_when_queueing;
    Alcotest.test_case "veno backs off gently on random loss" `Quick test_veno_gentle_on_random_loss;
    Alcotest.test_case "westwood resets to the estimated BDP" `Quick test_westwood_backoff_to_bdp;
    Alcotest.test_case "illinois decrease is small without delay" `Quick
      test_illinois_backoff_small_when_no_delay;
    Alcotest.test_case "bic decelerates near the old maximum" `Quick
      test_bic_binary_search_slows_near_wmax;
    Alcotest.test_case "yeah decongests without losses" `Quick test_yeah_decongests_on_queue;
    Alcotest.test_case "bbr paces once it has bandwidth samples" `Quick test_bbr_paces_after_samples;
    Alcotest.test_case "bbr startup uses the high gain" `Quick test_bbr_startup_gain;
    Alcotest.test_case "bbr ProbeRTT dips to the window floor" `Quick test_bbr_probe_rtt_shrinks_cwnd;
    Alcotest.test_case "akamai_cc rate ignores path feedback" `Quick
      test_akamai_rate_independent_of_acks;
    Alcotest.test_case "copa oscillates around its target" `Quick test_copa_oscillates;
    Alcotest.test_case "vivace alternates probe rates" `Quick test_vivace_probe_alternates;
    Alcotest.test_case "registry covers all kernel CCAs" `Quick test_registry_complete;
    Alcotest.test_case "registry rejects unknown names" `Quick test_registry_unknown;
    Alcotest.test_case "custom cubic honours its beta" `Quick test_custom_cubic_beta;
    Alcotest.test_case "max filter expires old samples" `Quick test_max_filter_window;
    QCheck_alcotest.to_alcotest prop_max_filter_matches_list;
  ]

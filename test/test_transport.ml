(* Integration tests for the TCP/QUIC transport machinery: full transfers
   through lossless and lossy paths, recovery behaviour, RTT estimation. *)

(* A minimal loop: sender -> (optional droplist) link -> receiver -> sender.
   Besides [drop_ids], the [lossy] predicate sees every data packet and
   the time it is sent, before the link; [wrap] may wrap the sender's
   CCA. The drop count includes the link's droptail drops. *)
let run_transfer ?(total = 100_000) ?(rate = 50_000.0) ?(buffer = 100_000) ?(delay = 0.05)
    ?(drop_ids = []) ?(lossy = fun ~now:_ _ -> false) ?(proto = Netsim.Packet.Tcp)
    ?(cca = "newreno") ?(initial_cwnd = 10) ?(wrap = fun _ cca -> cca) ?(until = 60.0) () =
  let sim = Netsim.Sim.create () in
  let params = { Cca.default_params with initial_cwnd } in
  let sender_ref = ref None in
  let receiver_ref = ref None in
  let link =
    Netsim.Link.create sim ~rate ~buffer_bytes:buffer
      ~sink:(fun pkt ->
        match !receiver_ref with
        | Some r -> Transport.Receiver.handle_data r pkt
        | None -> ())
      ()
  in
  let dropped = ref 0 in
  let receiver =
    Transport.Receiver.create sim ~proto
      ~out:(fun pkt ->
        Netsim.Sim.after sim delay (fun () ->
            match !sender_ref with
            | Some s -> Transport.Sender.handle_ack s pkt
            | None -> ()))
      ()
  in
  receiver_ref := Some receiver;
  let sender =
    Transport.Sender.create sim
      ~cca:(wrap sim (Cca.Registry.create cca params))
      ~proto ~params ~total_bytes:total
      ~out:(fun pkt ->
        if List.mem pkt.Netsim.Packet.id drop_ids || lossy ~now:(Netsim.Sim.now sim) pkt then
          incr dropped
        else Netsim.Sim.after sim delay (fun () -> Netsim.Link.send link pkt))
  in
  sender_ref := Some sender;
  Transport.Sender.start sender;
  Netsim.Sim.run ~until sim;
  (sender, receiver, !dropped + Netsim.Link.drops link)

let test_lossless_transfer_completes () =
  let sender, receiver, _ = run_transfer () in
  Alcotest.(check bool) "finished" true (Transport.Sender.finished sender);
  Alcotest.(check int) "all bytes received" 100_000 (Transport.Receiver.bytes_received receiver);
  Alcotest.(check int) "no retransmissions" 0 (Transport.Sender.retransmissions sender)

let test_single_loss_recovers_fast () =
  (* drop packet id 15 once: fast retransmit must repair it without RTO *)
  let sender, receiver, dropped = run_transfer ~drop_ids:[ 15 ] () in
  Alcotest.(check int) "exactly one drop" 1 dropped;
  Alcotest.(check bool) "finished" true (Transport.Sender.finished sender);
  Alcotest.(check int) "stream intact" 100_000 (Transport.Receiver.bytes_received receiver);
  Alcotest.(check int) "one retransmission" 1 (Transport.Sender.retransmissions sender)

let test_burst_loss_recovers () =
  let sender, receiver, _ = run_transfer ~drop_ids:[ 20; 21; 22; 23; 24 ] () in
  Alcotest.(check bool) "finished" true (Transport.Sender.finished sender);
  Alcotest.(check int) "stream intact" 100_000 (Transport.Receiver.bytes_received receiver)

let test_quic_transfer_completes () =
  let sender, receiver, _ = run_transfer ~proto:Netsim.Packet.Quic () in
  Alcotest.(check bool) "finished" true (Transport.Sender.finished sender);
  Alcotest.(check int) "all bytes received" 100_000 (Transport.Receiver.bytes_received receiver)

(* The sender's ground-truth BiF log as (time, bytes) pairs. *)
let bif_samples sender =
  let log = Transport.Sender.bif_log sender ~run:0 in
  List.init log.log_count (fun i -> (log.log_times.(i), float_of_int log.log_bytes.(i)))

let test_inflight_bounded_by_ground_truth () =
  let sender, _, _ = run_transfer ~cca:"cubic" () in
  List.iter
    (fun (_, bif) ->
      Alcotest.(check bool) "BiF nonnegative" true (bif >= 0.0);
      Alcotest.(check bool) "BiF bounded by transfer size" true (bif <= 100_000.0))
    (bif_samples sender)

let test_bif_samples_monotone_time () =
  let sender, _, _ = run_transfer () in
  let rec check_sorted = function
    | (t1, _) :: ((t2, _) :: _ as rest) ->
      Alcotest.(check bool) "time nondecreasing" true (t2 >= t1);
      check_sorted rest
    | _ -> ()
  in
  check_sorted (bif_samples sender)

let test_all_ccas_complete_through_testbed () =
  (* every registered CCA must be able to finish a page download through
     the standard measurement topology *)
  List.iter
    (fun name ->
      let result =
        Nebby.Testbed.run_cca ~profile:Nebby.Profile.delay_50ms ~seed:77
          ~page_bytes:200_000 ~time_limit:80.0 name
      in
      Alcotest.(check bool) (name ^ " completes") true result.Nebby.Testbed.finished)
    Cca.Registry.all

let test_receiver_ack_every_two () =
  let sim = Netsim.Sim.create () in
  let acks = ref 0 in
  let receiver =
    Transport.Receiver.create sim ~proto:Netsim.Packet.Tcp ~ack_every:2
      ~out:(fun _ -> incr acks)
      ()
  in
  for i = 0 to 9 do
    Transport.Receiver.handle_data receiver
      (Netsim.Packet.data Netsim.Packet.Tcp ~id:i ~seq:(i * 100) ~payload:100 ~retx:false)
  done;
  Alcotest.(check int) "one ack per two packets" 5 !acks

let test_receiver_dupacks_immediately () =
  let sim = Netsim.Sim.create () in
  let acks = ref [] in
  let receiver =
    Transport.Receiver.create sim ~proto:Netsim.Packet.Tcp ~ack_every:2
      ~out:(fun pkt -> acks := pkt.Netsim.Packet.ack :: !acks)
      ()
  in
  let data seq = Netsim.Packet.data Netsim.Packet.Tcp ~id:0 ~seq ~payload:100 ~retx:false in
  Transport.Receiver.handle_data receiver (data 0);
  Transport.Receiver.handle_data receiver (data 100);
  (* a hole at 200: the out-of-order packet triggers an immediate dupack *)
  Transport.Receiver.handle_data receiver (data 300);
  Alcotest.(check (list int)) "dupack at the hole" [ 200; 200 ] !acks

let test_receiver_reports_hole () =
  let sim = Netsim.Sim.create () in
  let holes = ref [] in
  let receiver =
    Transport.Receiver.create sim ~proto:Netsim.Packet.Tcp
      ~out:(fun pkt -> holes := pkt.Netsim.Packet.hole_end :: !holes)
      ()
  in
  let data seq = Netsim.Packet.data Netsim.Packet.Tcp ~id:0 ~seq ~payload:100 ~retx:false in
  Transport.Receiver.handle_data receiver (data 0);
  Transport.Receiver.handle_data receiver (data 300);
  (* first ack: contiguous, no hole; second: hole [100,300) reported *)
  Alcotest.(check (list int)) "hole hint" [ 300; 0 ] !holes

let test_receiver_fills_out_of_order () =
  let sim = Netsim.Sim.create () in
  let receiver = Transport.Receiver.create sim ~proto:Netsim.Packet.Tcp ~out:(fun _ -> ()) () in
  let data seq = Netsim.Packet.data Netsim.Packet.Tcp ~id:0 ~seq ~payload:100 ~retx:false in
  Transport.Receiver.handle_data receiver (data 200);
  Transport.Receiver.handle_data receiver (data 100);
  Alcotest.(check int) "still waiting for 0" 0 (Transport.Receiver.bytes_received receiver);
  Transport.Receiver.handle_data receiver (data 0);
  Alcotest.(check int) "reassembled through the buffer" 300
    (Transport.Receiver.bytes_received receiver)

(* The sender's ring tests run long enough for RTO repairs. *)
let run_repair = run_transfer ~until:200.0

let check_repaired ~total ~lost (sender, receiver, lost') =
  Alcotest.(check bool) "finished" true (Transport.Sender.finished sender);
  Alcotest.(check int) "every byte delivered in order" total
    (Transport.Receiver.bytes_received receiver);
  Alcotest.(check int) "packets lost" lost lost';
  Alcotest.(check int) "one retransmission per lost packet" lost
    (Transport.Sender.retransmissions sender)

(* A CCA wrapper that records each ack's time and byte count, and every
   distinct event it was handed. *)
let recording () =
  let seen = ref [] and events = ref [] and stale = ref false in
  let wrap sim (cca : Cca.t) =
    {
      cca with
      Cca.on_ack =
        (fun ev ->
          if ev.Cca.sample.now <> Netsim.Sim.now sim then stale := true;
          seen := (ev.sample.now, ev.acked) :: !seen;
          if not (List.memq ev !events) then events := ev :: !events;
          cca.Cca.on_ack ev);
    }
  in
  (wrap, (fun () -> List.rev !seen), events, stale)

(* The sender's window starts with 64 slots. An initial window of 100
   segments outgrows it in the first burst. A window of 20 segments that
   opens to 100 from 0.5 s to 1 s outgrows it once acks have moved
   snd_una, so segments change slots under the doubled mask, and the
   burst overflows the queue. Every RTT sample must still come from its
   own segment: an oracle table of send times, filled from the packets
   leaving the sender, gives the sample of the last segment an ack
   covers that was never retransmitted (Karn's rule). *)
let test_window_grows_mid_flight () =
  check_repaired ~total:100_000 ~lost:0 (run_repair ~initial_cwnd:100 ());
  let mss = Cca.default_params.mss in
  let sent = Hashtbl.create 1024 (* seq -> last send time, ever retransmitted *) in
  let lossy ~now (pkt : Netsim.Packet.t) =
    let again = match Hashtbl.find_opt sent pkt.seq with Some (_, r) -> r | None -> false in
    Hashtbl.replace sent pkt.seq (now, again || pkt.is_retx);
    false
  in
  let una = ref 0 and samples = ref 0 in
  let wrap sim (cca : Cca.t) =
    {
      cca with
      Cca.cwnd =
        (fun () ->
          let now = Netsim.Sim.now sim in
          float_of_int (if now >= 0.5 && now < 1.0 then 100 * mss else 20 * mss));
      on_ack =
        (fun ev ->
          let lo = !una in
          una := lo + ev.Cca.acked;
          let expected = ref None in
          for k = lo / mss to ((!una - 1) / mss) do
            match Hashtbl.find sent (k * mss) with
            | t, false -> expected := Some (ev.sample.now -. t)
            | _, true -> ()
          done;
          Option.iter
            (fun rtt ->
              incr samples;
              if rtt <> ev.sample.rtt then
                Alcotest.failf "ack at %g: RTT %g, its segment gives %g" ev.sample.now
                  ev.sample.rtt rtt)
            !expected;
          cca.Cca.on_ack ev);
    }
  in
  let (_, _, lost) as run = run_repair ~total:200_000 ~buffer:10_000 ~lossy ~wrap () in
  Alcotest.(check bool) "the opened window overflowed the buffer" true (lost > 0);
  Alcotest.(check bool) "RTT samples checked" true (!samples > 100);
  check_repaired ~total:200_000 ~lost run

(* A page that is not a multiple of the MSS ends in a short segment;
   losing its first transmission leaves no later data to raise dupacks,
   so the RTO repairs it, with its own short length. *)
let test_short_last_segment_repaired () =
  let total = 100_000 + 123 in
  let lossy ~now:_ (pkt : Netsim.Packet.t) = pkt.seq = 100_000 && not pkt.is_retx in
  let (sender, _, _) as run = run_repair ~total ~lossy () in
  check_repaired ~total ~lost:1 run;
  Alcotest.(check bool) "repaired by the RTO" true
    (List.exists (fun (t, _) -> t > 1.0) (bif_samples sender))

(* Everything sent in the first 1.5 s is lost: the whole initial burst of
   100 segments (the window has grown) and the first RTO repair. No ack
   arrives until the backed-off RTO re-sends snd_una at 3 s, and the
   transfer recovers from there. *)
let test_rto_repairs_head_after_growth () =
  let wrap, seen, _, _ = recording () in
  let lossy ~now _ = now < 1.5 in
  let run = run_repair ~initial_cwnd:100 ~lossy ~wrap () in
  let _, _, lost = run in
  Alcotest.(check int) "burst and first repair lost" 101 lost;
  Alcotest.(check bool) "first ack after the second RTO" true
    (match seen () with (t, _) :: _ -> t > 3.0 | [] -> false);
  check_repaired ~total:100_000 ~lost run

(* The sender hands the CCA one event, overwritten on every ack: each
   call must see the ack's own time and byte count. *)
let test_ack_event_is_fresh () =
  let wrap, seen, events, stale = recording () in
  ignore (run_repair ~wrap ());
  let seen = seen () in
  Alcotest.(check bool) "each event carries the ack's time" false !stale;
  Alcotest.(check int) "acked bytes add up to the page" 100_000
    (List.fold_left (fun acc (_, a) -> acc + a) 0 seen);
  Alcotest.(check bool) "every ack acknowledges new bytes" true
    (List.for_all (fun (_, a) -> a > 0) seen);
  Alcotest.(check bool) "ack times strictly increase" true
    (fst (List.fold_left (fun (ok, prev) (t, _) -> (ok && t > prev, t)) (true, neg_infinity) seen));
  Alcotest.(check int) "one event, reused" 1 (List.length !events)

let suite =
  [
    Alcotest.test_case "lossless transfer completes cleanly" `Quick test_lossless_transfer_completes;
    Alcotest.test_case "single loss repaired by fast retransmit" `Quick test_single_loss_recovers_fast;
    Alcotest.test_case "burst loss recovered via hole reports" `Quick test_burst_loss_recovers;
    Alcotest.test_case "QUIC transfer completes" `Quick test_quic_transfer_completes;
    Alcotest.test_case "ground-truth BiF is sane" `Quick test_inflight_bounded_by_ground_truth;
    Alcotest.test_case "BiF samples are time-ordered" `Quick test_bif_samples_monotone_time;
    Alcotest.test_case "every CCA completes a download" `Slow test_all_ccas_complete_through_testbed;
    Alcotest.test_case "receiver acks every N packets" `Quick test_receiver_ack_every_two;
    Alcotest.test_case "receiver dupacks out-of-order data" `Quick test_receiver_dupacks_immediately;
    Alcotest.test_case "receiver reports the first hole" `Quick test_receiver_reports_hole;
    Alcotest.test_case "receiver reassembles out-of-order data" `Quick test_receiver_fills_out_of_order;
    Alcotest.test_case "sender window grows mid-flight" `Quick test_window_grows_mid_flight;
    Alcotest.test_case "short last segment lost and repaired" `Quick
      test_short_last_segment_repaired;
    Alcotest.test_case "RTO repairs snd_una after the window grew" `Quick
      test_rto_repairs_head_after_growth;
    Alcotest.test_case "each ack gets a fresh reused event" `Quick test_ack_event_is_fresh;
  ]

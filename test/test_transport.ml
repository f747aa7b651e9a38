(* Integration tests for the TCP/QUIC transport machinery: full transfers
   through lossless and lossy paths, recovery behaviour, RTT estimation. *)

(* A minimal loop: sender -> (optional droplist) link -> receiver -> sender. *)
let run_transfer ?(total = 100_000) ?(rate = 50_000.0) ?(buffer = 100_000) ?(delay = 0.05)
    ?(drop_ids = []) ?(proto = Netsim.Packet.Tcp) ?(cca = "newreno") ?(until = 60.0) () =
  let sim = Netsim.Sim.create () in
  let params = Cca.default_params in
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
      ~cca:(Cca.Registry.create cca params)
      ~proto ~params ~total_bytes:total
      ~out:(fun pkt ->
        if List.mem pkt.Netsim.Packet.id drop_ids then incr dropped
        else Netsim.Sim.after sim delay (fun () -> Netsim.Link.send link pkt))
  in
  sender_ref := Some sender;
  Transport.Sender.start sender;
  Netsim.Sim.run ~until sim;
  (sender, receiver, !dropped)

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

let test_inflight_bounded_by_ground_truth () =
  let sender, _, _ = run_transfer ~cca:"cubic" () in
  List.iter
    (fun (_, bif) ->
      Alcotest.(check bool) "BiF nonnegative" true (bif >= 0.0);
      Alcotest.(check bool) "BiF bounded by transfer size" true (bif <= 100_000.0))
    (Transport.Sender.bif_samples sender)

let test_bif_samples_monotone_time () =
  let sender, _, _ = run_transfer () in
  let rec check_sorted = function
    | (t1, _) :: ((t2, _) :: _ as rest) ->
      Alcotest.(check bool) "time nondecreasing" true (t2 >= t1);
      check_sorted rest
    | _ -> ()
  in
  check_sorted (Transport.Sender.bif_samples sender)

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
      (Netsim.Packet.data Netsim.Packet.Tcp ~id:i ~seq:(i * 100) ~payload:100 ~retx:false
         ~now:(float_of_int i))
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
  let data seq = Netsim.Packet.data Netsim.Packet.Tcp ~id:0 ~seq ~payload:100 ~retx:false ~now:0.0 in
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
  let data seq = Netsim.Packet.data Netsim.Packet.Tcp ~id:0 ~seq ~payload:100 ~retx:false ~now:0.0 in
  Transport.Receiver.handle_data receiver (data 0);
  Transport.Receiver.handle_data receiver (data 300);
  (* first ack: contiguous, no hole; second: hole [100,300) reported *)
  Alcotest.(check (list int)) "hole hint" [ 300; 0 ] !holes

let test_receiver_fills_out_of_order () =
  let sim = Netsim.Sim.create () in
  let receiver = Transport.Receiver.create sim ~proto:Netsim.Packet.Tcp ~out:(fun _ -> ()) () in
  let data seq = Netsim.Packet.data Netsim.Packet.Tcp ~id:0 ~seq ~payload:100 ~retx:false ~now:0.0 in
  Transport.Receiver.handle_data receiver (data 200);
  Transport.Receiver.handle_data receiver (data 100);
  Alcotest.(check int) "still waiting for 0" 0 (Transport.Receiver.bytes_received receiver);
  Transport.Receiver.handle_data receiver (data 0);
  Alcotest.(check int) "reassembled through the buffer" 300
    (Transport.Receiver.bytes_received receiver)

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
  ]

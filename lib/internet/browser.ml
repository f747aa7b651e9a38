type asset = Video | Static

type flow_report = { asset : asset; truth : string; label : string }

let classify_flow ~control ~seed cca_name page_bytes =
  let report =
    Nebby.Measurement.measure ~control ~noise:Netsim.Path.mild ~page_bytes ~seed
      ~make_cca:(Cca.Registry.create cca_name) ()
  in
  if report.Nebby.Measurement.label = Nebby.Bbr_classifier.label_unknown_bbr then "bbr3"
  else report.Nebby.Measurement.label

let measure_service ?(flows_per_kind = 1) ~control ~seed (svc : Heavy_hitters.service) =
  let flow kind truth i =
    let page = match kind with Video -> 900_000 | Static -> 500_000 in
    { asset = kind; truth; label = classify_flow ~control ~seed:(seed + (i * 131)) truth page }
  in
  List.init flows_per_kind (fun i -> flow Video svc.Heavy_hitters.video_cca i)
  @ List.init flows_per_kind (fun i -> flow Static svc.Heavy_hitters.static_cca (i + 100))

type contention = {
  flow_a : string;
  flow_b : string;
  throughput_a : float;
  throughput_b : float;
  fair_share : float;
}

(* Flow B's data packets travel the shared bottleneck with their sequence
   numbers offset, which is how the single queue demultiplexes back to the
   right receiver. ACKs return on per-flow paths and never need the shift. *)
let flow_b_offset = 1_000_000_000

let shared_bottleneck ?(duration = 30.0) ~(profile : Nebby.Profile.t) ~seed ~cca_a ~cca_b () =
  let sim = Netsim.Sim.create () in
  let rng = Netsim.Rng.create seed in
  let params = Cca.default_params in
  let bottleneck_ref = ref None in
  let to_bottleneck pkt =
    match !bottleneck_ref with Some link -> Netsim.Link.send link pkt | None -> ()
  in
  let make_flow cca_name ~seq_offset =
    let sender_ref = ref None in
    let path_up =
      Netsim.Path.create sim (Netsim.Rng.split rng) ~delay:profile.Nebby.Profile.base_delay
        ~noise:Netsim.Path.mild
        ~sink:(fun pkt ->
          match !sender_ref with Some s -> Transport.Sender.handle_ack s pkt | None -> ())
    in
    let return_delay = Netsim.Delay_line.create sim ~sink:(Netsim.Path.send path_up) in
    let receiver =
      Transport.Receiver.create sim ~proto:Netsim.Packet.Tcp
        ~out:(fun pkt ->
          Netsim.Delay_line.send return_delay
            ~at:(Netsim.Sim.now sim +. profile.Nebby.Profile.extra_delay)
            pkt)
        ()
    in
    let path_down =
      Netsim.Path.create sim (Netsim.Rng.split rng) ~delay:profile.Nebby.Profile.base_delay
        ~noise:Netsim.Path.mild ~sink:to_bottleneck
    in
    let sender =
      Transport.Sender.create sim
        ~cca:(Cca.Registry.create cca_name params)
        ~proto:Netsim.Packet.Tcp ~params ~total_bytes:100_000_000
        ~out:(fun pkt ->
          Netsim.Path.send path_down { pkt with Netsim.Packet.seq = pkt.seq + seq_offset })
    in
    sender_ref := Some sender;
    (sender, receiver)
  in
  let sender_a, receiver_a = make_flow cca_a ~seq_offset:0 in
  let sender_b, receiver_b = make_flow cca_b ~seq_offset:flow_b_offset in
  let demux (pkt : Netsim.Packet.t) =
    if pkt.seq >= flow_b_offset then
      Transport.Receiver.handle_data receiver_b { pkt with seq = pkt.seq - flow_b_offset }
    else Transport.Receiver.handle_data receiver_a pkt
  in
  bottleneck_ref :=
    Some
      (Netsim.Link.create sim ~rate:profile.Nebby.Profile.bandwidth
         ~buffer_bytes:profile.Nebby.Profile.buffer_bytes
         ~extra_delay:profile.Nebby.Profile.extra_delay ~sink:demux ());
  Transport.Sender.start sender_a;
  (* the short static-asset flow joins shortly after the video flow *)
  Netsim.Sim.after sim 1.0 (fun () -> Transport.Sender.start sender_b);
  Netsim.Sim.run ~until:duration sim;
  {
    flow_a = cca_a;
    flow_b = cca_b;
    throughput_a = float_of_int (Transport.Receiver.bytes_received receiver_a) /. duration;
    throughput_b =
      float_of_int (Transport.Receiver.bytes_received receiver_b) /. (duration -. 1.0);
    fair_share = profile.Nebby.Profile.bandwidth /. 2.0;
  }

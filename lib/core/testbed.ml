type simulation = {
  trace : Netsim.Trace.t;
  bif : Obs.Flight.inflight_log;
  sender_end : float;
  finished : bool;
  duration : float;
  bottleneck_drops : int;
  retransmissions : int;
  cca_name : string;
  flow_reset : bool;
  faults_injected : int;
}

type result = {
  trace : Netsim.Trace.t;
  ground_truth_bif : (float * float) list;
  finished : bool;
  duration : float;
  bottleneck_drops : int;
  retransmissions : int;
  cca_name : string;
  flow_reset : bool;
  faults_injected : int;
}

let simulate ?(seed = 42) ?(noise = Netsim.Path.quiet) ?(proto = Netsim.Packet.Tcp)
    ?(params = Cca.default_params) ?(page_bytes = Profile.default_page_bytes)
    ?(time_limit = 60.0) ?ack_every ?faults ~profile ~make_cca () =
  let sim = Netsim.Sim.create () in
  (* expose the virtual clock before the span opens so "simulate" records a
     virtual duration (the simulated transfer time, up to its last event,
     as [duration]) next to its wall time *)
  let prev_clock = Obs.Runtime.virtual_clock () in
  Obs.Runtime.set_virtual_clock (Some (fun () -> Netsim.Sim.last_event sim));
  Fun.protect ~finally:(fun () -> Obs.Runtime.set_virtual_clock prev_clock) @@ fun () ->
  Obs.Span.with_ ~name:"simulate" @@ fun () ->
  (* each simulation is one flight-recorder run: virtual time restarts, so
     events must not interleave with the previous run's timeline *)
  let flight_run = Obs.Flight.new_run () in
  Obs.Flight.stage ~time:0.0 ~name:("simulate:" ^ profile.Profile.name);
  let rng = Netsim.Rng.create seed in
  let trace =
    Netsim.Trace.create
      ~capacity:(Transport.Sender.expected_samples ~mss:params.Cca.mss ~total_bytes:page_bytes)
      ()
  in
  let injector = Option.map (fun plan -> Faults.injector ~sim plan) faults in
  (* The capture point may drop or jitter observations under fault plans;
     without one this is exactly [Trace.record]. *)
  let record now pkt =
    match injector with
    | None -> Netsim.Trace.record trace ~now pkt
    | Some inj -> (
      match Faults.observe inj ~now pkt with
      | Some stamped -> Netsim.Trace.record trace ~now:stamped pkt
      | None -> ())
  in
  let cca = make_cca params in
  let ack_every =
    match ack_every with
    | Some n -> n
    | None -> (
      (* QUIC uses a truly constant ACK frequency: the paper's encrypted
         BiF estimator divides total bytes by total ACK count, which is
         only sound when the frequency does not change mid-connection *)
      match proto with Netsim.Packet.Tcp -> 1 | Netsim.Packet.Quic -> 1)
  in
  (* forward references to break the construction cycle *)
  let sender_ref = ref None in
  let deliver_to_sender pkt =
    match !sender_ref with Some s -> Transport.Sender.handle_ack s pkt | None -> ()
  in
  let path_up =
    Netsim.Path.create sim (Netsim.Rng.split rng) ~delay:profile.Profile.base_delay ~noise
      ~sink:deliver_to_sender
  in
  let receiver_ref = ref None in
  let deliver_to_receiver pkt =
    match !receiver_ref with Some r -> Transport.Receiver.handle_data r pkt | None -> ()
  in
  let bottleneck =
    Netsim.Link.create sim ~rate:profile.Profile.bandwidth
      ~buffer_bytes:profile.Profile.buffer_bytes ~extra_delay:profile.Profile.extra_delay
      ~sink:deliver_to_receiver ()
  in
  let capture_in pkt =
    (* data arriving from the wide area: record, then enqueue at bottleneck *)
    record (Netsim.Sim.now sim) pkt;
    Netsim.Link.send bottleneck pkt
  in
  let path_down =
    Netsim.Path.create sim (Netsim.Rng.split rng) ~delay:profile.Profile.base_delay ~noise
      ~sink:capture_in
  in
  let capture_out pkt =
    (* acks returning from the client: record, then send over the wide area *)
    record (Netsim.Sim.now sim) pkt;
    Netsim.Path.send path_up pkt
  in
  (* the added one-way delay also applies on the return direction *)
  let return_delay = Netsim.Delay_line.create sim ~sink:capture_out in
  let client_out pkt =
    Netsim.Delay_line.send return_delay ~at:(Netsim.Sim.now sim +. profile.Profile.extra_delay) pkt
  in
  let receiver = Transport.Receiver.create sim ~proto ~ack_every ~out:client_out () in
  receiver_ref := Some receiver;
  let sender =
    Transport.Sender.create sim ~cca ~proto ~params ~total_bytes:page_bytes
      ~out:(fun pkt -> Netsim.Path.send path_down pkt)
  in
  sender_ref := Some sender;
  Option.iter
    (fun inj ->
      Faults.arm inj ~bottleneck ~wide_area_down:path_down ~wide_area_up:path_up
        ~stall:(fun ~until -> Transport.Sender.stall sender ~until)
        ~reset:(fun () -> Transport.Sender.reset sender))
    injector;
  Transport.Sender.start sender;
  Netsim.Sim.run ~until:time_limit sim;
  let bif = Transport.Sender.bif_log sender ~run:flight_run in
  {
    trace;
    bif;
    sender_end = (if bif.log_count = 0 then 0.0 else bif.log_times.(bif.log_count - 1));
    finished = Transport.Sender.finished sender;
    duration = Netsim.Sim.last_event sim;
    bottleneck_drops = Netsim.Link.drops bottleneck;
    retransmissions = Transport.Sender.retransmissions sender;
    cca_name = cca.Cca.name;
    flow_reset = Transport.Sender.was_reset sender;
    faults_injected = (match injector with Some inj -> Faults.injected inj | None -> 0);
  }

let run ?seed ?noise ?proto ?params ?page_bytes ?time_limit ?ack_every ?faults ~profile
    ~make_cca () =
  let s =
    simulate ?seed ?noise ?proto ?params ?page_bytes ?time_limit ?ack_every ?faults ~profile
      ~make_cca ()
  in
  {
    trace = s.trace;
    ground_truth_bif =
      List.init s.bif.log_count (fun i ->
          (s.bif.log_times.(i), float_of_int s.bif.log_bytes.(i)));
    finished = s.finished;
    duration = s.duration;
    bottleneck_drops = s.bottleneck_drops;
    retransmissions = s.retransmissions;
    cca_name = s.cca_name;
    flow_reset = s.flow_reset;
    faults_injected = s.faults_injected;
  }

let run_cca ?seed ?noise ?proto ?page_bytes ?time_limit ~profile name =
  run ?seed ?noise ?proto ?page_bytes ?time_limit ~profile
    ~make_cca:(Cca.Registry.create name) ()

(** One measurement: a simulated target server downloading a page to the
    measuring client through Nebby's capture-point bottleneck.

    Topology (paper Fig. 2), data flowing left to right:

    {v
    server --(wide-area path: base delay + noise)--> [capture point]
      --(bottleneck: rate, droptail buffer)--(added one-way delay)--> client
    client acks --(added one-way delay)--> [capture point]
      --(wide-area path back)--> server
    v}

    The capture point records every packet it forwards, in both directions,
    which is the only input Nebby's classifier gets. The sender also logs
    its own bytes in flight, the ground truth of the calibration
    experiments (paper §3.2, Fig. 3); a measurement reads only its last
    sample time, to tell a truncated capture from a short flow. *)

type simulation = {
  trace : Netsim.Trace.t;
  bif : Obs.Flight.inflight_log;
      (** the sender's ground-truth BiF log, its own columns, under this
          simulation's flight-recorder run id *)
  sender_end : float;  (** time of the sender's last BiF sample, [0.0] if none *)
  finished : bool;  (** whole page acknowledged within the time limit *)
  duration : float;
      (** virtual seconds up to the last executed event (a timer's
          wake-up included), at most the time limit: when the transfer
          went quiet, not the limit it did not need *)
  bottleneck_drops : int;
  retransmissions : int;
  cca_name : string;
  flow_reset : bool;  (** the server reset the flow mid-transfer (faults) *)
  faults_injected : int;  (** fault activations during the run (0 sans plan) *)
}

val simulate :
  ?seed:int ->
  ?noise:Netsim.Path.noise ->
  ?proto:Netsim.Packet.proto ->
  ?params:Cca.params ->
  ?page_bytes:int ->
  ?time_limit:float ->
  ?ack_every:int ->
  ?faults:Faults.plan ->
  profile:Profile.t ->
  make_cca:(Cca.params -> Cca.t) ->
  unit ->
  simulation
(** Defaults: no noise, TCP, default params, the paper's 400 KB page, a
    60 s wall, acks on every packet (2 for QUIC). [faults] injects a
    seeded fault plan into the topology (see {!Faults}); the capture
    point, bottleneck, wide-area paths, and sender all honour it. *)

(** {!simulation} with the sender's BiF log as a list, for the experiments
    that read the ground truth. *)
type result = {
  trace : Netsim.Trace.t;
  ground_truth_bif : (float * float) list;  (** (time, bytes) at the sender *)
  finished : bool;
  duration : float;
  bottleneck_drops : int;
  retransmissions : int;
  cca_name : string;
  flow_reset : bool;
  faults_injected : int;
}

val run :
  ?seed:int ->
  ?noise:Netsim.Path.noise ->
  ?proto:Netsim.Packet.proto ->
  ?params:Cca.params ->
  ?page_bytes:int ->
  ?time_limit:float ->
  ?ack_every:int ->
  ?faults:Faults.plan ->
  profile:Profile.t ->
  make_cca:(Cca.params -> Cca.t) ->
  unit ->
  result
(** {!simulate}, then the sender's columns built into [ground_truth_bif]
    (about 10 words per sample). *)

val run_cca :
  ?seed:int ->
  ?noise:Netsim.Path.noise ->
  ?proto:Netsim.Packet.proto ->
  ?page_bytes:int ->
  ?time_limit:float ->
  profile:Profile.t ->
  string ->
  result
(** Convenience: look the CCA up in {!Cca.Registry}. *)

(** Composable, seeded fault injection for the simulated measurement stack.

    A {!plan} is pure data: a list of fault {!spec}s plus a seed, cheap to
    build in tests, serializable to JSON for reproducing a failing run from
    its telemetry. Realization is split from description: {!injector}
    compiles a plan into per-packet rules and scheduled interventions, and
    {!arm} wires those into a concrete topology (the bottleneck link, the
    two wide-area path segments, and the sender's stall/reset controls).

    Determinism: every stochastic fault draws from its own substream,
    forked off the plan seed by fault family and position
    ({!Netsim.Rng.named}), never from a stream shared with the base
    simulation. Enabling a plan therefore does not perturb the noise draws
    of the underlying path, and identical (plan, seed) pairs reproduce
    identical traces. *)

type spec =
  | Link_flap of { at : float; duration : float }
      (** bottleneck stops serving for [duration]; the backlog overflows *)
  | Rate_change of { at : float; factor : float }
      (** bottleneck drain rate is multiplied by [factor] (renegotiation) *)
  | Burst_loss of {
      at : float;
      duration : float;
      dir : Netsim.Packet.dir;
      prob : float;
    }  (** iid loss at [prob] within the window, on one direction *)
  | Reorder of {
      at : float;
      duration : float;
      dir : Netsim.Packet.dir;
      prob : float;
      max_extra : float;
    }  (** selected packets are held up to [max_extra] s and overtaken *)
  | Duplicate of {
      at : float;
      duration : float;
      dir : Netsim.Packet.dir;
      prob : float;
    }  (** selected packets are delivered twice *)
  | Ack_storm of { at : float; duration : float; hold : float }
      (** ACK-compression storm: acks are held and released in bursts
          every [hold] seconds *)
  | Capture_loss of { at : float; duration : float; prob : float }
      (** the capture point misses observations at [prob] in the window *)
  | Capture_jitter of { std : float }
      (** capture timestamps gain gaussian error (can reorder the trace) *)
  | Truncate_capture of { at : float }
      (** the capture stops recording at [at]; the flow continues *)
  | Server_stall of { at : float; duration : float }
      (** the sending application stalls (no new data) for [duration] *)
  | Flow_reset of { at : float }
      (** mid-flow RST: the sender goes silent for good *)

type plan = { seed : int; specs : spec list }

val empty : plan
(** No faults, seed 0. Arming it is a no-op. *)

val spec_family : spec -> string
(** Stable snake_case tag of the fault family ("link_flap", "burst_loss",
    ...), used in telemetry, the chaos matrix, and serialization. *)

val families : string list
(** All family tags, in declaration order. *)

val validate : ?horizon:float -> plan -> (unit, string) result
(** Structural validity of a plan: the seed is non-negative, every time
    is finite and within [[0, horizon]] (default 60 s, the testbed's
    default time limit), durations are strictly positive and end within
    the horizon, probabilities are within [[0, 1]], rate factors are
    strictly positive, and every other magnitude is finite and
    non-negative. The first violation is reported by fault family and
    position. Mutation-based searches ([Search.Genome]) keep every
    generated plan inside this contract. *)

(** {2 Serialization} *)

val plan_to_json : plan -> Obs.Json.t
val plan_of_json : Obs.Json.t -> (plan, string) result
val to_string : plan -> string

val of_string : string -> (plan, string) result
(** Round-trips with {!to_string}; returns [Error] (never raises) on
    malformed input. *)

(** {2 Realization} *)

type injector

val injector : sim:Netsim.Sim.t -> plan -> injector
(** Compile a plan against a simulation clock. Substreams are forked here,
    so two injectors built from the same plan behave identically. *)

val arm :
  injector ->
  bottleneck:Netsim.Link.t ->
  wide_area_down:Netsim.Path.t ->
  wide_area_up:Netsim.Path.t ->
  stall:(until:float -> unit) ->
  reset:(unit -> unit) ->
  unit
(** Install the plan into a topology: schedules link flaps, rate changes,
    server stalls and resets at their virtual times, and installs
    per-packet fault hooks on the two wide-area segments
    ([wide_area_down] carries data towards the capture point,
    [wide_area_up] carries acks back to the server). Every activation is
    recorded by {!Obs.Flight.fault} (ring entry and [faults.injected]
    counter). *)

val observe : injector -> now:float -> Netsim.Packet.t -> float option
(** Capture-point filter: [None] means the capture missed this packet
    (capture loss, or the capture is truncated); [Some t] gives the
    (possibly jittered) timestamp to record. Without capture faults this
    is [Some now]. *)

val injected : injector -> int
(** Number of fault activations so far (scheduled interventions plus
    per-packet actions). *)

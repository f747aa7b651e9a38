(** The flight recorder: an always-on, fixed-capacity ring of typed
    data-plane events, dumped on anomaly.

    Every layer of the testbed records into the ring as it runs — packet
    enqueues and drops at the bottleneck link, path-level fault decisions,
    per-ACK CCA state snapshots, BiF samples, stage transitions — and the
    ring silently overwrites its oldest entries, so recording costs a few
    array stores per event and never grows. When a measurement trips an
    anomaly trigger (a typed failure, a retry, a low-confidence verdict;
    see [Measurement]), the trailing window of the ring is snapshotted
    into a schema-versioned {!dump} cross-linked to the provenance report
    by subject id, and rendered by [Render] / [nebby_cli report].

    Detail is gated by {!Runtime.level}: [Quiet] keeps only the rare
    anomaly kinds (drops, faults, stalls, retransmissions, stage marks),
    [Normal] (the default) adds the per-ACK series ([Bif], [Cca_state]),
    [Debug] adds the per-packet events ([Enqueue], send-clock [Bif]).

    Flight holds the per-event detail of the one instrumentation path;
    the totals are {!Metrics} counters, and the hot-path recorders
    ({!enqueue}, {!drop}, {!fault}, {!retx}) bump their counter
    themselves, so each occurrence is recorded by one call.

    All state is domain-local, like [Metrics]: {!Collector} {!drain}s a
    pool worker's ring at join and {!absorb}s it into the caller's, so no
    event is lost across a parallel census. *)

type kind =
  | Enqueue  (** packet accepted by the bottleneck queue; [a]=size, [b]=queue bytes *)
  | Drop  (** packet dropped at the bottleneck; [a]=size, [b]=queue bytes *)
  | Fault  (** injected fault decision; [detail]=family, [extra]=description *)
  | Cca_state
      (** per-ACK snapshot; [a]=cwnd bytes, [b]=pacing rate or -1, [c]=ssthresh
          bytes or -1, [detail]=CCA name, [extra]=mode *)
  | Bif  (** sender ground-truth bytes-in-flight sample; [a]=bytes *)
  | Stage  (** pipeline stage transition; [detail]=stage name *)
  | Stall  (** application stall; [a]=stall end time *)
  | Retx  (** retransmission; [a]=segment seq *)
  | Serve
      (** census-service lifecycle mark; [detail]=event
          ("enqueue"/"overloaded"/"recovered"/"torn_drop"/"timeout"/"drain"),
          [a]=event-specific value (queue depth, recovered count, …) *)

val kind_label : kind -> string
(** Stable snake_case tag used in dumps. *)

type event = {
  seq : int;  (** monotone insertion index within the recording domain *)
  run : int;  (** simulation-run id; virtual time restarts at each run *)
  time : float;  (** virtual (simulated) seconds within the run *)
  kind : kind;
  a : float;
  b : float;
  c : float;  (** kind-specific numeric payload, see {!kind} *)
  detail : string;
  extra : string;  (** kind-specific string payload, [""] when unused *)
}

(** {1 Recording} *)

val enabled : unit -> bool
val set_enabled : bool -> unit
(** Recording is on by default; disabling it (the bench does, to measure
    the recorder's own overhead) turns every record call into a load and
    a branch. *)

val default_capacity : int
(** Ring slots per domain (16384). *)

val capacity : unit -> int
val set_capacity : int -> unit
(** Resize this domain's ring (min 16, default {!default_capacity}).
    Clears it. *)

val clear : unit -> unit
val new_run : unit -> int
(** Open a new simulation run: bumps the run id under which subsequent
    events record, so per-run virtual clocks never interleave. Returns
    the new id. Called by [Testbed.run]. *)

val mark : unit -> int
(** The current insertion index; pass to {!events} or {!capture} as
    [since] to scope a capture to events recorded after this point. *)

val enqueue : time:float -> size:int -> queue_bytes:int -> unit
(** A packet entered the bottleneck queue; ring at [Debug], counted as
    [netsim.link.enqueued]. *)

val drop : time:float -> size:int -> queue_bytes:int -> unit
(** The bottleneck buffer overflowed; counted as [netsim.link.drops]. *)

val fault : time:float -> family:string -> detail:string -> unit
(** A fault plan activated [family]; counted as [faults.injected]. *)

val path_fault : time:float -> family:string -> detail:string -> unit
(** A path applied a decision of its installed fault hook. Ring only: the
    hook's own {!fault} call already counted the injection. *)

val want_cca_state : unit -> bool
(** True when a {!cca_state} call would record — callers use it to skip
    building the snapshot argument on the fast path. *)

val cca_state :
  time:float ->
  cca:string ->
  cwnd:float ->
  ssthresh:float option ->
  pacing:float option ->
  mode:string ->
  unit

val bif : time:float -> bytes:int -> unit
(** ACK-clock bytes-in-flight sample ([Normal] and up). *)

val bif_send : time:float -> bytes:int -> unit
(** Send-clock bytes-in-flight sample — one per data packet, recorded
    only at [Debug] like {!enqueue}. *)

val stage : time:float -> name:string -> unit
val stall : time:float -> until:float -> unit
val retx : time:float -> seq:int -> unit
(** A segment was retransmitted; counted as [transport.retransmissions]. *)

val serve : time:float -> event:string -> value:float -> unit
(** Census-service lifecycle mark ([Serve] kind), recorded at every
    detail level: the event tag lands in [detail], the value in [a]. *)

(** {1 Readout and cross-domain merge} *)

val events : ?since:int -> unit -> event list
(** Live ring contents in insertion order, oldest surviving event first;
    [since] drops events with [seq < since]. *)

val drain : unit -> event list
(** {!events} then {!clear}: hand the ring to a collector at pool join. *)

val absorb : event list -> unit
(** Append drained events to this domain's ring. Payload, run id and time
    are preserved; seqs are re-stamped locally (seq is an insertion
    index, not an identity). *)

(** {1 Anomaly dumps} *)

val schema_version : int

type dump = {
  version : int;
  subject : string;  (** same subject id as the provenance report *)
  trigger : string;  (** e.g. ["failure:flow_reset"], ["low_confidence"] *)
  attempt : int;  (** measurement attempt that tripped the trigger *)
  window_s : float;  (** trailing window the events were scoped to *)
  events : event list;
}

val make_dump :
  subject:string -> trigger:string -> attempt:int -> window_s:float -> event list -> dump

val capture :
  subject:string ->
  trigger:string ->
  attempt:int ->
  ?since:int ->
  ?window_s:float ->
  unit ->
  dump
(** Snapshot this domain's ring into a dump (default window 10 s). *)

val dump_to_string : dump -> string
(** Schema-versioned JSONL: one header line, then one line per event,
    oldest first. Deterministic: field order is fixed and numbers render
    through [Json.number_to_string], so [dump_to_string (dump_of_string s) = s]. *)

val dump_of_string : string -> dump
(** Raises [Json.Parse_error] on malformed input and
    {!Versioned.Version_mismatch} on a schema skew. *)

val write_dump : out_channel -> dump -> unit
val read_dump : string -> dump

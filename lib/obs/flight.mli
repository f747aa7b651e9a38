(** The flight recorder: an always-on, fixed-capacity ring of typed
    data-plane events, dumped on anomaly.

    Every layer of the testbed records into the ring as it runs — packet
    enqueues and drops at the bottleneck link, path-level fault decisions,
    CCA state changes, stage transitions — and the ring silently
    overwrites its oldest entries, so recording costs a few array stores
    per event and never grows. When a measurement trips an anomaly
    trigger (a typed failure, a retry, a low-confidence verdict; see
    [Measurement]), the trailing window of the ring is snapshotted into a
    schema-versioned {!dump} cross-linked to the provenance report by
    subject id, and rendered by [Render] / [nebby_cli report].

    Detail is gated by {!Runtime.level}: [Quiet] keeps only the rare
    anomaly kinds (drops, faults, stalls, retransmissions, stage marks),
    [Normal] (the default) adds [Cca_state] on change and a dump's
    ACK-clock [Bif] rows, [Debug] adds [Enqueue] and the send-clock rows.

    Flight holds the per-event detail of the one instrumentation path;
    the totals are {!Metrics} counters, and the hot-path recorders
    ({!enqueue}, {!drop}, {!fault}, {!retx}) bump their counter
    themselves, so each occurrence is recorded by one call.

    All state is domain-local. A pool worker inherits the enabled flag
    through {!Collector} and records into its own ring; nothing is merged
    at join, because every reader of a ring ([Measurement]'s anomaly
    capture, the fuzzer's event-kind signature) runs in the domain that
    ran the measurement. *)

type kind =
  | Enqueue  (** packet accepted by the bottleneck queue; [a]=size, [b]=queue bytes *)
  | Drop  (** packet dropped at the bottleneck; [a]=size, [b]=queue bytes *)
  | Fault  (** injected fault decision; [detail]=family, [extra]=description *)
  | Cca_state
      (** CCA state on change: the sender records its first reading, then
          each one whose mode, ssthresh, cwnd (by an MSS) or pacing rate
          (by 1%) moved since the last recorded; [a]=cwnd bytes, [b]=pacing rate or -1, [c]=ssthresh
          bytes or -1, [detail]=CCA name, [extra]=mode *)
  | Bif  (** sender ground-truth BiF, dump rows only; [a]=bytes, [seq]=sample index *)
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
  seq : int;  (** insertion index within the recording domain; a [Bif] row's sample index *)
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
    the new id. Called by [Testbed.simulate]. *)

val mark : unit -> int
(** The current insertion index; pass to {!snapshot} or {!capture} as
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
    taking the snapshot on the fast path. *)

(** A CCA's state as the recorder takes it (it is [Cca.snapshot]): cwnd and
    ssthresh in bytes, pacing in bytes/s, [-1.0] for a dimension the CCA
    does not maintain. An all-float record, stored flat: the sender keeps
    one, the CCA refills it per ack, and recording it boxes nothing. *)
type cca_reading = {
  mutable snap_cwnd : float;
  mutable snap_ssthresh : float;
  mutable snap_pacing : float;
}

val cca_state : time:float -> cca:string -> mode:string -> cca_reading -> unit
(** Record a snapshot of CCA [cca] in phase [mode] ([Normal] and up). *)

val stage : time:float -> name:string -> unit
val stall : time:float -> until:float -> unit
val retx : time:float -> seq:int -> unit
(** A segment was retransmitted; counted as [transport.retransmissions]. *)

val serve : time:float -> event:string -> value:float -> unit
(** Census-service lifecycle mark ([Serve] kind), recorded at every
    detail level: the event tag lands in [detail], the value in [a]. *)

(** {1 Readout} *)

(** One run's ground-truth BiF log, as the sender keeps it: sample
    [i < log_count] is [log_bytes.(i)] bytes in flight at [log_times.(i)],
    taken on an ACK where [log_acked] holds ['\001'], else on a send. *)
type inflight_log = {
  log_run : int;  (** the id {!new_run} returned for the simulation *)
  log_times : float array;
  log_bytes : int array;
  log_acked : Bytes.t;
  log_count : int;
}

val snapshot : ?since:int -> ?window_s:float -> ?bif:inflight_log list -> unit -> event list
(** Live ring contents in insertion order, oldest surviving event first;
    [since] drops events with [seq < since], and [window_s] (default
    infinity: keep all) keeps, per run, only the events within [window_s]
    virtual seconds of that run's last event, plus the run's newest
    [Cca_state] event before them (the state in force when the window
    opens, as CCA state is recorded on change), then the in-window rows
    of its [bif] log (default none) that the level admits, the last of
    which counts towards the window. Only the kept events are built. *)

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
  window_s:float ->
  bif:inflight_log list ->
  unit ->
  dump
(** {!snapshot} into a dump. *)

val dump_to_string : dump -> string
(** Schema-versioned JSONL: one header line, then one line per event,
    oldest first. Deterministic: field order is fixed and numbers render
    through [Json.number_to_string], so [dump_to_string (dump_of_string s) = s]. *)

val dump_of_string : string -> dump
(** Raises [Json.Parse_error] on malformed input and
    {!Versioned.Version_mismatch} on a schema skew. *)

(** Common interface implemented by every congestion control algorithm.

    A CCA owns its congestion window (bytes) and, for rate-based algorithms,
    a pacing rate. The transport layer feeds it acknowledgement and loss
    events and reads back [cwnd]/[pacing_rate] to gate transmission. All
    window arithmetic inside implementations is done in MSS units, as in the
    Linux kernel, and converted at this boundary. *)

(** The floats of an ack, in an all-float record, which OCaml stores flat:
    the sender overwrites them in place without allocating. *)
type ack_sample = {
  mutable now : float;  (** virtual time of the ack, seconds *)
  mutable rtt : float;  (** latest RTT sample, seconds *)
  mutable min_rtt : float;  (** connection-lifetime minimum RTT *)
  mutable srtt : float;  (** smoothed RTT *)
  mutable delivery_rate : float;  (** estimated delivery rate, bytes/s *)
}

(** One acknowledgement, as {!t.on_ack} sees it.

    The sender owns a single event and overwrites it on every ack, so
    building one per ack costs nothing. [on_ack] must therefore read what
    it needs during the call and never keep the event, or its
    [sample], past its return: the next ack changes them in place. *)
type ack_event = {
  sample : ack_sample;
  mutable acked : int;  (** payload bytes newly acknowledged *)
  mutable inflight : int;  (** bytes in flight after this ack *)
  mutable app_limited : bool;  (** the sender had nothing to send recently *)
  mutable in_recovery : bool;  (** loss recovery in progress: window growth pauses *)
}

val fresh_ack_event : unit -> ack_event
(** A fresh event with every field zero, for the sender to reuse. *)

type loss_event = {
  now : float;
  inflight : int;  (** bytes in flight when the loss was detected *)
  by_timeout : bool;  (** RTO rather than fast retransmit *)
}

(** Introspective view of a CCA's internal state, taken per ACK for the
    flight recorder, which keeps the readings that changed. Units are bytes (bytes/s for pacing); [-1.0] marks a
    dimension the algorithm does not maintain (ssthresh for rate-based
    CCAs, pacing for window-only ones). It is the flight recorder's own
    input type. An all-float record, like {!ack_sample}: the sender keeps
    one and {!t.snapshot} fills it in place, so recording a snapshot per
    ack allocates nothing. *)
type snapshot = Obs.Flight.cca_reading = {
  mutable snap_cwnd : float;
  mutable snap_ssthresh : float;
  mutable snap_pacing : float;
}

val fresh_snapshot : unit -> snapshot
(** A buffer for {!t.snapshot} to fill: cwnd 0, the other two [-1.0]. *)

type t = {
  name : string;
  cwnd : unit -> float;  (** current congestion window in bytes *)
  pacing_rate : unit -> float option;
      (** [Some r]: packets must be spaced at [r] bytes/s; [None]: purely
          window/ack-clocked *)
  snapshot : snapshot -> string;
      (** [snapshot buf] writes the current internal state into [buf] and
          returns the algorithm phase, e.g. ["slow_start"], ["avoidance"],
          ["probe_bw"], ["drain"] (a free-form label, stable per CCA; a
          constant string, so the call allocates nothing). For the flight
          recorder; called only when recording at [Normal] detail or
          above. *)
  on_ack : ack_event -> unit;
      (** the event is the sender's and changes on the next ack: read it,
          do not keep it *)
  on_loss : loss_event -> unit;
      (** called once per congestion event (not per lost packet) *)
}

type params = { mss : int; initial_cwnd : int  (** in MSS *) }

val default_params : params
(** [mss = 250] (see DESIGN.md for why), [initial_cwnd = 10]. *)

(** Sliding-window maximum filter over timestamped samples, used by BBR for
    its bandwidth filter. A monotonic deque in ring columns: an update is
    amortized O(1) and allocates nothing once the ring has grown, and
    {!get} reads one entry. *)
module Max_filter : sig
  type f

  val create : window:float -> f
  (** [window] in seconds. *)

  val update : f -> now:float -> float -> unit
  (** Add a sample. [now] must not decrease from one update to the next
      and the value must not be NaN. Samples older than [now -. window]
      are dropped here, not in {!get}. *)

  val get : f -> float
  (** Maximum of 0 and the samples live at the last update; 0 if empty. *)
end

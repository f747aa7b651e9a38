(** Common interface implemented by every congestion control algorithm.

    A CCA owns its congestion window (bytes) and, for rate-based algorithms,
    a pacing rate. The transport layer feeds it acknowledgement and loss
    events and reads back [cwnd]/[pacing_rate] to gate transmission. All
    window arithmetic inside implementations is done in MSS units, as in the
    Linux kernel, and converted at this boundary. *)

type ack_event = {
  now : float;  (** virtual time of the ack, seconds *)
  rtt : float;  (** latest RTT sample, seconds *)
  min_rtt : float;  (** connection-lifetime minimum RTT *)
  srtt : float;  (** smoothed RTT *)
  acked : int;  (** payload bytes newly acknowledged *)
  inflight : int;  (** bytes in flight after this ack *)
  delivery_rate : float;  (** estimated delivery rate, bytes/s *)
  app_limited : bool;  (** the sender had nothing to send recently *)
  in_recovery : bool;  (** loss recovery in progress: window growth pauses *)
}

type loss_event = {
  now : float;
  inflight : int;  (** bytes in flight when the loss was detected *)
  by_timeout : bool;  (** RTO rather than fast retransmit *)
}

(** Introspective view of a CCA's internal state, recorded per ACK by the
    flight recorder. Units are bytes (bytes/s for pacing); [None] marks a
    dimension the algorithm does not maintain (ssthresh for rate-based
    CCAs, pacing for window-only ones). *)
type snapshot = {
  snap_cwnd : float;
  snap_ssthresh : float option;
  snap_pacing : float option;
  snap_mode : string;
      (** algorithm phase, e.g. ["slow_start"], ["avoidance"],
          ["probe_bw"], ["drain"] — a free-form label, stable per CCA *)
}

type t = {
  name : string;
  cwnd : unit -> float;  (** current congestion window in bytes *)
  pacing_rate : unit -> float option;
      (** [Some r]: packets must be spaced at [r] bytes/s; [None]: purely
          window/ack-clocked *)
  snapshot : unit -> snapshot;
      (** current internal state, for the flight recorder; called only
          when recording at [Normal] detail or above *)
  on_ack : ack_event -> unit;
  on_loss : loss_event -> unit;
      (** called once per congestion event (not per lost packet) *)
}

type params = { mss : int; initial_cwnd : int  (** in MSS *) }

val default_params : params
(** [mss = 250] (see DESIGN.md for why), [initial_cwnd = 10]. *)

(** Sliding-window maximum filter over timestamped samples, used by BBR for
    its bandwidth filter. *)
module Max_filter : sig
  type f

  val create : window:float -> f
  (** [window] in seconds. *)

  val update : f -> now:float -> float -> unit
  val get : f -> float
  (** Maximum over the window; 0 if empty. *)
end

(** Skeleton shared by window-based (loss/delay reacting) CCAs.

    Provides the Reno-style machinery every kernel variant shares: slow
    start (exponential growth until [ssthresh]), a per-ack congestion
    avoidance increment supplied by the variant, and a back-off rule applied
    once per congestion event. Timeouts collapse the window to 1 MSS as in
    the kernel. All quantities seen by hooks are in MSS units. *)

(** An all-float record, which OCaml stores flat, so the per-ack window
    update writes in place instead of allocating. A variant that needs
    the MSS reads it from the [params] its constructor was given. *)
type state = {
  mutable cwnd : float;  (** MSS units, >= 1 *)
  mutable ssthresh : float;  (** MSS units *)
  mutable last_loss_at : float;  (** time of the last congestion event; 0 initially *)
}

val in_slow_start : state -> bool

val build :
  name:string ->
  params:Cca_core.params ->
  ?on_event:(state -> Cca_core.ack_event -> unit) ->
  ca_increment:(state -> Cca_core.ack_event -> float) ->
  backoff:(state -> Cca_core.loss_event -> float) ->
  ?after_loss:(state -> Cca_core.loss_event -> unit) ->
  unit ->
  Cca_core.t
(** [on_event] runs on every ack before window adjustment (for RTT
    bookkeeping). [ca_increment] returns the additive window change for this
    ack during congestion avoidance (may be negative). [backoff] returns the
    new window after a fast-retransmit congestion event; [ssthresh] is set
    to that value. [after_loss] runs after any loss, including timeouts. *)

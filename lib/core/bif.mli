(** Bytes-in-flight estimation from a capture-point trace (paper §3.1-3.2).

    TCP: BiF is the gap between the largest data sequence byte seen flowing
    towards the client and the largest cumulative acknowledgement seen
    flowing back. Retransmissions never advance the front, and the
    cumulative ack self-corrects after recovery.

    QUIC: nothing is visible but direction and size, so we assume (i) all
    server-to-client packets are data and all client-to-server packets are
    ACKs, and (ii) each ACK acknowledges a constant number of bytes,
    estimated as total transferred bytes divided by total ACK count. *)

type series = { times : float array; values : float array }
(** A BiF series: [values.(k)] bytes in flight at time [times.(k)]. Both
    arrays have the same length and [times] is nondecreasing. *)

type issue =
  | Empty_trace  (** the capture recorded nothing at all *)
  | Non_monotonic_timestamps of int
      (** this many adjacent observation pairs step backwards in time
          (capture-point timestamp jitter) *)
  | Zero_length_segments of int
      (** this many data packets carry no payload *)

val validate : Netsim.Trace.t -> issue list
(** Diagnose a captured trace. An empty list means the trace satisfies the
    estimators' invariants; a malformed trace yields diagnostics here and a
    degraded (never raising) estimate from {!estimate}. *)

val estimate : Netsim.Trace.t -> series
(** Time-stamped BiF estimate, one point per captured packet, read straight
    off the trace's columns. Dispatches on whether the trace has TCP
    visibility. Malformed input is tolerated: out-of-order observations are
    re-sorted and zero-length segments are ignored rather than miscounted. *)

val accuracy : estimate:series -> truth:(float * float) list -> float
(** Agreement between an estimated BiF series and the sender's ground-truth
    log (the time-ordered list {!Testbed.run} builds from its columns), as
    [1 - mean |est - truth| / mean truth], both resampled to a common grid
    and compared over their overlapping time span, clamped to [0, 1].
    Used to reproduce Figure 3 and the §3.2 QUIC validation. *)

val stats : series -> (string * float) list
(** Point count, covered duration, mean and max of a BiF estimate — named
    fields for a decision-provenance stage. *)

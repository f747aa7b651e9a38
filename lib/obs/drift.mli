(** Deployment-drift ledger and change-point detector for the
    continuous census.

    A {!ledger} is the epoch time-series the serve journal already
    implies but never surfaces: one {!point} per finished epoch holding
    the per-class label shares (percent, as in
    [Internet.Census_history]), the unclassified share, the mean verdict
    confidence and margin, and the watchdog timeout count. {!detect}
    runs a per-class CUSUM on the share deltas and emits typed drift
    events — a class {!event.Emerged}, {!event.Collapsed}, or a paired
    {!event.Migration} when one class's loss mirrors another's gain.

    {b Determinism.} A ledger is plain data and the detector is a pure
    function of it: same points, same params → same events, regardless
    of how many worker domains produced the underlying journal. JSON
    encoding is byte-stable (serialize → parse → serialize is the
    identity), which is what lets check.sh diff ledgers across jobs
    counts.

    {b Stability guarantees.} Ledgers carry {!schema_version}. Within a
    version field names and meanings never change; any change bumps the
    version, and readers raise {!Versioned.Version_mismatch} on skew (the
    CLI maps it to exit code 2). *)

val schema_version : int

type point = {
  epoch : int;
  hosts : int;  (** verdicts contributing to this epoch's shares *)
  shares : (string * float) list;
      (** percent by [Census_history] class, ascending class name;
          classes absent from an epoch are simply missing (share 0) *)
  unknown_share : float;  (** percent of hosts left Unclassified *)
  mean_confidence : float;  (** mean verdict confidence; 0 when empty *)
  mean_margin : float;  (** mean winning margin; 0 when empty *)
  timeouts : int;  (** verdicts that exhausted the timeout budget *)
}

type ledger = {
  version : int;
  subject : string;  (** provenance note, e.g. the store path's basename *)
  points : point list;  (** ascending epoch order *)
}

val make : subject:string -> point list -> ledger
(** Normalize into a well-formed ledger: points sorted by epoch, shares
    within each point sorted by class name. *)

val classes : ledger -> string list
(** Union of class names across every point, ascending. *)

val share : point -> string -> float
(** The class's share in this point, 0 when absent. *)

(** {1 Change-point detection} *)

type params = {
  allowance : float;
      (** CUSUM slack [k], in share points per epoch: per-epoch share
          moves below this are treated as noise *)
  threshold : float;
      (** CUSUM alarm threshold [h], in cumulative share points *)
  min_hosts : int;  (** epochs with fewer contributing hosts are skipped *)
}

type event =
  | Emerged of { class_ : string; epoch : int; rate_per_epoch : float }
      (** a class's share trended up with no matching donor *)
  | Collapsed of { class_ : string; epoch : int; rate_per_epoch : float }
      (** a class's share trended down with no matching recipient *)
  | Migration of {
      from_ : string;
      to_ : string;
      epoch : int;
      rate_per_epoch : float;
    }
      (** one class's sustained loss paired with another's sustained
          gain alarming at the same epoch — the paper's CUBIC→BBR
          pattern *)

val event_epoch : event -> int
val event_label : event -> string
(** One-line description, e.g. ["migration CUBIC->BBRv1 @e4 (4.2 pts/epoch)"]. *)

val detect : ?params:params -> ledger -> event list
(** Run the per-class CUSUM over the share series. Each class carries an
    upward and a downward CUSUM on its per-epoch share deltas; crossing
    [threshold] raises an alarm once, and the class stays suppressed
    until that CUSUM drains back to zero (a continuing trend emits
    exactly one event, not one per epoch). Alarms co-firing at one epoch
    pair greedily by magnitude into {!event.Migration}s (largest gainer
    with largest loser); leftovers become {!event.Emerged} /
    {!event.Collapsed}. The ["Unclassified"] class never participates —
    unknown-rate movement is an alerting concern, not a deployment
    migration. Events are returned in epoch order, then by class name.
    [rate_per_epoch] is the mean share movement per epoch (always
    positive) since the alarming trend started accumulating. *)

(** {1 Serialization and rendering} *)

val to_json : ledger -> Json.t
val of_json : Json.t -> ledger
(** Raises {!Versioned.Version_mismatch} on schema skew, [Json.Parse_error] on a
    malformed document. *)

val event_to_json : event -> Json.t
val event_of_json : Json.t -> event

val render : ledger -> event list -> string
(** Fixed-width text: one row per epoch (hosts, top shares, unknown
    rate, confidence/margin, timeouts) followed by the event list.
    Pure function of its inputs. *)

(** The serve journal, read back as a drift ledger.

    The continuous-census store already contains everything the drift
    observatory needs — one verdict record per ["e<N>|…"] key carrying
    label, confidence, margin and the failure chain — but scattered
    across epochs. This module folds it into an {!Obs.Drift.ledger}:
    one point per epoch with per-class shares (via
    {!Internet.Census_history.class_of_label}), the unclassified share,
    mean confidence/margin, and the count of verdicts that exhausted
    the timeout budget.

    Determinism: {!Engine.Journal.fold} visits keys in ascending order
    and every statistic is a count or a sum over that order, so the
    ledger is a pure function of the store's live key/value map —
    byte-identical however many worker domains wrote it. *)

val epoch_of_key : string -> int option
(** [Some n] for verdict keys of the form ["e<n>|…"], [None] for
    snapshot and any other keys. *)

val point_of_values : epoch:int -> string list -> Obs.Drift.point
(** Fold one epoch's raw verdict-record JSON strings (the
    [Service.value_of_report] shape) into a ledger point. Unreadable
    records count as ["unknown"] with zero confidence — the same
    fail-towards-remeasuring stance as verdict decay. *)

val ledger_of_store : store:string -> Obs.Drift.ledger
(** Open the journal at [store] (repairing a torn tail like any other
    reader), build the ledger with the store's basename as subject,
    and close it. Raises [Obs.Versioned.Version_mismatch] on schema
    skew. *)

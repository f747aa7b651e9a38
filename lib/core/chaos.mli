(** The chaos matrix: every registered CCA measured under a standard fault
    suite, reporting classification accuracy degradation per fault family.

    This is the robustness counterpart of {!Accuracy}: instead of sweeping
    network conditions it sweeps {!Faults.plan}s, and instead of asking
    "how often is Nebby right" it asks "how gracefully does Nebby fail".
    The one invariant the harness enforces is that a measurement under any
    fault either classifies or returns a typed ["unknown"] with a
    non-empty {!Measurement.failure_reason} chain — never an exception. *)

type cell = {
  cca : string;
  family : string;  (** fault family this cell was measured under *)
  report : Measurement.report;
  correct : bool;  (** the report label names the CCA actually running *)
}

type row = {
  family : string;
  cells : cell list;
  accuracy : float;  (** fraction of cells classified correctly *)
  unknown_rate : float;  (** fraction of cells ending in ["unknown"] *)
  mean_attempts : float;  (** mean measurement attempts per cell *)
}

type matrix = {
  baseline : row;  (** the fault-free control row, family ["none"] *)
  rows : row list;  (** one row per fault family in the suite *)
  violations : cell list;
      (** cells that ended ["unknown"] with an empty reason chain; always
          empty unless the resilience invariant is broken *)
}

val baseline_family : string
(** ["none"]: the fault-free control row present in every matrix. *)

val standard_suite : ?seed:int -> unit -> (string * Faults.plan) list
(** One seeded fault plan per family — link flap, rate renegotiation,
    bursty loss on each direction, reordering, duplication, ACK
    compression, capture-point drops and jitter, truncation, server stall,
    mid-flow reset. Timings target the middle of a default transfer. *)

val family_names : string list
(** [baseline_family] followed by every family in {!standard_suite},
    in suite order — the vocabulary accepted by [nebby_cli chaos]. *)

val run_matrix :
  ?ccas:string list ->
  ?families:string list ->
  ?config:Measurement.config ->
  ?seed:int ->
  ?proto:Netsim.Packet.proto ->
  ?jobs:int ->
  control:Training.control ->
  unit ->
  matrix
(** Run the matrix: the baseline row plus [families] (default: all) for
    each of [ccas] (default: the full registry). Every cell is an
    independent job on the multicore engine ([jobs] workers, the calling
    domain included, default [Engine.Pool.default_jobs ()]); cells are reassembled in
    suite order, so the matrix is deterministic in [seed] and identical
    for every worker count. *)

val render : matrix -> string
(** Fixed-width report: per-family accuracy, degradation versus the
    baseline row in percentage points, unknown rate, mean attempts, and a
    tally of failure reasons; invariant violations are appended when
    present. *)

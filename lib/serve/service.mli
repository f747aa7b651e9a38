(** The continuous-census service behind [nebby serve]: a long-running
    scheduler that keeps a durable verdict store fresh across epochs and
    survives being killed at any instant.

    Three layers compose:

    - {b Durable store} — every verdict is committed to an
      {!Engine.Journal} keyed by
      ["e<epoch>|" ^ Census.cache_key] (site × proto × region ×
      training fingerprint), so a restart resumes exactly where the
      previous process died: keys already journaled are {e recovered}
      (skipped) instead of re-measured, and a torn tail left by a
      SIGKILL is dropped on open with a warning. Retraining the control
      changes the fingerprint inside every key, invalidating persisted
      verdicts wholesale.
    - {b Job queue} — sites become jobs on a bounded {!Job_queue};
      admission past the high-water mark returns [Overloaded] and the
      scheduler drains a batch before retrying, so memory stays bounded
      under any population size. A cooperative watchdog converts
      measurements that overrun [deadline_s] into the typed [Timeout]
      retry path: the job is re-pushed at urgent priority (bypassing the
      high-water mark) until the measurement layer's timeout retry
      budget is exhausted, then committed as an ["unknown"] verdict
      carrying the timeout chain.
    - {b Delta census} — epoch 0 measures every site; epoch [e > 0]
      re-measures only sites whose epoch [e-1] verdict decayed
      (confidence or margin below the configured floors) and carries
      every stable verdict forward. The carried verdicts of an epoch
      are written as one {!Engine.Journal.put_group}, flushed before any
      other record is committed. Each finished epoch commits a
      {!Internet.Census_history}-style snapshot under ["snapshot|e<e>"],
      recording the landscape's drift across epochs.

    Recovery invariant: with the default infinite deadline the store is
    a pure function of (population, control, epochs) — a run killed at
    any commit boundary and restarted produces a final store
    byte-identical to an uninterrupted run, because both replay the same
    key/value map and both end with canonical {!Engine.Journal.compact}.
    [tools/check.sh] enforces exactly this with a SIGKILL after every
    commit of a reference run in turn. *)

type config = {
  sites : int;  (** population size ([Population.generate ~n]) *)
  seed : int;  (** population seed *)
  region : Internet.Region.t;
  proto : Netsim.Packet.proto;
  jobs : int;  (** worker domains per measurement batch *)
  epochs : int;  (** census epochs to run or resume (at least 1) *)
  deadline_s : float;
      (** per-measurement wall-clock deadline; [infinity] (the default)
          disables the watchdog and preserves bit-determinism *)
  high_water : int;  (** queue depth bound (backpressure threshold) *)
  batch : int;  (** jobs measured per {!Engine.Pool.map} drain *)
  max_entries : int option;  (** journal read-cache bound *)
  confidence_floor : float;  (** epoch-decay threshold on confidence *)
  margin_floor : float;  (** epoch-decay threshold on winning margin *)
  kill_after_commits : int option;
      (** crash injection: SIGKILL this process after the Nth journal
          commit, with exactly N records on disk (a carried group is
          written up to that commit first) — the check.sh
          kill-and-resume gates *)
  status_file : string option;
      (** live health surface: write a {!Health.snapshot} here (plus a
          Prometheus exposition at [path ^ ".prom"]) after every batch
          and once more — [phase = "final"], deterministic content — at
          the end of the run *)
  migration : Internet.Population.migration option;
      (** time-varying ground truth: regenerate the population with
          {!Internet.Population.generate_at} each epoch instead of
          holding it fixed. Pair with [confidence_floor > 1] so every
          epoch re-measures — the delta census otherwise carries stable
          verdicts forward and hides the movement until they decay *)
  alert_rules : Alerts.rule list;
      (** evaluated once per finished epoch over the epoch's ledger
          point, its drift events, and the health counters; [[]] (the
          default) disables alerting entirely *)
  alert_log : string option;
      (** where to write the JSONL alert-transition log (atomically, at
          the end of the run); requires [alert_rules <> []] to ever be
          non-empty *)
}

val default_config : config
(** 24 sites, seed 7, Ohio/TCP, 2 epochs, infinite deadline, high water
    256, batch 8, unbounded cache, floors 0.9 confidence / 2.0 margin,
    no status file. *)

type summary = {
  measured : int;  (** verdicts committed by running a measurement *)
  recovered : int;  (** keys found already journaled (crash recovery) *)
  carried : int;  (** non-decayed verdicts copied forward to the epoch *)
  timeouts : int;  (** watchdog deadline hits (including final ones) *)
  overloads : int;  (** pushes rejected at the high-water mark *)
  torn_dropped : int;  (** torn tail records dropped on journal open *)
  snapshots : int;  (** epoch snapshots committed *)
  drift_events : int;  (** change-point events detected across the run *)
  alerts_fired : int;  (** alert rules that transitioned to firing *)
}

val run :
  control:Nebby.Training.control -> config:config -> store:string -> summary
(** Open (or create) the journal at [store], run every epoch, commit the
    epoch snapshots, then drain, compact and close. Raises
    [Invalid_argument] when [config.batch < 1], and
    [Obs.Versioned.Version_mismatch] on schema skew (the CLI maps it to
    exit code 2). Progress is observable when telemetry is armed:
    [serve.measured] / [serve.recovered] / [serve.watchdog.timeouts] /
    [serve.journal.torn] / [serve.drift.events] /
    [serve.alerts.transitions] counters next to the queue's own, and
    [Serve] flight-recorder events ("recovered" / "timeout" /
    "torn_drop" / "snapshot" / "drift" / "alert_fire" /
    "alert_resolve" / "drain").

    Each finished epoch additionally folds its verdicts into an
    {!Obs.Drift} ledger point, runs change-point detection over the
    ledger so far, and — when [alert_rules] is non-empty — evaluates
    the alert engine, appending firing/resolved transitions to the
    alert log and [nebby_alert] gauges to the status exposition. *)

val compact_store : store:string -> int
(** Open the journal at [store], compact it canonically, close it, and
    return the number of live records — the [nebby serve --compact-only]
    maintenance path. Compaction is deterministic: compacting twice
    yields a byte-identical file. *)

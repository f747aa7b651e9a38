(** Self-contained HTML measurement reports over {!Flight} dumps.

    {!measurement_report} turns one flight-recorder dump into a single
    HTML page with inline SVG and CSS — no scripts, no external assets —
    so a dump travels as one file that opens anywhere. Per simulation
    run it draws the BiF timeline (the paper's working view of a flow)
    with the cwnd overlay from CCA snapshots and vertical annotation
    marks for drops, fault injections, stalls and retransmissions, plus
    the frequency spectrum of the BiF series (a direct DFT over the low
    bins, where CCA oscillation frequencies live). When supplied, the
    report also embeds the per-stage profiler waterfall and the
    provenance candidate-score table, cross-linking the packet-level
    evidence to the verdict it produced.

    {b Determinism.} The output is a pure function of its inputs: every
    float is formatted with a fixed precision, all iteration orders are
    explicit, and no wall-clock or host-dependent data is consulted.
    Rendering the same dump twice yields byte-identical HTML — the CLI's
    report-determinism gate diffs on exactly this. *)

val measurement_report :
  ?provenance:Provenance.report ->
  ?prof:Prof.profile ->
  dump:Flight.dump ->
  unit ->
  string
(** Render [dump] (plus optional verdict provenance and stage profile)
    to a complete HTML document. Runs whose dump carries fewer than two
    BiF samples (a quiet-level recording) degrade to an event-count
    note instead of charts. *)

val pool_report_html : spans:Span.completed list -> unit -> string
(** Render the ["pool.task"] spans of a recording (see {!Pooltrace}) to
    a self-contained HTML page: run metadata, a per-domain utilization
    timeline, queue-wait and run-time histogram quantiles, and the
    per-domain steal/busy table. Byte-identical for equal spans, like
    {!measurement_report}. *)

val drift_dashboard :
  ?historical:(string * int * (string * float) list) list ->
  ?alerts:(int * string * [ `Fire | `Resolve ] * float * float) list ->
  ledger:Drift.ledger ->
  events:Drift.event list ->
  unit ->
  string
(** Render a {!Drift.ledger} and its detected events to a
    self-contained HTML drift observatory: a stacked share-over-epochs
    area chart (0–100%, dominant classes at the bottom, Unclassified
    in grey on top) with dashed verticals at each change-point alarm,
    the per-epoch ledger table, the alert timeline ([(epoch, rule,
    edge, value, limit)] rows, typically from the serve JSONL alert
    log), and the [historical] context rows ([(study, year, shares)],
    typically [Internet.Census_history.historical]) that anchor the
    synthetic trajectory against the published censuses. An empty
    ledger degrades to a note; a one-epoch ledger draws flat
    full-width bands. Byte-identical for equal inputs, like
    {!measurement_report}. *)

val campaign_dashboard :
  ?gates:Campaign.gate_result list ->
  ?pool:Span.completed list ->
  ?drift:Drift.ledger * Drift.event list ->
  summary:Campaign.summary ->
  unit ->
  string
(** Render a {!Campaign.summary} to a self-contained HTML dashboard
    (inline SVG and CSS, no scripts): the pass-gate table, per-CCA
    accuracy bars with 95%-CI whiskers, confidence/margin distribution
    bars with min–max whiskers, the expected-vs-got confusion tally and
    the seed-outlier table (whose subjects replay with [nebby explain]).
    When [pool] spans are given, a scheduler-utilization section (see
    {!pool_report_html}) is embedded; its wall-clock contents are
    excluded from the dashboard's determinism contract, so the CLI only
    passes it on explicit request. When [drift] is given (a serve
    store's ledger plus its detected events), the stacked
    share-over-epochs chart and event table from {!drift_dashboard} are
    embedded as an extra section.

    Degrades deterministically at the edges: an empty campaign (0
    seeds) renders a note instead of charts, single-seed cells draw
    bars without whiskers (one sample has no interval), and non-finite
    statistics are guarded out of SVG coordinates and printed as text
    instead. Byte-identical for equal inputs, like
    {!measurement_report}. *)

(** Running Nebby over the website population — the machinery behind the
    paper's §4.2 (TCP, Table 4) and §4.4 (QUIC, Table 6) census results.

    The census is the population-scale workload, so it runs on the
    multicore engine: sites become [(site, region, proto)] jobs on
    [Engine.Pool]'s sharded queue, every job seeds its own simulation from
    the site itself ({!explain_site} derives the seed from rank, region,
    and transport), and the collector reassembles results in canonical
    population order. Classifications are therefore {e bit-identical} for
    any worker count — [jobs = 1] and [jobs = 8] produce the same per-site
    labels and the same tally, ties included. *)

val cache_key :
  control:Nebby.Training.control ->
  proto:Netsim.Packet.proto ->
  region:Region.t ->
  Website.t ->
  string
(** The coordinate of one classification:
    rank:name|region|proto|[Training.fingerprint] — everything the verdict
    is a function of. The durable journal behind [Serve.Service] keys its
    records on it, so retraining the control changes the fingerprint and
    thereby invalidates every persisted verdict. *)

val explain_site :
  ?epoch:int ->
  control:Nebby.Training.control ->
  proto:Netsim.Packet.proto ->
  region:Region.t ->
  Website.t ->
  Nebby.Measurement.report
(** Classify one website from one vantage point: the full measurement
    report, with its decision provenance and any flight dump (subject =
    the site name). The label is the registry name, ["bbr3"] for a
    BBR-like unknown (the paper's Appendix-E inference for Google's
    pre-release deployment), ["unknown"], or ["unresponsive"] (QUIC
    request to a non-QUIC site); the provenance label is mapped the same
    way. [epoch] (default 0) shifts the measurement seed to simulate a
    later re-visit of the same site: the continuous census
    ([Serve.Service]) re-measures decayed verdicts at increasing epochs,
    and epoch 0 reproduces the one-shot census exactly. *)

val explained :
  ?sites:int ->
  ?jobs:int ->
  control:Nebby.Training.control ->
  proto:Netsim.Packet.proto ->
  region:Region.t ->
  Website.t list ->
  (Website.t * Nebby.Measurement.report) list
(** {!explain_site} over the population, in canonical order like
    {!labels}. *)

val provenance_reports :
  (Website.t * Nebby.Measurement.report) list -> Obs.Provenance.report list
(** The verdict reports of an {!explained} census, in its order, for
    [Obs.Provenance.confidence_dists] and [margin_dists]: which labels
    the classifiers are sure of, and which ride the margin. *)

val labels :
  ?sites:int ->
  ?jobs:int ->
  control:Nebby.Training.control ->
  proto:Netsim.Packet.proto ->
  region:Region.t ->
  Website.t list ->
  (Website.t * string) list
(** Per-site classifications over the first [sites] websites (default
    all), in canonical population order, measured by up to [jobs] workers,
    the calling domain included (default [Engine.Pool.default_jobs ()];
    [1] runs serially in the calling domain). Each is the label of
    {!explain_site}'s report, taken in the worker, so the labels are
    {!explained}'s. *)

val tally_of_labels : (Website.t * string) list -> (string * int) list
(** Collapse per-site labels into a (label, count) tally sorted by
    descending count (ties broken by label, deterministically). *)

val run :
  ?sites:int ->
  ?jobs:int ->
  control:Nebby.Training.control ->
  proto:Netsim.Packet.proto ->
  region:Region.t ->
  Website.t list ->
  (string * int) list
(** Tally of {!labels}, sorted by descending count. Deterministic in the
    same sense: independent of [jobs]. *)

val shares : (string * int) list -> (string * float) list
(** Population shares of a tally, preserving its order: each count
    divided by the total (all zeros for an empty population). These are
    the [share.<label>] cells a census campaign aggregates across
    seeds. *)

val scale_to : total:int -> (string * int) list -> (string * int) list
(** Rescale a sampled tally so the counts sum to [total] (for comparing a
    sampled census against the paper's 20,000-site rows). *)

(** The experiment side of multi-seed campaigns: fan one experiment
    across N seeds on the multicore engine and fill the generic
    {!Obs.Campaign} store with per-seed metrics and outcomes.

    Seeds are the unit of parallelism — each seed's experiment runs
    serially inside its worker ([jobs = 1] on the inner census/matrix),
    and the seeds themselves fan out on {!Engine.Pool.map_stream}, so
    per-seed records stream to the store in canonical seed order and the
    aggregate is bit-identical for every worker count. *)

type experiment =
  | Accuracy  (** one measurement per kernel CCA (Table 3's sweep) *)
  | Census  (** a labels-only census over a seeded synthetic population *)
  | Chaos  (** the fault-injection matrix ({!Nebby.Chaos}) *)

val experiment_name : experiment -> string
(** ["accuracy"] / ["census"] / ["chaos"] — the store's experiment tag. *)

val experiment_of_name : string -> (experiment, string) result
(** Inverse of {!experiment_name}; [Error] names the valid tags. *)

val family_of : string -> string
(** CCA family used for the per-family accuracy cells and gates:
    BBR-like and rate-based senders are ["rate"], delay-based senders
    ["delay"], proprietary stacks ["proprietary"], everything else
    ["loss"]. *)

val run :
  ?jobs:int ->
  ?emit:(int -> Obs.Campaign.seed_run -> unit) ->
  ?sites:int ->
  ?ccas:string list ->
  ?families:string list ->
  ?proto:Netsim.Packet.proto ->
  ?region:Region.t ->
  control:Nebby.Training.control ->
  experiment ->
  seeds:int list ->
  Obs.Campaign.seed_run list
(** Run [experiment] once per seed, up to [jobs] seeds in parallel
    (default {!Engine.Pool.default_jobs}), and return the per-seed runs
    in seed-list order. [emit i run] (if given) fires in that same order
    as each run's prefix completes — the streaming hook the CLI appends
    store lines from. [sites] sizes the census population (default 80);
    [ccas]/[families] narrow the accuracy sweep and the chaos matrix;
    [proto]/[region] select the vantage (defaults TCP, first region).

    Per-seed cells: every experiment emits ["accuracy"]; accuracy also
    emits ["accuracy.<cca>"], ["accuracy.family.<family>"] and the mean
    ["attempts"], ["confidence.mean"], ["margin.mean"] cells from
    {!Nebby.Measurement.report_metrics}; census emits ["share.<label>"]
    population shares; chaos emits per-fault-family ["accuracy.<family>"]
    and ["unknown_rate.<family>"] plus ["violations"]. Outcomes carry
    the provenance subjects ({!Obs.Campaign.outcome}). *)

val default_gates : experiment -> Obs.Campaign.gate list
(** The pass gates [nebby campaign] applies by default: an overall
    accuracy floor, per-family accuracy floors (accuracy experiment), a
    CI-width ceiling on the overall accuracy, and — evaluated only when
    a bench ledger is supplied via extras — a census throughput floor
    ([census_sites_per_s]) and the flight-recorder overhead ceiling
    ([census_flight_overhead_frac]) that subsume the old ad-hoc check.sh
    gates. *)

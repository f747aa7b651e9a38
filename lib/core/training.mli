(** Control-data generation and classifier training (paper §3.4 step 4).

    The paper runs each kernel CCA 50 times from 5 vantage points against
    control servers under both network profiles and fits per-CCA
    coefficient clusters; here the vantage points become distinct noise
    seeds against the simulated testbed. Each measurement's per-segment
    shape features are averaged into a per-trace vector, and the vectors of
    the two profiles are concatenated into the joint sample the loss-based
    classifier matches against (the second profile is exactly what
    disambiguates look-alikes such as NewReno/HSTCP, §3.3). TCP and QUIC
    traces get separate model bundles, the refinement §5 of the paper
    proposes for QUIC. *)

type profile_model = {
  profile_name : string;
  model : Sigproc.Gnb.model;
  scaler : (float * float) array;
  thresholds : (string * float) list;
}

type bundle = {
  joint : Sigproc.Gnb.model;  (** over concatenated per-profile vectors *)
  joint_scaler : (float * float) array;
  joint_thresholds : (string * float) list;
      (** per-class log-likelihood floor: 5th percentile of the training
          samples' own-class likelihood, minus slack *)
  per_profile : profile_model list;
      (** single-profile fallback models, same order as [profiles] *)
}

type control = private {
  profiles : Profile.t list;  (** profile order used for concatenation *)
  tcp : bundle;
  quic : bundle;
  samples : (string * float array list) list;
      (** raw per-segment feature vectors per CCA (Figure 7 / Table 2) *)
  degree_hist : (string * int array) list;
      (** per CCA: counts of best-fit degree 1, 2, 3 (Table 2) *)
  fingerprint : string;  (** see {!fingerprint} *)
}
(** A trained control. The type is private: every control comes from
    {!train}, so no code can build one, or [with]-update one, and leave
    its fingerprint stale. *)

val bundle_for : control -> Netsim.Packet.proto -> bundle

val train :
  ?runs_per_cca:int ->
  ?quic_runs_per_cca:int ->
  ?profiles:Profile.t list ->
  ?seed:int ->
  ?page_bytes:int ->
  ?transform:(rtt:float -> Bif.series -> Bif.series) ->
  ?jobs:int ->
  unit ->
  control
(** Runs every loss-based kernel CCA [runs_per_cca] times over TCP and
    [quic_runs_per_cca] times over QUIC (defaults 15 and 8) under each
    profile and fits the models. [transform] is applied to every BiF series
    before the pipeline — used by the metric ablation to train on degraded
    (e.g. per-RTT cwnd-style) traces; it runs on pool workers, so it must
    be a pure function of its arguments.

    The independent (proto, CCA, run) cells run through
    [Engine.Pool.map ~jobs] (default [Engine.Pool.default_jobs ()]) and
    are folded back in (proto, CCA, run) order, so [samples],
    [degree_hist] and the fingerprint are byte-identical at any [jobs]. *)

val default : unit -> control
(** Cached deterministic training run used by the default classifier. *)

val fingerprint : control -> string
(** Stable hex digest of the trained model's content (profile names,
    scalers, per-class thresholds, degree histograms) — the
    control-version component of [Census.cache_key], the journal key: retraining
    with different data changes the digest, re-deriving the same control
    does not. {!train} computes it once (an MD5 over the model's numbers
    printed with [%.17g]) and stores it in the control, so this is a
    field read: a per-site cache key costs one [sprintf]. *)

val apply_scaler : (float * float) array -> float array -> float array

val percentile : float -> float list -> float
(** [percentile q xs]: the q-quantile of a sample (q in [0,1]). *)

val dominant_degree : control -> string -> int
(** Most frequent best-fit degree for a CCA, 1-3 (Table 2). *)

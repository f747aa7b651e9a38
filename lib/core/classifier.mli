(** Running the classifiers over a measurement and combining their verdicts
    (paper Fig. 6).

    A measurement carries one prepared trace per network profile. The
    loss-based classifier consumes all profiles jointly (that is what the
    second profile exists for); the rate-based plugins (BBR and any
    registered extensions) run per trace. The combination rule mirrors the
    paper: agreement on one label classifies the measurement; claims for
    two different CCAs leave it Unknown unless one verdict is decisively
    more confident. *)

type outcome = Known of string | Unknown

val default_plugins : Training.control -> Plugin.t list
val extended_plugins : Training.control -> Plugin.t list

val classify_measurement :
  ?plugins:Plugin.t list ->
  ?proto:Netsim.Packet.proto ->
  control:Training.control ->
  (string * Pipeline.t) list ->
  outcome * Plugin.verdict list
(** Full classification of a measurement given (profile name, prepared
    trace) pairs. [plugins] defaults to {!extended_plugins}. *)

type explanation = {
  candidates : Obs.Provenance.candidate list;
      (** every (source, label, score) the classifiers weighed: the GNB
          log-likelihood per CCA (best first) plus one candidate per
          plugin vote, attributed ["plugin:profile"] *)
  margin : float;
      (** top-1 minus top-2 score of the deciding source — GNB
          log-likelihood gap when the loss classifier decided, confidence
          gap otherwise *)
  confidence : float;  (** of the winning verdict; 0 when Unknown *)
  signals : (string * (string * float) list) list;
      (** per-plugin {!Plugin.t.explain} signals, keyed
          ["plugin:profile"] *)
}

val explain_measurement :
  ?plugins:Plugin.t list ->
  ?proto:Netsim.Packet.proto ->
  control:Training.control ->
  (string * Pipeline.t) list ->
  outcome * Plugin.verdict list * explanation
(** {!classify_measurement} plus the decision provenance behind it.
    Classification behaviour is identical — same outcome, same verdicts,
    same counted votes. *)

val combine : Plugin.verdict list -> outcome

val outcome_label : outcome -> string
(** The label, or ["unknown"]. *)

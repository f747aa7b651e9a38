(** The loss-based (AIMD/MIMD) classifier (paper §3.4 steps 3-4, App. B).

    Shape features of every segment are averaged into a per-trace vector;
    the vectors of the two network profiles are concatenated and matched
    against the trained per-CCA Gaussian clusters. A decision requires a
    posterior margin over the runner-up and a likelihood above the class's
    training floor — otherwise the trace stays unknown, implementing the
    paper's "equally high probabilities" rule. *)

val classify_joint :
  ?proto:Netsim.Packet.proto ->
  Training.control ->
  (string * Pipeline.t) list ->
  Plugin.verdict option
(** [classify_joint control prepared] takes (profile name, prepared trace)
    pairs. Uses the joint two-profile model when every profile yielded
    features, else falls back to agreeing single-profile verdicts. *)

val joint_scores :
  ?proto:Netsim.Packet.proto ->
  Training.control ->
  (string * Pipeline.t) list ->
  (string * float) list
(** Per-CCA log-likelihoods behind {!classify_joint}'s decision, sorted
    best first: the joint model's scores when every profile yielded
    features, else the summed single-profile scores the fallback path
    weighs. [[]] when no profile produced a feature vector. Purely
    observational — for decision provenance. *)

val segment_labels :
  ?proto:Netsim.Packet.proto ->
  Training.control ->
  profile_name:string ->
  Pipeline.t ->
  string option list
(** Per-segment decisions under the profile's model, for inspection and
    extensibility experiments. *)

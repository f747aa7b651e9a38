(** AkamaiCC: the undocumented variant the paper reconstructs from traces
    (§4.3, Fig. 10). Behaviour observed in the wild: send at some fixed rate
    for 10-20 s, then back off deeply, where neither the rate nor the
    back-off is triggered by losses, the BDP, or the RTT. We reproduce that
    observable: a pacing rate drawn at connection setup (independent of path
    properties), held for a random 10-20 s epoch, then a short deep drain. *)

val create : ?seed:int -> Cca_core.params -> Cca_core.t

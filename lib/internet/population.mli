(** Synthetic Alexa-Top-20k population with ground-truth CCA deployments.

    The ground-truth shares are seeded from the paper's findings (§4.2,
    Table 4): CUBIC dominates, BBRv1 holds ~10-13% with regional gaps,
    ~7% of sites serve the undocumented AkamaiCC, 13.6% of sites deploy
    different CCAs in different regions (half of those run CUBIC in Mumbai
    and/or Sao Paulo while running BBR elsewhere — amazon.com's pattern),
    and ~9% respond to QUIC (§4.4), mostly Cloudflare-hosted or Meta
    domains, serving the same CCA they serve over TCP. *)

val base_weights : (string * float) list
(** Ground-truth deployment weights over registry CCA names. *)

val generate : ?n:int -> seed:int -> unit -> Website.t list
(** [generate ~n ~seed ()] builds a deterministic population of [n]
    (default 20,000) websites, heavy hitters first. *)

(** {1 Time-varying populations}

    The paper's headline result is longitudinal (Table 11: CUBIC's share
    eroding into BBR's across studies). A {!migration} schedule makes the
    synthetic ground truth move the same way: starting at epoch [onset],
    [rate] base-weight points of [from_cca] sites convert to [to_cca]
    each epoch until the donor class is exhausted. *)

type migration = {
  from_cca : string;  (** donor registry CCA name, e.g. ["cubic"] *)
  to_cca : string;  (** recipient registry CCA name, e.g. ["bbr"] *)
  onset : int;  (** first epoch at which converted sites appear *)
  rate : float;  (** base-weight points converted per epoch *)
}

val default_migration : migration
(** CUBIC→BBR from epoch 2 at 4 weight points (~4.5 share points) per
    epoch — a compressed Table-11 trajectory. *)

val migration_of_spec : string -> migration option
(** Parse a ["from:to:onset:rate"] CLI spec, e.g. ["cubic:bbr:2:4"].
    [None] on malformed input (empty names, [from = to], negative onset,
    non-positive rate). *)

val migration_spec : migration -> string
(** Inverse of {!migration_of_spec}. *)

val weights_at : migration -> epoch:int -> (string * float) list
(** {!base_weights} with the converted mass moved from donor to
    recipient — the expected ground truth at [epoch]. *)

val generate_at :
  ?n:int -> seed:int -> ?migration:migration -> epoch:int -> unit -> Website.t list
(** [generate_at ~seed ~epoch ()] is {!generate}'s population evolved to
    [epoch]: identical site identities (rank, name, CDN, noise), but
    each donor-class site converts to the recipient once its per-site
    uniform — drawn from a substream keyed only by [(seed, rank)] —
    falls under the converted fraction. Conversion is monotone in
    [epoch] (a converted site stays converted) and
    [generate_at ~epoch:e] equals {!generate} exactly for every [e]
    before [migration.onset]. Converted sites flip every regional
    deployment of the donor CCA and remap their QUIC stack under the
    same CUBIC/BBR/Reno-only rule as generation. *)

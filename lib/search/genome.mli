(** The unit of adversarial search: one complete measurement scenario.

    A genome pairs a {!Faults.plan} with the wide-area path parameters the
    measurement runs under — delay, bottleneck rate and buffer (as factors
    on the trained profiles), delay jitter, and cross-traffic loss — plus
    the target CCA the scenario runs against. It is pure data: cheap to
    mutate, serializable to JSON (the committed regression fixtures embed
    one), and the whole evaluation is a pure function of it — the
    measurement seed is the fault plan's seed, so a genome reproduces its
    verdict bit for bit on replay.

    Every constructor and {!mutate} keeps the genome inside {!validate}'s
    contract: times within the simulation horizon, probabilities in
    [0, 1], path factors within {!path_bounds}. *)

type path = {
  delay_factor : float;  (** scales each profile's server-side base delay *)
  rate_factor : float;  (** scales the bottleneck rate *)
  buffer_factor : float;  (** scales the droptail buffer *)
  jitter_std : float;  (** wide-area delay jitter, seconds *)
  cross_loss : float;  (** iid cross-traffic loss probability *)
}

val baseline_path : path
(** Factors of 1 and the default mild-noise jitter/loss: the conditions a
    plain [Measurement.measure] uses, so the baseline genome reproduces an
    unperturbed measurement exactly. *)

type t = {
  cca : string;  (** target CCA (a registry name); also the expected label *)
  faults : Faults.plan;
  path : path;
}

val baseline : cca:string -> seed:int -> t
(** No faults (plan seed [seed]), baseline path. *)

val of_plan : cca:string -> Faults.plan -> t
(** Adopt an external plan (e.g. a chaos-suite plan) at the baseline
    path, clamping every spec into the valid ranges first. *)

val validate : t -> (unit, string) result
(** {!Faults.validate} on the plan plus bounds checks on the path. *)

val equal : t -> t -> bool

(** {2 Serialization} — round-trips byte-identically via {!to_string}. *)

val to_json : t -> Obs.Json.t
val of_json : Obs.Json.t -> (t, string) result
val to_string : t -> string

(** {2 Mutation} *)

val mutate : rng:Netsim.Rng.t -> ?ccas:string list -> t -> t
(** One seeded mutation: tweak a numeric field of one fault spec, add or
    remove a spec, reseed the plan, scale one path parameter, or — when
    [ccas] offers more than one target — retarget the scenario. The
    result always satisfies {!validate}; drawing from the same [rng]
    state yields the same mutant. *)

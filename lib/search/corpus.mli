(** The novelty-bucketed corpus behind the coverage-guided search.

    Entries are keyed by their coverage signature (see [Fuzzer.signature]):
    the first genome to reach a signature claims the bucket, later
    duplicates are rejected, so the corpus only grows when the search
    reaches behaviour it has not seen. Iteration order is insertion order
    — which, because candidates are generated before dispatch and results
    are folded in canonical index order, is identical for every worker
    count. *)

type 'a t

val create : unit -> 'a t

val add : 'a t -> signature:string -> fitness:float -> 'a -> bool
(** [true] iff the signature was novel and the entry was admitted. *)

val size : 'a t -> int

val entries : 'a t -> (string * float * 'a) list
(** (signature, fitness, payload) in insertion order. *)

val pick : 'a t -> rng:Netsim.Rng.t -> 'a option
(** Fitness-weighted seeded choice among the entries ([None] when empty):
    higher-fitness buckets breed more, but every bucket keeps a floor
    weight so cold signatures are never starved. *)

(** A small per-domain cache of recent results, keyed by physical identity.

    The analysis signatures ({!Trace_sig}) and the trace feature vector
    ({!Features.trace_vector}) are asked for several times per measurement
    by different classifiers. Each caches its results here, keyed by the
    immutable sample array they are computed from. Each domain keeps its
    own slots, so pool workers never contend, and a lookup compares keys
    with [==] only: it never hashes a float array. Only the last
    [capacity] keys are kept, so a miss after eviction just recomputes;
    the cache can never change a result. *)

type ('k, 'v) t

val create : int -> ('k, 'v) t
(** [create capacity] remembers up to [capacity] keys per domain, the
    oldest evicted first. @raise Invalid_argument if [capacity < 1]. *)

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** [find_or_add t key compute] is the value cached for a key physically
    equal to [key] in the calling domain, else [compute ()], cached. *)

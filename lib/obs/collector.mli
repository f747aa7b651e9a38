(** The worker contract of the one instrumentation path: the single list
    of domain-local obs sinks a pool worker inherits from the domain that
    spawns it and hands back when it joins.

    Each sink, with what the worker inherits / what it hands back:
    - {!Runtime}: the armed state and detail level / nothing;
    - {!Metrics}: nothing / its counters and gauges;
    - {!Provenance}: report collection on or off / its reports;
    - {!Flight}: the enabled flag / its ring;
    - {!Histogram}: nothing / its registry;
    - {!Span}: the caller's innermost open span, as the parent and path
      prefix of the worker's spans, and span collection on or off / its
      collected spans.

    The caller absorbs the handed-back buffers in that order, worker by
    worker in join order. A new domain-local sink is added to this list
    and every pool carries it. *)

type 'a worker

val spawn : (unit -> 'a) -> 'a worker
(** In the caller: capture every sink's inherited state, then run [f] on
    a new domain with that state installed. When [f] returns, the worker
    drains every sink. [f] should not raise: a worker that raises hands
    nothing back. *)

val join : 'a worker -> 'a
(** Join the worker's domain, absorb its drained sinks into the calling
    domain and return [f]'s result. *)

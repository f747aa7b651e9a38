(** Span-based tracing over the thread of execution: the one recorder of
    the instrumentation path.

    [with_ ~name f] times [f] on the wall clock and — when a simulation is
    driving (see {!Runtime.set_virtual_clock}) — on the virtual clock too,
    and charges [f]'s GC activity (words allocated, major collections) to
    the span. Nested calls form a tree via parent ids; [path] is the
    root-first chain of open span names, which is what {!Prof} folds into
    flamegraph stacks. Every completed span feeds the ["span.<name>"]
    duration histogram in the {!Histogram} registry (and
    ["span.virt.<name>"] for virtual time), so per-stage breakdowns need
    no extra bookkeeping.

    When the runtime is not armed, [with_] is [f ()]: one field read, no
    allocation, no clock syscall.

    The body runs under [Fun.protect]: the frame is popped and the span
    emitted on {e every} exit path, so an escaping exception can never
    leave the open-span stack unbalanced.

    The open-span stack and the collected-span buffer are domain-local.
    A pool worker starts under the caller's innermost open span and hands
    its collected spans back at join, both through {!Collector}, so a
    recording holds the same tree at any pool size. *)

type completed = {
  id : int;  (** unique within the process *)
  parent_id : int option;
  name : string;
  path : string list;  (** root-first open-span names, ending with [name] *)
  depth : int;  (** nesting depth at open time; 0 = root *)
  wall_start : float;  (** [Unix.gettimeofday] seconds *)
  wall_s : float;  (** wall duration *)
  virt_start : float option;  (** simulation clock, when inside [Sim.run] *)
  virt_s : float option;  (** virtual duration, when opened and closed inside one *)
  alloc_words : float;  (** words allocated while the span was open *)
  major_collections : int;  (** major GC cycles completed while open *)
  raised : bool;  (** the body escaped with an exception *)
  attrs : (string * float) list;  (** set at open, e.g. a pool task's index *)
}

val with_ : ?attrs:(string * float) list -> name:string -> (unit -> 'a) -> 'a

val record : (unit -> 'a) -> 'a * completed list
(** [record f] arms the runtime, runs [f] and returns its result with
    every span completed meanwhile, pool workers' included, in
    completion order. Records nest: the spans of an inner [record] also
    reach every enclosing one. If [f] raises, its spans still reach an
    enclosing record and the exception propagates. *)

(** {1 The pool worker contract} (used by {!Collector}) *)

val inherit_ : unit -> unit -> unit
(** In the caller, returns what a fresh worker runs first: open spans
    under the caller's innermost open span, and collect if the caller
    does. *)

val drain : unit -> completed list
(** The worker's collected spans in completion order, emptying its buffer. *)

val absorb : completed list -> unit
(** In the caller: append a worker's drained spans to the buffer of its
    innermost open {!record}, if any. *)

(** {1 Export} *)

val to_json : completed -> Json.t
(** One JSONL record: [{"kind":"span", ...}]. *)

val of_json : Json.t -> completed
(** The inverse of {!to_json}: [of_json (to_json c) = c]. Raises
    [Json.Parse_error] on a line of another shape. *)

val chrome_trace : completed list -> Json.t
(** The Chrome [trace_event] document ("X" phase complete events) for
    [chrome://tracing] / Perfetto, one named thread per pool worker: a
    span runs on the [worker] of its innermost ["pool.task"] ancestor,
    else on worker 0, the calling domain. *)

(** Span-based tracing over the thread of execution.

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

    All tracing state (ids, the open-span stack, subscribers, the
    collected-span buffer) is domain-local: concurrent workers trace
    independently. A pool worker's duration histograms, profile and
    collected spans reach the caller through {!Collector}. *)

type completed = {
  id : int;
  parent_id : int option;
  name : string;
  path : string list;  (** root-first open-span names, ending with [name] *)
  depth : int;  (** nesting depth at open time; 0 = root *)
  wall_start : float;  (** [Unix.gettimeofday] seconds *)
  wall_stop : float;
  virt_start : float option;  (** simulation clock, when inside [Sim.run] *)
  virt_stop : float option;
  alloc_words : float;  (** words allocated while the span was open *)
  major_collections : int;  (** major GC cycles completed while open *)
  raised : bool;  (** the body escaped with an exception *)
}

val with_ : name:string -> (unit -> 'a) -> 'a

type handle

val on_complete : (completed -> unit) -> handle
(** Subscribe to finished spans. Also arms {!Runtime}. *)

val off : handle -> unit

(** {1 Collected spans}

    While collecting is on, every completed span is also kept in a
    domain-local buffer. {!Telemetry.record} turns it on; {!Collector}
    hands a worker's buffer to the caller, so no span is lost at any
    pool size. *)

val collecting : unit -> bool
val set_collecting : bool -> unit

val drain : unit -> completed list
(** The buffered spans in completion order, emptying the buffer. *)

val absorb : completed list -> unit
(** Append drained spans to this domain's buffer. Their ids are
    re-stamped above every id this domain has issued (parent links kept),
    so ids stay unique within the buffer. *)

val to_json : completed -> Json.t
(** One JSONL record: [{"kind":"span", ...}]. *)

val chrome_trace : completed list -> Json.t
(** The Chrome [trace_event] document ("X" phase complete events) for
    [chrome://tracing] / Perfetto. *)

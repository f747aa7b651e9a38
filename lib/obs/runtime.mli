(** The telemetry switch and the virtual-clock provider.

    Instrumented code guards every recording action on {!armed}; when
    nothing has armed the runtime the fast path is a single field read
    and no closure or event value is allocated. Arming is counted, so
    nested recordings ({!Span.record}) compose.

    All state is {e domain-local}: each domain owns its own armed count
    and virtual clock, so concurrent simulations on worker domains never
    race on shared telemetry state. A freshly spawned domain starts
    disarmed; {!Collector} arms a pool worker when its caller is armed. *)

(** Verbosity of continuous recording (the flight recorder's detail
    level, and the CLI's stderr chattiness). Domain-local, like the rest
    of the runtime state; {!Collector} gives pool workers the caller's
    level. *)
type level = Quiet | Normal | Debug

val level : unit -> level
(** Current level of this domain; [Normal] unless {!set_level} was called. *)

val set_level : level -> unit

type level_cell = { mutable current : level }

val level_cell : unit -> level_cell
(** The domain-local cell behind {!level}. Hot recording paths (the
    flight recorder fires per packet) cache this cell in their own
    domain-local state so a detail-level check costs one field load
    instead of a second DLS lookup per event. The cell is per-domain and
    aliases {!set_level}: mutating [current] is exactly [set_level]. *)

val armed : unit -> bool
(** True when at least one consumer on this domain wants telemetry
    recorded. *)

val arm : unit -> unit
val disarm : unit -> unit

val set_virtual_clock : (unit -> float) option -> unit
(** Installed by simulation drivers ([Netsim.Sim.run]) so spans opened
    inside simulated code also record virtual durations. Domain-local:
    a worker's simulation clock is invisible to every other domain. *)

val virtual_clock : unit -> (unit -> float) option
val virtual_now : unit -> float option

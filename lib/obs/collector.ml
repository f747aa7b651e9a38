(* A sink is two staged closures. [inherit_] runs in the caller and
   returns what the worker runs first; [hand_back] runs in the worker
   after its work and returns what the caller runs at join. Staging keeps
   every DLS read on the domain it belongs to. *)
type sink = { inherit_ : unit -> unit -> unit; hand_back : unit -> unit -> unit }

let nothing () = Fun.id

let flush drain absorb () =
  let buffer = drain () in
  fun () -> absorb buffer

let sinks =
  [
    {
      inherit_ =
        (fun () ->
          let armed = Runtime.armed () and level = Runtime.level () in
          fun () ->
            if armed then Runtime.arm ();
            Runtime.set_level level);
      hand_back = nothing;
    };
    {
      inherit_ =
        (fun () ->
          let on = Flight.enabled () in
          fun () -> Flight.set_enabled on);
      hand_back = nothing;
    };
    { inherit_ = nothing; hand_back = flush Metrics.drain Metrics.absorb };
    { inherit_ = Span.inherit_; hand_back = flush Span.drain Span.absorb };
  ]

type 'a worker = ('a * (unit -> unit) list) Domain.t

let spawn f =
  let installs = List.map (fun s -> s.inherit_ ()) sinks in
  Domain.spawn (fun () ->
      List.iter (fun install -> install ()) installs;
      let result = f () in
      (result, List.map (fun s -> s.hand_back ()) sinks))

let join worker =
  let result, absorbs = Domain.join worker in
  List.iter (fun absorb -> absorb ()) absorbs;
  result

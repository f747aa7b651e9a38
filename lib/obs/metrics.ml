type counter = { c_name : string; mutable c : int; mutable live : bool }
type gauge = { g_name : string; mutable g : float }
type metric = Counter of counter | Gauge of gauge

(* One registry per domain: worker domains accumulate into their own
   tables (a per-domain telemetry buffer) and the Collector flushes them
   into the caller's registry at join via [drain]/[absorb]. No lock is
   ever needed on the hot update path. *)
let registry_key : (string, metric) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let registry () = Domain.DLS.get registry_key

(* A reset unregisters every counter; [live] tells a [hot] handle that
   its counter is gone. *)
let reset () =
  let registry = registry () in
  Hashtbl.iter (fun _ -> function Counter c -> c.live <- false | Gauge _ -> ()) registry;
  Hashtbl.reset registry

let counter name =
  let registry = registry () in
  match Hashtbl.find_opt registry name with
  | Some (Counter c) -> c
  | Some _ -> invalid_arg ("Obs.Metrics.counter: " ^ name ^ " registered with another type")
  | None ->
    let c = { c_name = name; c = 0; live = true } in
    Hashtbl.replace registry name (Counter c);
    c

let incr c = c.c <- c.c + 1
let add c n = c.c <- c.c + n
let counter_value c = c.c
let bump ?(by = 1) name = if Runtime.armed () then add (counter name) by

type hot = { h_name : string; mutable h : counter }

let hot name = { h_name = name; h = { c_name = name; c = 0; live = false } }

let tick h =
  if Runtime.armed () then begin
    if not h.h.live then h.h <- counter h.h_name;
    h.h.c <- h.h.c + 1
  end

let gauge name =
  let registry = registry () in
  match Hashtbl.find_opt registry name with
  | Some (Gauge g) -> g
  | Some _ -> invalid_arg ("Obs.Metrics.gauge: " ^ name ^ " registered with another type")
  | None ->
    let g = { g_name = name; g = 0.0 } in
    Hashtbl.replace registry name (Gauge g);
    g

let set g v = g.g <- v
let gauge_value g = g.g

type snap =
  | Counter_snap of { name : string; value : int }
  | Gauge_snap of { name : string; value : float }

let snap_name = function Counter_snap { name; _ } | Gauge_snap { name; _ } -> name

let snapshot () =
  Hashtbl.fold
    (fun _ m acc ->
      (match m with
      | Counter c -> Counter_snap { name = c.c_name; value = c.c }
      | Gauge g -> Gauge_snap { name = g.g_name; value = g.g })
      :: acc)
    (registry ()) []
  |> List.sort (fun a b -> compare (snap_name a) (snap_name b))

let drain () =
  let snaps = snapshot () in
  reset ();
  snaps

let absorb snaps =
  List.iter
    (function
      | Counter_snap { name; value } -> add (counter name) value
      | Gauge_snap { name; value } -> set (gauge name) value)
    snaps

let render snaps =
  if snaps = [] then "(no metrics recorded)\n"
  else begin
    let buf = Buffer.create 1024 in
    Buffer.add_string buf (Printf.sprintf "%-40s %12s\n" "counter/gauge" "value");
    List.iter
      (fun s ->
        let value =
          match s with
          | Counter_snap { value; _ } -> string_of_int value
          | Gauge_snap { value; _ } -> Printf.sprintf "%g" value
        in
        Buffer.add_string buf (Printf.sprintf "%-40s %12s\n" (snap_name s) value))
      snaps;
    Buffer.contents buf
  end

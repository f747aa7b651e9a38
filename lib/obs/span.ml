type completed = {
  id : int;
  parent_id : int option;
  name : string;
  path : string list;
  depth : int;
  wall_start : float;
  wall_stop : float;
  virt_start : float option;
  virt_stop : float option;
  alloc_words : float;
  major_collections : int;
  raised : bool;
}

type handle = int

(* Per-domain tracing state: ids, subscribers, the open-span stack and
   the collected-span buffer are all domain-local, so concurrent workers
   each trace their own thread of execution without synchronization. *)
type state = {
  mutable next_id : int;
  mutable next_handle : int;
  mutable subscribers : (handle * (completed -> unit)) list;
  mutable stack : (int * string) list;  (** innermost open span first *)
  mutable collecting : bool;
  mutable collected : completed list;  (** newest first *)
}

let key =
  Domain.DLS.new_key (fun () ->
      { next_id = 0; next_handle = 0; subscribers = []; stack = []; collecting = false;
        collected = [] })

let state () = Domain.DLS.get key

let on_complete f =
  let s = state () in
  s.next_handle <- s.next_handle + 1;
  let h = s.next_handle in
  s.subscribers <- (h, f) :: s.subscribers;
  Runtime.arm ();
  h

let off h =
  let s = state () in
  let before = List.length s.subscribers in
  s.subscribers <- List.filter (fun (h', _) -> h' <> h) s.subscribers;
  if List.length s.subscribers < before then Runtime.disarm ()

let collecting () = (state ()).collecting
let set_collecting on = (state ()).collecting <- on

let drain () =
  let s = state () in
  let spans = List.rev s.collected in
  s.collected <- [];
  spans

let absorb spans =
  let s = state () in
  let base = s.next_id in
  List.iter
    (fun c ->
      let id = c.id + base in
      if id > s.next_id then s.next_id <- id;
      let parent_id = Option.map (( + ) base) c.parent_id in
      s.collected <- { c with id; parent_id } :: s.collected)
    spans

let duration_histogram name = Histogram.get ("span." ^ name)

(* Total words allocated so far in this domain (minor + major, without
   double-counting promotions). Differences of this quantity across a span
   are the span's allocation footprint. *)
let allocated_words (g : Gc.stat) =
  g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words

let finish ~id ~parent_id ~name ~depth ~wall_start ~virt_start ~gc_start
    ~raised =
  let s = state () in
  let wall_stop = Unix.gettimeofday () in
  let virt_stop = Runtime.virtual_now () in
  let gc_stop = Gc.quick_stat () in
  (* pop our frame; defensively drop any frames an escaping exception left
     behind above us *)
  let rec pop = function
    | (id', _) :: rest when id' = id -> rest
    | _ :: rest -> pop rest
    | [] -> []
  in
  s.stack <- pop s.stack;
  (* After the pop the stack holds exactly our ancestors, innermost first:
     reverse it for a root-first path and append ourselves. *)
  let path = List.rev_map snd s.stack @ [ name ] in
  Histogram.observe (duration_histogram name) (wall_stop -. wall_start);
  (match (virt_start, virt_stop) with
  | Some v0, Some v1 when v1 >= v0 ->
    Histogram.observe (duration_histogram ("virt." ^ name)) (v1 -. v0)
  | _ -> ());
  let alloc_words =
    Float.max 0.0 (allocated_words gc_stop -. allocated_words gc_start)
  in
  let major_collections =
    max 0 (gc_stop.Gc.major_collections - gc_start.Gc.major_collections)
  in
  let c =
    {
      id;
      parent_id;
      name;
      path;
      depth;
      wall_start;
      wall_stop;
      virt_start;
      virt_stop;
      alloc_words;
      major_collections;
      raised;
    }
  in
  if s.collecting then s.collected <- c :: s.collected;
  List.iter (fun (_, f) -> f c) s.subscribers

let with_ ~name f =
  if not (Runtime.armed ()) then f ()
  else begin
    let s = state () in
    s.next_id <- s.next_id + 1;
    let id = s.next_id in
    let parent_id = match s.stack with [] -> None | (pid, _) :: _ -> Some pid in
    let depth = List.length s.stack in
    s.stack <- (id, name) :: s.stack;
    let gc_start = Gc.quick_stat () in
    let wall_start = Unix.gettimeofday () in
    let virt_start = Runtime.virtual_now () in
    (* Fun.protect guarantees the frame is popped and the span emitted on
       every exit path — normal return, exception, even an effect-based
       unwind — so the stack can never underflow on a later finish. *)
    let ok = ref false in
    Fun.protect
      ~finally:(fun () ->
        finish ~id ~parent_id ~name ~depth ~wall_start ~virt_start ~gc_start
          ~raised:(not !ok))
      (fun () ->
        let result = f () in
        ok := true;
        result)
  end

let to_json c =
  let opt name = function None -> [] | Some v -> [ (name, Json.Num v) ] in
  Json.Obj
    ([
       ("kind", Json.Str "span");
       ("name", Json.Str c.name);
       ("path", Json.Str (String.concat ";" c.path));
       ("id", Json.Num (float_of_int c.id));
     ]
    @ (match c.parent_id with
      | Some p -> [ ("parent_id", Json.Num (float_of_int p)) ]
      | None -> [])
    @ [
        ("depth", Json.Num (float_of_int c.depth));
        ("wall_start", Json.Num c.wall_start);
        ("wall_s", Json.Num (c.wall_stop -. c.wall_start));
        ("alloc_words", Json.Num c.alloc_words);
        ("major_collections", Json.Num (float_of_int c.major_collections));
      ]
    @ opt "virt_start" c.virt_start
    @ (match (c.virt_start, c.virt_stop) with
      | Some v0, Some v1 -> [ ("virt_s", Json.Num (v1 -. v0)) ]
      | _ -> [])
    @ if c.raised then [ ("raised", Json.Bool true) ] else [])

(* Chrome trace_event format: complete ("X") events with microsecond
   timestamps relative to the earliest span, loadable in chrome://tracing
   and ui.perfetto.dev. *)
let chrome_trace spans =
  let t0 =
    List.fold_left (fun acc c -> Float.min acc c.wall_start) infinity spans
  in
  let t0 = if Float.is_finite t0 then t0 else 0.0 in
  let entry c =
    Json.Obj
      [
        ("name", Json.Str c.name);
        ("ph", Json.Str "X");
        ("pid", Json.Num 1.0);
        ("tid", Json.Num 1.0);
        ("ts", Json.Num ((c.wall_start -. t0) *. 1e6));
        ("dur", Json.Num ((c.wall_stop -. c.wall_start) *. 1e6));
        ( "args",
          Json.Obj
            ((match c.virt_start, c.virt_stop with
             | Some v0, Some v1 -> [ ("virt_s", Json.Num (v1 -. v0)) ]
             | _ -> [])
            @ [
                ("depth", Json.Num (float_of_int c.depth));
                ("alloc_words", Json.Num c.alloc_words);
              ]) );
      ]
  in
  Json.Obj
    [
      ("traceEvents", Json.Arr (List.map entry (List.sort (fun a b -> compare a.wall_start b.wall_start) spans)));
      ("displayTimeUnit", Json.Str "ms");
    ]

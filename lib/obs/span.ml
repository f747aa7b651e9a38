type completed = {
  id : int;
  parent_id : int option;
  name : string;
  path : string list;
  depth : int;
  wall_start : float;
  wall_s : float;
  virt_start : float option;
  virt_s : float option;
  alloc_words : float;
  major_collections : int;
  raised : bool;
  attrs : (string * float) list;
}

(* An open span: its id, its root-first path reversed (innermost name
   first), and its depth. *)
type frame = { fid : int; rpath : string list; fdepth : int }

(* Per-domain tracing state: the open-span stack and the collected-span
   buffer are domain-local, so concurrent workers each trace their own
   thread of execution without synchronization. Ids come from one
   process-wide counter, so they stay unique when a worker's spans join
   the caller's buffer. *)
type state = {
  mutable stack : frame list;  (** innermost open span first *)
  mutable recording : int;  (** open {!record}s; collect while > 0 *)
  mutable collected : completed list;  (** newest first *)
}

let key = Domain.DLS.new_key (fun () -> { stack = []; recording = 0; collected = [] })
let state () = Domain.DLS.get key
let next_id = Atomic.make 0

(* Total words allocated so far in this domain (minor + major, without
   double-counting promotions). Differences of this quantity across a span
   are the span's allocation footprint. *)
let allocated_words (g : Gc.stat) =
  g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words

let with_ ?(attrs = []) ~name f =
  if not (Runtime.armed ()) then f ()
  else begin
    let s = state () in
    let frame, parent_id =
      let fid = Atomic.fetch_and_add next_id 1 + 1 in
      match s.stack with
      | [] -> ({ fid; rpath = [ name ]; fdepth = 0 }, None)
      | p :: _ -> ({ fid; rpath = name :: p.rpath; fdepth = p.fdepth + 1 }, Some p.fid)
    in
    s.stack <- frame :: s.stack;
    let gc_start = Gc.quick_stat () in
    let wall_start = Unix.gettimeofday () in
    let virt_start = Runtime.virtual_now () in
    let finish ~raised =
      let wall_s = Unix.gettimeofday () -. wall_start in
      let virt_stop = Runtime.virtual_now () in
      let gc_stop = Gc.quick_stat () in
      (* pop our frame; defensively drop any frames an escaping exception
         left behind above us *)
      let rec pop = function
        | f :: rest when f.fid = frame.fid -> rest
        | _ :: rest -> pop rest
        | [] -> []
      in
      s.stack <- pop s.stack;
      let virt_s =
        match (virt_start, virt_stop) with Some v0, Some v1 -> Some (v1 -. v0) | _ -> None
      in
      if s.recording > 0 then
        s.collected <-
          {
            id = frame.fid;
            parent_id;
            name;
            path = List.rev frame.rpath;
            depth = frame.fdepth;
            wall_start;
            wall_s;
            virt_start;
            virt_s;
            alloc_words = Float.max 0.0 (allocated_words gc_stop -. allocated_words gc_start);
            major_collections =
              max 0 (gc_stop.Gc.major_collections - gc_start.Gc.major_collections);
            raised;
            attrs;
          }
          :: s.collected
    in
    (* Fun.protect guarantees the frame is popped and the span emitted on
       every exit path — normal return, exception, even an effect-based
       unwind — so the stack can never underflow on a later finish. *)
    let ok = ref false in
    Fun.protect
      ~finally:(fun () -> finish ~raised:(not !ok))
      (fun () ->
        let result = f () in
        ok := true;
        result)
  end

let record f =
  let s = state () in
  let outer = s.collected in
  s.collected <- [];
  s.recording <- s.recording + 1;
  Runtime.arm ();
  (* on every exit path, hand this record's spans on to an enclosing one *)
  let close () =
    Runtime.disarm ();
    s.recording <- s.recording - 1;
    let mine = s.collected in
    s.collected <- (if s.recording > 0 then mine @ outer else []);
    List.rev mine
  in
  match f () with
  | result -> (result, close ())
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    ignore (close ());
    Printexc.raise_with_backtrace e bt

(* The worker half of the collector contract: a pool worker hangs its
   spans under the caller's innermost open span and collects while the
   caller records. *)
let inherit_ () =
  let s = state () in
  let top = match s.stack with f :: _ -> [ f ] | [] -> [] and recording = min 1 s.recording in
  fun () ->
    let w = state () in
    w.stack <- top;
    w.recording <- recording

let drain () =
  let s = state () in
  let spans = List.rev s.collected in
  s.collected <- [];
  spans

let absorb spans =
  let s = state () in
  if s.recording > 0 then s.collected <- List.rev_append spans s.collected

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
        ("wall_s", Json.Num c.wall_s);
        ("alloc_words", Json.Num c.alloc_words);
        ("major_collections", Json.Num (float_of_int c.major_collections));
      ]
    @ opt "virt_start" c.virt_start
    @ opt "virt_s" c.virt_s
    @ (if c.raised then [ ("raised", Json.Bool true) ] else [])
    @
    if c.attrs = [] then []
    else [ ("attrs", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) c.attrs)) ])

let ctx = "span"

let of_json j =
  let num k = Option.bind (Json.member k j) Json.to_float in
  let path = Json.get_str ctx "path" j in
  {
    id = Json.get_int ctx "id" j;
    parent_id = Option.map int_of_float (num "parent_id");
    name = Json.get_str ctx "name" j;
    path = (if path = "" then [] else String.split_on_char ';' path);
    depth = Json.get_int ctx "depth" j;
    wall_start = Json.get_num ctx "wall_start" j;
    wall_s = Json.get_num ctx "wall_s" j;
    virt_start = num "virt_start";
    virt_s = num "virt_s";
    alloc_words = Json.get_num ctx "alloc_words" j;
    major_collections = Json.get_int ctx "major_collections" j;
    raised = Json.member "raised" j = Some (Json.Bool true);
    attrs =
      (match Json.member "attrs" j with
      | None -> []
      | Some (Json.Obj kvs) ->
        List.map (fun (k, v) -> (k, Json.num ctx v)) kvs
      | Some _ -> Json.shape_error ctx "field \"attrs\" is not an object");
  }

(* Chrome trace_event format: complete ("X") events with microsecond
   timestamps relative to the earliest span, loadable in chrome://tracing
   and ui.perfetto.dev. A span runs on the thread of the [worker] of its
   innermost [pool.task] ancestor (itself included), else of worker 0, the
   calling domain. A parent opens before its children, so one pass in
   opening order settles every thread. *)
let chrome_trace spans =
  let spans = List.sort (fun a b -> compare (a.wall_start, a.id) (b.wall_start, b.id)) spans in
  let t0 = match spans with c :: _ -> c.wall_start | [] -> 0.0 in
  let tids = Hashtbl.create 64 in
  List.iter
    (fun c ->
      Hashtbl.replace tids c.id
        (match (c.name, List.assoc_opt "worker" c.attrs) with
        | "pool.task", Some w -> int_of_float w
        | _ -> Option.value ~default:0 (Option.bind c.parent_id (Hashtbl.find_opt tids))))
    spans;
  let worker c = Hashtbl.find tids c.id in
  let virt c = match c.virt_s with Some v -> [ ("virt_s", Json.Num v) ] | None -> [] in
  let entry c =
    Json.Obj
      [
        ("name", Json.Str c.name);
        ("ph", Json.Str "X");
        ("pid", Json.Num 1.0);
        ("tid", Json.Num (float_of_int (worker c)));
        ("ts", Json.Num ((c.wall_start -. t0) *. 1e6));
        ("dur", Json.Num (c.wall_s *. 1e6));
        ( "args",
          Json.Obj
            (virt c
            @ [
                ("depth", Json.Num (float_of_int c.depth));
                ("alloc_words", Json.Num c.alloc_words);
              ]
            @ List.map (fun (k, v) -> (k, Json.Num v)) c.attrs) );
      ]
  and thread w =
    Json.Obj
      [
        ("name", Json.Str "thread_name");
        ("ph", Json.Str "M");
        ("pid", Json.Num 1.0);
        ("tid", Json.Num (float_of_int w));
        ("args", Json.Obj [ ("name", Json.Str (Printf.sprintf "worker %d" w)) ]);
      ]
  in
  let workers = List.sort_uniq compare (List.map worker spans) in
  Json.Obj
    [
      ("traceEvents", Json.Arr (List.map thread workers @ List.map entry spans));
      ("displayTimeUnit", Json.Str "ms");
    ]

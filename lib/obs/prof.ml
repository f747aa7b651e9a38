type stat = {
  count : int;
  wall_s : float;
  alloc_words : float;
  major_collections : int;
}

let zero = { count = 0; wall_s = 0.0; alloc_words = 0.0; major_collections = 0 }

let add a b =
  {
    count = a.count + b.count;
    wall_s = a.wall_s +. b.wall_s;
    alloc_words = a.alloc_words +. b.alloc_words;
    major_collections = a.major_collections + b.major_collections;
  }

type entry = { path : string; stat : stat }
type profile = entry list

(* Per-domain aggregation: a folded-path -> stat table fed by a Span
   subscriber. [enabled] is a count so nested [record]s compose; the
   subscription itself arms the runtime, which is what turns span capture
   on in the first place. *)
type state = {
  mutable enabled : int;
  mutable handle : Span.handle option;
  table : (string, stat) Hashtbl.t;
}

let key =
  Domain.DLS.new_key (fun () ->
      { enabled = 0; handle = None; table = Hashtbl.create 64 })

let state () = Domain.DLS.get key

(* Frame names land in the folded flamegraph format, where ';' separates
   stack frames and ' ' separates the stack from its sample count — a
   name containing either would silently corrupt the output (and confuse
   [is_direct_child]/[leaf_name], which assume ';' only joins frames).
   Sanitize each component before joining. *)
let sanitize_frame name =
  String.map
    (function ';' -> ':' | ' ' | '\t' | '\n' | '\r' -> '_' | ch -> ch)
    name

let accumulate (c : Span.completed) =
  let s = state () in
  let path = String.concat ";" (List.map sanitize_frame c.Span.path) in
  let one =
    {
      count = 1;
      wall_s = c.Span.wall_stop -. c.Span.wall_start;
      alloc_words = c.Span.alloc_words;
      major_collections = c.Span.major_collections;
    }
  in
  let prev = Option.value ~default:zero (Hashtbl.find_opt s.table path) in
  Hashtbl.replace s.table path (add prev one)

let enable () =
  let s = state () in
  s.enabled <- s.enabled + 1;
  if s.enabled = 1 && s.handle = None then
    s.handle <- Some (Span.on_complete accumulate)

let disable () =
  let s = state () in
  if s.enabled > 0 then begin
    s.enabled <- s.enabled - 1;
    if s.enabled = 0 then begin
      (match s.handle with Some h -> Span.off h | None -> ());
      s.handle <- None
    end
  end

let profiling () = (state ()).enabled > 0

let snapshot () =
  let s = state () in
  Hashtbl.fold (fun path stat acc -> { path; stat } :: acc) s.table []
  |> List.sort (fun a b -> compare a.path b.path)

let drain () =
  let p = snapshot () in
  Hashtbl.reset (state ()).table;
  p

let absorb p =
  let s = state () in
  List.iter
    (fun e ->
      let prev = Option.value ~default:zero (Hashtbl.find_opt s.table e.path) in
      Hashtbl.replace s.table e.path (add prev e.stat))
    p

let record f =
  enable ();
  let result = Fun.protect ~finally:disable f in
  (result, drain ())

let find p path = List.find_map (fun e -> if e.path = path then Some e.stat else None) p

let leaf_name path =
  match String.rindex_opt path ';' with
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)
  | None -> path

(* A path's direct children are the paths one ';'-segment deeper. *)
let is_direct_child ~parent child =
  let lp = String.length parent and lc = String.length child in
  lc > lp + 1
  && String.sub child 0 lp = parent
  && child.[lp] = ';'
  && not (String.contains_from child (lp + 1) ';')

(* Self wall time: inclusive time minus the inclusive time of direct
   children. This is the value folded stacks want — the flamegraph tool
   re-stacks children on top of parents itself. *)
let self_wall p =
  List.map
    (fun e ->
      let children =
        List.fold_left
          (fun acc e' ->
            if is_direct_child ~parent:e.path e'.path then
              acc +. e'.stat.wall_s
            else acc)
          0.0 p
      in
      (e.path, Float.max 0.0 (e.stat.wall_s -. children)))
    p

let folded p =
  let buf = Buffer.create 256 in
  List.iter
    (fun (path, self_s) ->
      Buffer.add_string buf (Printf.sprintf "%s %.0f\n" path (self_s *. 1e6)))
    (self_wall p);
  Buffer.contents buf

let to_json p =
  let selfs = self_wall p in
  Json.Obj
    [
      ("kind", Json.Str "profile");
      ( "stages",
        Json.Arr
          (List.map2
             (fun e (_, self_s) ->
               Json.Obj
                 [
                   ("path", Json.Str e.path);
                   ("name", Json.Str (leaf_name e.path));
                   ("count", Json.Num (float_of_int e.stat.count));
                   ("wall_s", Json.Num e.stat.wall_s);
                   ("self_s", Json.Num self_s);
                   ("alloc_words", Json.Num e.stat.alloc_words);
                   ( "major_collections",
                     Json.Num (float_of_int e.stat.major_collections) );
                 ])
             p selfs) );
    ]

let render p =
  let selfs = self_wall p in
  let rows =
    List.map2
      (fun e (_, self_s) ->
        ( e.path,
          e.stat.count,
          e.stat.wall_s,
          self_s,
          e.stat.alloc_words /. 1e6,
          e.stat.major_collections ))
      p selfs
    |> List.sort (fun (_, _, a, _, _, _) (_, _, b, _, _, _) -> compare b a)
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-48s %8s %10s %10s %12s %7s\n" "stage" "calls"
       "wall ms" "self ms" "alloc Mw" "majors");
  List.iter
    (fun (path, count, wall, self_s, mwords, majors) ->
      Buffer.add_string buf
        (Printf.sprintf "%-48s %8d %10.2f %10.2f %12.3f %7d\n" path count
           (wall *. 1e3) (self_s *. 1e3) mwords majors))
    rows;
  Buffer.contents buf

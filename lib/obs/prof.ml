type stat = {
  count : int;
  wall_s : float;
  self_s : float;
  alloc_words : float;
  major_collections : int;
}

let zero = { count = 0; wall_s = 0.0; self_s = 0.0; alloc_words = 0.0; major_collections = 0 }

let add a b =
  {
    count = a.count + b.count;
    wall_s = a.wall_s +. b.wall_s;
    self_s = a.self_s +. b.self_s;
    alloc_words = a.alloc_words +. b.alloc_words;
    major_collections = a.major_collections + b.major_collections;
  }

type entry = { path : string; stat : stat }
type profile = entry list

(* Frame names land in the folded flamegraph format, where ';' separates
   stack frames and ' ' separates the stack from its sample count — a
   name containing either would silently corrupt the output (and confuse
   [leaf_name], which assumes ';' only joins frames).
   Sanitize each component before joining. *)
let sanitize_frame name =
  String.map
    (function ';' -> ':' | ' ' | '\t' | '\n' | '\r' -> '_' | ch -> ch)
    name

(* A span's self time is its wall time minus its direct children's: the
   value folded stacks want, since the flamegraph tool re-stacks children
   on top of parents itself. *)
let of_spans spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun (c : Span.completed) ->
      Option.iter
        (fun p ->
          let prev = Option.value ~default:0.0 (Hashtbl.find_opt children p) in
          Hashtbl.replace children p (prev +. c.Span.wall_s))
        c.Span.parent_id)
    spans;
  let table = Hashtbl.create 64 in
  List.iter
    (fun (c : Span.completed) ->
      let path = String.concat ";" (List.map sanitize_frame c.Span.path) in
      let inner = Option.value ~default:0.0 (Hashtbl.find_opt children c.Span.id) in
      let one =
        {
          count = 1;
          wall_s = c.Span.wall_s;
          self_s = Float.max 0.0 (c.Span.wall_s -. inner);
          alloc_words = c.Span.alloc_words;
          major_collections = c.Span.major_collections;
        }
      in
      let prev = Option.value ~default:zero (Hashtbl.find_opt table path) in
      Hashtbl.replace table path (add prev one))
    spans;
  Hashtbl.fold (fun path stat acc -> { path; stat } :: acc) table []
  |> List.sort (fun a b -> compare a.path b.path)

let find p path = List.find_map (fun e -> if e.path = path then Some e.stat else None) p

let leaf_name path =
  match String.rindex_opt path ';' with
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)
  | None -> path

let folded p =
  let buf = Buffer.create 256 in
  List.iter
    (fun e -> Buffer.add_string buf (Printf.sprintf "%s %.0f\n" e.path (e.stat.self_s *. 1e6)))
    p;
  Buffer.contents buf

let to_json p =
  Json.Obj
    [
      ("kind", Json.Str "profile");
      ( "stages",
        Json.Arr
          (List.map
             (fun e ->
               Json.Obj
                 [
                   ("path", Json.Str e.path);
                   ("name", Json.Str (leaf_name e.path));
                   ("count", Json.Num (float_of_int e.stat.count));
                   ("wall_s", Json.Num e.stat.wall_s);
                   ("self_s", Json.Num e.stat.self_s);
                   ("alloc_words", Json.Num e.stat.alloc_words);
                   ( "major_collections",
                     Json.Num (float_of_int e.stat.major_collections) );
                 ])
             p) );
    ]

let render p =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-48s %8s %10s %10s %12s %7s\n" "stage" "calls"
       "wall ms" "self ms" "alloc Mw" "majors");
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%-48s %8d %10.2f %10.2f %12.3f %7d\n" e.path e.stat.count
           (e.stat.wall_s *. 1e3) (e.stat.self_s *. 1e3) (e.stat.alloc_words /. 1e6)
           e.stat.major_collections))
    (List.stable_sort (fun a b -> compare b.stat.wall_s a.stat.wall_s) p);
  Buffer.contents buf

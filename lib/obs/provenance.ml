let schema_version = 1
let kind = "provenance"

type candidate = {
  source : string;
  label : string;
  score : float;
  confidence : float;
}

type stage = { stage : string; fields : (string * float) list }

type report = {
  version : int;
  subject : string;
  label : string;
  confidence : float;
  margin : float;
  features : (string * float array) list;
  stages : stage list;
  candidates : candidate list;
}

let make ~subject ~label ~confidence ~margin ~features ~stages ~candidates =
  { version = schema_version; subject; label; confidence; margin; features;
    stages; candidates }

(* serialization ---------------------------------------------------------- *)

let to_json r =
  Json.Obj
    (Versioned.fields ~kind ~version:r.version
    @ [
      ("subject", Json.Str r.subject);
      ("label", Json.Str r.label);
      ("confidence", Json.Num r.confidence);
      ("margin", Json.Num r.margin);
      ( "features",
        Json.Arr
          (List.map
             (fun (profile, vec) ->
               Json.Obj
                 [
                   ("profile", Json.Str profile);
                   ( "vector",
                     Json.Arr
                       (Array.to_list (Array.map (fun x -> Json.Num x) vec))
                   );
                 ])
             r.features) );
      ( "stages",
        Json.Arr
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("stage", Json.Str s.stage);
                   ( "fields",
                     Json.Obj
                       (List.map (fun (k, v) -> (k, Json.Num v)) s.fields) );
                 ])
             r.stages) );
      ( "candidates",
        Json.Arr
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("source", Json.Str c.source);
                   ("label", Json.Str c.label);
                   ("score", Json.Num c.score);
                   ("confidence", Json.Num c.confidence);
                 ])
             r.candidates) );
    ])

let ctx = "provenance"
let get_str = Json.get_str ctx
let get_num = Json.get_num ctx
let get_arr = Json.get_arr ctx

let of_json j =
  (* Version gate first: a report written by a different schema fails
     loudly rather than being misread field by field. *)
  Versioned.check ~kind ~version:schema_version j;
  let features =
    List.map
      (fun f ->
        let vec = Array.of_list (List.map (Json.num ctx) (get_arr "vector" f)) in
        (get_str "profile" f, vec))
      (get_arr "features" j)
  in
  let stages =
    List.map
      (fun s ->
        let fields =
          match Json.field ctx "fields" s with
          | Json.Obj kvs -> List.map (fun (k, v) -> (k, Json.num ctx v)) kvs
          | _ -> Json.shape_error ctx "field \"fields\" is not an object"
        in
        { stage = get_str "stage" s; fields })
      (get_arr "stages" j)
  in
  let candidates =
    List.map
      (fun c ->
        {
          source = get_str "source" c;
          label = get_str "label" c;
          score = get_num "score" c;
          confidence = get_num "confidence" c;
        })
      (get_arr "candidates" j)
  in
  {
    version = schema_version;
    subject = get_str "subject" j;
    label = get_str "label" j;
    confidence = get_num "confidence" j;
    margin = get_num "margin" j;
    features;
    stages;
    candidates;
  }

let write_jsonl oc r =
  output_string oc (Json.to_string (to_json r));
  output_char oc '\n'

let read_jsonl path =
  In_channel.with_open_bin path In_channel.input_all
  |> Versioned.lines
  |> List.map (fun line -> of_json (Json.of_string line))

(* rendering -------------------------------------------------------------- *)

let fnum x = Printf.sprintf "%.6g" x

let render r =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "verdict: %s  (confidence %s, margin %s, schema v%d)" r.label
    (fnum r.confidence) (fnum r.margin) r.version;
  line "subject: %s" r.subject;
  if r.candidates <> [] then begin
    line "candidates:";
    List.iter
      (fun c ->
        line "  %-14s %-14s score %-14s confidence %s" c.source c.label
          (fnum c.score) (fnum c.confidence))
      r.candidates
  end;
  if r.stages <> [] then begin
    line "stages:";
    List.iter
      (fun s ->
        line "  %-26s %s" s.stage
          (String.concat " "
             (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (fnum v)) s.fields)))
      r.stages
  end;
  if r.features <> [] then begin
    line "features:";
    List.iter
      (fun (profile, vec) ->
        line "  %-26s %s" profile
          (String.concat " " (Array.to_list (Array.map fnum vec))))
      r.features
  end;
  Buffer.contents buf

(* aggregation ------------------------------------------------------------ *)

type dist = { n : int; mean : float; min_v : float; max_v : float }

let dist_of = function
  | [] -> None
  | xs ->
    let n = List.length xs in
    let sum = List.fold_left ( +. ) 0.0 xs in
    Some
      {
        n;
        mean = sum /. float_of_int n;
        min_v = List.fold_left Float.min infinity xs;
        max_v = List.fold_left Float.max neg_infinity xs;
      }

let by_label reports =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt tbl r.label) in
      Hashtbl.replace tbl r.label (r :: prev))
    reports;
  Hashtbl.fold (fun label rs acc -> (label, List.rev rs) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let grouped_dist proj reports =
  by_label reports
  |> List.filter_map (fun (label, rs) ->
         Option.map (fun d -> (label, d)) (dist_of (List.map proj rs)))

let confidence_dists reports = grouped_dist (fun r -> r.confidence) reports
let margin_dists reports = grouped_dist (fun r -> r.margin) reports

let render_dists ~header dists =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%-14s %6s %10s %10s %10s   (%s)\n" "label" "n" "mean"
       "min" "max" header);
  List.iter
    (fun (label, d) ->
      Buffer.add_string buf
        (Printf.sprintf "%-14s %6d %10s %10s %10s\n" label d.n (fnum d.mean)
           (fnum d.min_v) (fnum d.max_v)))
    dists;
  Buffer.contents buf

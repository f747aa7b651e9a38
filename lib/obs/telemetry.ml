let snap_to_json (s : Metrics.snap) =
  let typ, value =
    match s with
    | Metrics.Counter_snap { value; _ } -> ("counter", float_of_int value)
    | Metrics.Gauge_snap { value; _ } -> ("gauge", value)
  in
  Json.Obj
    [ ("kind", Json.Str "metric"); ("type", Json.Str typ);
      ("name", Json.Str (Metrics.snap_name s)); ("value", Json.Num value) ]

let snap_of_json j =
  let str k = Option.bind (Json.member k j) Json.to_str in
  match (str "type", str "name", Option.bind (Json.member "value" j) Json.to_float) with
  | Some "counter", Some name, Some v ->
    Some (Metrics.Counter_snap { name; value = int_of_float v })
  | Some "gauge", Some name, Some value -> Some (Metrics.Gauge_snap { name; value })
  | _ -> None

let write_jsonl path spans =
  Versioned.write_file path (fun oc ->
      let line j =
        output_string oc (Json.to_string j);
        output_char oc '\n'
      in
      List.iter (fun c -> line (Span.to_json c)) spans;
      List.iter (fun s -> line (snap_to_json s)) (Metrics.snapshot ());
      List.iter (fun h -> line (Histogram.to_json h)) (Histogram.all ()))

let write_chrome path spans =
  Versioned.write_file path (fun oc ->
      output_string oc (Json.to_string (Span.chrome_trace spans));
      output_char oc '\n')

let record ?jsonl ?chrome f =
  if jsonl = None && chrome = None then f ()
  else begin
    let outcome, spans =
      Span.record (fun () ->
          match f () with r -> Ok r | exception e -> Error (e, Printexc.get_raw_backtrace ()))
    in
    let write () =
      Option.iter (fun path -> write_jsonl path spans) jsonl;
      Option.iter (fun path -> write_chrome path spans) chrome
    in
    match outcome with
    | Ok r ->
      write ();
      r
    | Error (e, bt) ->
      (try write () with Sys_error _ -> ());
      Printexc.raise_with_backtrace e bt
  end

(* The span lines of a telemetry file; counter and histogram lines are
   skipped, any other line is malformed. *)
let read_spans path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  List.concat_map
    (fun raw ->
      let j = Json.of_string raw in
      match Option.bind (Json.member "kind" j) Json.to_str with
      | Some "span" -> [ Span.of_json j ]
      | Some ("metric" | "histogram") -> []
      | _ -> Json.shape_error "telemetry" "a line is not a span, metric or histogram")
    (Versioned.lines text)

type summary = {
  spans : (string * int * float) list;
  metrics : Metrics.snap list;
  histograms : Histogram.t list;
  malformed : int;
}

let read_summary path =
  let span_tally : (string, int * float) Hashtbl.t = Hashtbl.create 16 in
  let metrics = ref [] and histograms = ref [] and malformed = ref 0 in
  let tally_span j =
    let c = Span.of_json j in
    let count, total =
      Option.value ~default:(0, 0.0) (Hashtbl.find_opt span_tally c.Span.name)
    in
    Hashtbl.replace span_tally c.Span.name (count + 1, total +. c.Span.wall_s)
  in
  let text = In_channel.with_open_bin path In_channel.input_all in
  List.iter
    (fun raw ->
      match Json.of_string raw with
      | exception Json.Parse_error _ -> incr malformed
      | j -> (
        match Option.bind (Json.member "kind" j) Json.to_str with
        | Some "span" -> (
          try tally_span j with Json.Parse_error _ -> incr malformed)
        | Some "metric" -> (
          match snap_of_json j with
          | Some s -> metrics := s :: !metrics
          | None -> incr malformed)
        | Some "histogram" -> (
          match Histogram.of_json j with
          | h -> histograms := h :: !histograms
          | exception Json.Parse_error _ -> incr malformed)
        | _ -> incr malformed))
    (Versioned.lines text);
  {
    spans =
      Hashtbl.fold (fun k (c, s) acc -> (k, c, s) :: acc) span_tally []
      |> List.sort (fun (_, _, a) (_, _, b) -> compare b a);
    metrics = List.sort (fun a b -> compare (Metrics.snap_name a) (Metrics.snap_name b)) !metrics;
    histograms =
      List.sort (fun a b -> compare (Histogram.name a) (Histogram.name b)) !histograms;
    malformed = !malformed;
  }

let render_summary s =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "spans\n  %-30s %10s %12s\n" "name" "count" "total(s)");
  List.iter
    (fun (name, count, tot) ->
      Buffer.add_string buf (Printf.sprintf "  %-30s %10d %12.4g\n" name count tot))
    s.spans;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Metrics.render s.metrics);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Histogram.render s.histograms);
  if s.malformed > 0 then
    Buffer.add_string buf (Printf.sprintf "(%d malformed lines skipped)\n" s.malformed);
  Buffer.contents buf

let snap_to_json (s : Metrics.snap) =
  let typ, value =
    match s with
    | Metrics.Counter_snap { value; _ } -> ("counter", float_of_int value)
    | Metrics.Gauge_snap { value; _ } -> ("gauge", value)
  in
  Json.Obj
    [ ("kind", Json.Str "metric"); ("type", Json.Str typ);
      ("name", Json.Str (Metrics.snap_name s)); ("value", Json.Num value) ]

let ctx = "telemetry"

let snap_of_json j =
  let name = Json.get_str ctx "name" j and value = Json.get_num ctx "value" j in
  match Json.get_str ctx "type" j with
  | "counter" when Float.is_integer value ->
    Metrics.Counter_snap { name; value = int_of_float value }
  | "gauge" -> Metrics.Gauge_snap { name; value }
  | _ -> Json.shape_error ctx "a metric line is neither a counter nor a gauge"

let write_jsonl path spans =
  Versioned.write_file path (fun oc ->
      let line j =
        output_string oc (Json.to_string j);
        output_char oc '\n'
      in
      List.iter (fun c -> line (Span.to_json c)) spans;
      List.iter (fun s -> line (snap_to_json s)) (Metrics.snapshot ()))

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

type recording = { spans : Span.completed list; metrics : Metrics.snap list }

let read path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let spans, metrics =
    List.fold_left
      (fun (spans, metrics) raw ->
        let j = Json.of_string raw in
        match Option.bind (Json.member "kind" j) Json.to_str with
        | Some "span" -> (Span.of_json j :: spans, metrics)
        | Some "metric" -> (spans, snap_of_json j :: metrics)
        | _ -> Json.shape_error ctx "a line is neither a span nor a metric")
      ([], []) (Versioned.lines text)
  in
  { spans = List.rev spans; metrics = List.rev metrics }

(* One fold over the spans: per span name, in first-completion order, the
   histograms of its wall durations and of its non-negative virtual ones. *)
let durations spans =
  let by_name = Hashtbl.create 16 in
  List.filter_map
    (fun (c : Span.completed) ->
      let fresh = not (Hashtbl.mem by_name c.name) in
      if fresh then
        Hashtbl.add by_name c.name
          ( Histogram.create ~name:("span." ^ c.name) (),
            Histogram.create ~name:("span.virt." ^ c.name) () );
      let wall, virt = Hashtbl.find by_name c.name in
      Histogram.observe wall c.wall_s;
      (match c.virt_s with Some v when v >= 0.0 -> Histogram.observe virt v | _ -> ());
      if fresh then Some (c.name, wall, virt) else None)
    spans

let span_histograms spans =
  List.concat_map
    (fun (_, wall, virt) -> if Histogram.count virt = 0 then [ wall ] else [ wall; virt ])
    (durations spans)
  |> List.sort (fun a b -> compare (Histogram.name a) (Histogram.name b))

let render_summary { spans; metrics } =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "spans\n  %-30s %10s %12s\n" "name" "count" "total(s)");
  List.iter
    (fun (name, wall, _) ->
      Buffer.add_string buf
        (Printf.sprintf "  %-30s %10d %12.4g\n" name (Histogram.count wall) (Histogram.sum wall)))
    (List.sort
       (fun (_, a, _) (_, b, _) -> compare (Histogram.sum b) (Histogram.sum a))
       (durations spans));
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Metrics.render
       (List.sort (fun a b -> compare (Metrics.snap_name a) (Metrics.snap_name b)) metrics));
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Histogram.render (span_histograms spans));
  Buffer.contents buf

(* Multi-seed campaign bookkeeping: seed-spec resolution, the per-seed
   JSONL store, statistical aggregation and pass gates. Generic on
   purpose — cells are (name, number) data and outcomes are
   (subject, expected, got) strings, so the measurement layers above fill
   the schema in without this module depending on them.

   Everything here must be deterministic: summaries are diffed byte for
   byte across worker counts by tools/check.sh, so cells are sorted by
   name, floats go through Json.number_to_string or a fixed %.6g, and no
   wall-clock data is consulted. *)

let schema_version = 1

(* ---- seed specifications ---- *)

let rec find_dup seen = function
  | [] -> None
  | s :: rest -> if List.mem s seen then Some s else find_dup (s :: seen) rest

let resolve_seeds ?count ?seed_list ~base () =
  match (count, seed_list) with
  | Some _, Some _ ->
    Error "--seeds and --seed-list are alternatives; give one, not both"
  | None, Some [] -> Error "--seed-list is empty; give at least one seed"
  | None, Some seeds -> (
    match find_dup [] seeds with
    | Some s -> Error (Printf.sprintf "--seed-list has overlapping seeds: %d appears twice" s)
    | None -> Ok seeds)
  | Some n, None ->
    if n <= 0 then
      Error (Printf.sprintf "--seeds %d selects an empty campaign; need at least 1 seed" n)
    else Ok (List.init n (fun i -> base + i))
  | None, None -> Ok [ base ]

(* ---- store ---- *)

type outcome = { subject : string; expected : string; got : string }

type seed_run = {
  seed : int;
  metrics : (string * float) list;
  outcomes : outcome list;
}

let ctx = "campaign"
let jint j = int_of_float (Json.num ctx j)
let header kind = Versioned.fields ~kind ~version:schema_version
let check kind = Versioned.check ~kind ~version:schema_version

let seed_run_to_json r =
  Json.Obj
    (header "campaign_seed"
    @ [
      ("seed", Json.Num (float_of_int r.seed));
      ( "metrics",
        Json.Arr
          (List.map (fun (k, v) -> Json.Arr [ Json.Str k; Json.Num v ]) r.metrics) );
      ( "outcomes",
        Json.Arr
          (List.map
             (fun o -> Json.Arr [ Json.Str o.subject; Json.Str o.expected; Json.Str o.got ])
             r.outcomes) );
    ])

let seed_run_of_json j =
  check "campaign_seed" j;
  let str = Json.str ctx in
  let metric = function
    | Json.Arr [ k; v ] -> (str k, Json.num ctx v)
    | _ -> Json.shape_error ctx "metric is not a [name, value] pair"
  in
  let outcome = function
    | Json.Arr [ s; e; g ] -> { subject = str s; expected = str e; got = str g }
    | _ -> Json.shape_error ctx "outcome is not a [subject, expected, got] triple"
  in
  {
    seed = Json.get_int ctx "seed" j;
    metrics = List.map metric (Json.get_arr ctx "metrics" j);
    outcomes = List.map outcome (Json.get_arr ctx "outcomes" j);
  }

let store_header ~experiment ~runs =
  Json.Obj
    (header "campaign"
    @ [ ("experiment", Json.Str experiment); ("runs", Json.Num (float_of_int runs)) ])

let write_header oc ~experiment ~runs =
  output_string oc (Json.to_string (store_header ~experiment ~runs));
  output_char oc '\n'

let write_seed_line oc r =
  output_string oc (Json.to_string (seed_run_to_json r));
  output_char oc '\n'

let write_store oc ~experiment runs =
  write_header oc ~experiment ~runs:(List.length runs);
  List.iter (write_seed_line oc) runs

let read_store path =
  match Versioned.lines (In_channel.with_open_bin path In_channel.input_all) with
  | [] -> Json.shape_error ctx (path ^ " is empty")
  | header :: rest ->
    let hj = Json.of_string header in
    check "campaign" hj;
    let experiment = Json.get_str ctx "experiment" hj in
    (* The store is streamed line by line, so a run killed mid-write
       leaves a truncated final record. That prefix is still a valid
       campaign: drop the torn tail with a warning and aggregate the
       readable runs. Only the final line gets this grace — a malformed
       line in the middle means real corruption and still raises, and a
       version skew anywhere still raises Version_mismatch. *)
    let rec parse acc = function
      | [] -> List.rev acc
      | [ last ] -> (
        match seed_run_of_json (Json.of_string last) with
        | run -> List.rev (run :: acc)
        | exception Json.Parse_error _ ->
          Printf.eprintf
            "campaign: %s: final record is truncated (killed mid-write?); aggregating the \
             %d readable run(s)\n\
             %!"
            path (List.length acc);
          List.rev acc)
      | line :: rest -> parse (seed_run_of_json (Json.of_string line) :: acc) rest
    in
    (experiment, parse [] rest)

(* ---- aggregation ---- *)

type stat = {
  n : int;
  mean : float;
  stddev : float;
  ci95 : float;
  median : float;
  min_v : float;
  max_v : float;
}

type outlier = { o_seed : int; value : float; z : float; misses : string list }

type summary = {
  version : int;
  experiment : string;
  seeds : int list;
  cells : (string * stat) list;
  confusion : (string * (string * int) list) list;
  outliers : outlier list;
}

let stat_of values =
  (* the NaN/inf guard: a broken metric must not poison the whole cell,
     so non-finite samples are dropped before any statistic *)
  let finite = List.filter Float.is_finite values in
  match finite with
  | [] -> None
  | _ ->
    let xs = Array.of_list finite in
    let n = Array.length xs in
    let mean = Sigproc.Series.mean xs in
    let var = Sigproc.Series.variance xs in
    let stddev = sqrt var in
    let ci95 =
      if n < 2 then 0.0
      else
        (* normal approximation over the unbiased sample variance *)
        let sample_var = var *. float_of_int n /. float_of_int (n - 1) in
        1.96 *. sqrt sample_var /. sqrt (float_of_int n)
    in
    Some
      {
        n;
        mean;
        stddev;
        ci95;
        median = Sigproc.Series.quantile 0.5 xs;
        min_v = Sigproc.Series.minimum xs;
        max_v = Sigproc.Series.maximum xs;
      }

let miss_label o =
  if o.subject = o.expected then Printf.sprintf "%s->%s" o.subject o.got
  else Printf.sprintf "%s:%s->%s" o.subject o.expected o.got

let outlier_threshold = 1.5
let outlier_limit = 5

let aggregate ?(outlier_metric = "accuracy") ~experiment runs =
  (* cells: union of every metric name, values in campaign (run) order *)
  let names =
    List.sort_uniq compare (List.concat_map (fun r -> List.map fst r.metrics) runs)
  in
  let cells =
    List.filter_map
      (fun name ->
        let values = List.filter_map (fun r -> List.assoc_opt name r.metrics) runs in
        Option.map (fun s -> (name, s)) (stat_of values))
      names
  in
  (* confusion: expected -> (got, count), count-descending then label *)
  let tally = Hashtbl.create 32 in
  List.iter
    (fun r ->
      List.iter
        (fun o ->
          let key = (o.expected, o.got) in
          Hashtbl.replace tally key
            (1 + Option.value ~default:0 (Hashtbl.find_opt tally key)))
        r.outcomes)
    runs;
  let expected_labels =
    List.sort_uniq compare
      (List.concat_map (fun r -> List.map (fun o -> o.expected) r.outcomes) runs)
  in
  let confusion =
    List.map
      (fun expected ->
        let row =
          Hashtbl.fold
            (fun (e, g) count acc -> if e = expected then (g, count) :: acc else acc)
            tally []
          |> List.sort (fun (ga, ca) (gb, cb) ->
                 match compare cb ca with 0 -> compare ga gb | c -> c)
        in
        (expected, row))
      expected_labels
  in
  (* outliers: seeds whose outlier_metric sits far from the campaign mean *)
  let outliers =
    match List.assoc_opt outlier_metric cells with
    | None -> []
    | Some s when s.stddev <= 0.0 -> []
    | Some s ->
      List.filter_map
        (fun r ->
          match List.assoc_opt outlier_metric r.metrics with
          | Some v when Float.is_finite v ->
            let z = Float.abs (v -. s.mean) /. s.stddev in
            if z < outlier_threshold then None
            else
              Some
                {
                  o_seed = r.seed;
                  value = v;
                  z;
                  misses =
                    List.filter_map
                      (fun o -> if o.expected <> o.got then Some (miss_label o) else None)
                      r.outcomes;
                }
          | _ -> None)
        runs
      |> List.sort (fun a b ->
             match compare b.z a.z with 0 -> compare a.o_seed b.o_seed | c -> c)
      |> List.filteri (fun i _ -> i < outlier_limit)
  in
  {
    version = schema_version;
    experiment;
    seeds = List.map (fun r -> r.seed) runs;
    cells;
    confusion;
    outliers;
  }

(* ---- pass gates ---- *)

type gate_stat = Mean | Ci_width | Min_value | Max_value
type gate_op = Floor | Ceiling

type gate = {
  gate_name : string;
  metric : string;
  gstat : gate_stat;
  op : gate_op;
  bound : float;
}

type gate_status = Pass | Fail | Skip
type gate_result = { gate : gate; value : float option; status : gate_status }

let gate_stat_label = function
  | Mean -> "mean"
  | Ci_width -> "ci_width"
  | Min_value -> "min"
  | Max_value -> "max"

let gate_describe g =
  Printf.sprintf "%s(%s) %s %.6g" (gate_stat_label g.gstat) g.metric
    (match g.op with Floor -> ">=" | Ceiling -> "<=")
    g.bound

let evaluate ~gates ?(extra = []) summary =
  List.map
    (fun g ->
      let value =
        match List.assoc_opt g.metric summary.cells with
        | Some s -> (
          match g.gstat with
          | Mean -> Some s.mean
          | Ci_width -> Some (2.0 *. s.ci95)
          | Min_value -> Some s.min_v
          | Max_value -> Some s.max_v)
        | None -> List.assoc_opt g.metric extra
      in
      let status =
        match value with
        | None -> Skip
        | Some v when not (Float.is_finite v) -> Fail
        | Some v -> (
          match g.op with
          | Floor -> if v >= g.bound then Pass else Fail
          | Ceiling -> if v <= g.bound then Pass else Fail)
      in
      { gate = g; value; status })
    gates

let gates_pass results = List.for_all (fun r -> r.status <> Fail) results

(* ---- serialization ---- *)

let stat_to_json (name, s) =
  Json.Obj
    [
      ("metric", Json.Str name);
      ("n", Json.Num (float_of_int s.n));
      ("mean", Json.Num s.mean);
      ("stddev", Json.Num s.stddev);
      ("ci95", Json.Num s.ci95);
      ("median", Json.Num s.median);
      ("min", Json.Num s.min_v);
      ("max", Json.Num s.max_v);
    ]

let stat_of_json j =
  let num key = Json.get_num ctx key j in
  ( Json.get_str ctx "metric" j,
    {
      n = Json.get_int ctx "n" j;
      mean = num "mean";
      stddev = num "stddev";
      ci95 = num "ci95";
      median = num "median";
      min_v = num "min";
      max_v = num "max";
    } )

let gate_status_label = function Pass -> "pass" | Fail -> "fail" | Skip -> "skip"

let gate_result_to_json r =
  Json.Obj
    [
      ("name", Json.Str r.gate.gate_name);
      ("metric", Json.Str r.gate.metric);
      ("stat", Json.Str (gate_stat_label r.gate.gstat));
      ("op", Json.Str (match r.gate.op with Floor -> "floor" | Ceiling -> "ceiling"));
      ("bound", Json.Num r.gate.bound);
      ("value", match r.value with Some v -> Json.Num v | None -> Json.Null);
      ("status", Json.Str (gate_status_label r.status));
    ]

let summary_to_json ?gates summary =
  Json.Obj
    (Versioned.fields ~kind:"campaign_summary" ~version:summary.version
    @ [
       ("experiment", Json.Str summary.experiment);
       ("seeds", Json.Arr (List.map (fun s -> Json.Num (float_of_int s)) summary.seeds));
       ("cells", Json.Arr (List.map stat_to_json summary.cells));
       ( "confusion",
         Json.Arr
           (List.map
              (fun (expected, row) ->
                Json.Obj
                  [
                    ("expected", Json.Str expected);
                    ( "got",
                      Json.Arr
                        (List.map
                           (fun (g, c) ->
                             Json.Arr [ Json.Str g; Json.Num (float_of_int c) ])
                           row) );
                  ])
              summary.confusion) );
       ( "outliers",
         Json.Arr
           (List.map
              (fun o ->
                Json.Obj
                  [
                    ("seed", Json.Num (float_of_int o.o_seed));
                    ("value", Json.Num o.value);
                    ("z", Json.Num o.z);
                    ("misses", Json.Arr (List.map (fun m -> Json.Str m) o.misses));
                  ])
              summary.outliers) );
     ]
    @ match gates with
      | None -> []
      | Some results -> [ ("gates", Json.Arr (List.map gate_result_to_json results)) ])

let summary_of_json j =
  check "campaign_summary" j;
  {
    version = schema_version;
    experiment = Json.get_str ctx "experiment" j;
    seeds = List.map jint (Json.get_arr ctx "seeds" j);
    cells = List.map stat_of_json (Json.get_arr ctx "cells" j);
    confusion =
      List.map
        (fun row ->
          ( Json.get_str ctx "expected" row,
            List.map
              (function
                | Json.Arr [ g; c ] -> (Json.str ctx g, jint c)
                | _ -> Json.shape_error ctx "confusion entry is not a [got, count] pair")
              (Json.get_arr ctx "got" row) ))
        (Json.get_arr ctx "confusion" j);
    outliers =
      List.map
        (fun o ->
          {
            o_seed = Json.get_int ctx "seed" o;
            value = Json.get_num ctx "value" o;
            z = Json.get_num ctx "z" o;
            misses = List.map (Json.str ctx) (Json.get_arr ctx "misses" o);
          })
        (Json.get_arr ctx "outliers" j);
  }

(* ---- rendering ---- *)

let fnum x = Printf.sprintf "%.6g" x

let render ?gates summary =
  let buf = Buffer.create 2048 in
  let seeds = summary.seeds in
  Buffer.add_string buf
    (Printf.sprintf "campaign summary - experiment %s, %d seed%s%s\n" summary.experiment
       (List.length seeds)
       (if List.length seeds = 1 then "" else "s")
       (match seeds with
       | [] -> ""
       | _ ->
         Printf.sprintf " (%s)" (String.concat ", " (List.map string_of_int seeds))));
  if summary.cells = [] then Buffer.add_string buf "(no cells: empty campaign)\n"
  else begin
    Buffer.add_string buf
      (Printf.sprintf "%-28s %4s %9s %9s %9s %9s %9s %9s\n" "cell" "n" "mean" "stddev"
         "ci95" "median" "min" "max");
    List.iter
      (fun (name, s) ->
        Buffer.add_string buf
          (Printf.sprintf "%-28s %4d %9s %9s %9s %9s %9s %9s\n" name s.n (fnum s.mean)
             (fnum s.stddev) (fnum s.ci95) (fnum s.median) (fnum s.min_v) (fnum s.max_v)))
      summary.cells
  end;
  if summary.confusion <> [] then begin
    Buffer.add_string buf "\nconfusion (expected -> got):\n";
    List.iter
      (fun (expected, row) ->
        Buffer.add_string buf
          (Printf.sprintf "  %-14s %s\n" expected
             (String.concat " "
                (List.map (fun (g, c) -> Printf.sprintf "%s:%d" g c) row))))
      summary.confusion
  end;
  (match summary.outliers with
  | [] -> ()
  | outliers ->
    Buffer.add_string buf "\nseed outliers:\n";
    List.iter
      (fun o ->
        Buffer.add_string buf
          (Printf.sprintf "  seed %-10d value %-9s z %-6s %s\n" o.o_seed (fnum o.value)
             (fnum o.z)
             (match o.misses with
             | [] -> ""
             | ms -> "misses: " ^ String.concat " " ms)))
      outliers);
  (match gates with
  | None -> ()
  | Some results ->
    Buffer.add_string buf "\ngates:\n";
    List.iter
      (fun r ->
        Buffer.add_string buf
          (Printf.sprintf "  [%s] %-26s %-34s %s\n"
             (String.uppercase_ascii (gate_status_label r.status))
             r.gate.gate_name (gate_describe r.gate)
             (match r.value with
             | Some v -> "value " ^ fnum v
             | None -> "(metric absent)")))
      results);
  Buffer.contents buf

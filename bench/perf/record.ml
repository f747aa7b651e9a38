(* Named, unit-tagged metrics and the JSON files the benchmark reads and
   writes: one record per run, the driver's result line, and the metric
   catalogue in BENCHMARK.json. *)

module J = Obs.Json

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let metrics_json ms =
  J.Obj
    (List.map
       (fun m -> (m.name, J.Obj [ ("value", J.Num m.value); ("unit", J.Str m.unit_) ]))
       ms)

(* Gate: every metric the catalogue names is present, finite and carries
   the catalogue's unit. Returns the failures, empty when all hold. *)
let missing ~(expected : (string * string) list) ms =
  List.filter_map
    (fun (name, unit_) ->
      match List.find_opt (fun m -> m.name = name) ms with
      | None -> Some (name ^ ": missing")
      | Some m when not (Float.is_finite m.value) -> Some (name ^ ": not finite")
      | Some m when m.unit_ <> unit_ ->
        Some (Printf.sprintf "%s: unit %s, expected %s" name m.unit_ unit_)
      | Some _ -> None)
    expected

let read_json path = J.of_string (In_channel.with_open_bin path In_channel.input_all)

let field k j = Option.bind (J.member k j)

let str k j = Option.value ~default:"" (field k j J.to_str)

let num k j = Option.value ~default:nan (field k j J.to_float)

(* BENCHMARK.json: (name, unit, better, bound) per metric, the
   end-to-end list first. Per-layer metrics have no bound. *)
type spec = { m_name : string; m_unit : string; higher : bool; bound : float option }

let catalogue path =
  let j = read_json path in
  let section key =
    List.map
      (fun m ->
        {
          m_name = str "name" m;
          m_unit = str "unit" m;
          higher = str "better" m = "higher";
          bound = field "bound" m J.to_float;
        })
      (Option.value ~default:[] (field key j J.to_list))
  in
  (section "end_to_end", section "per_layer")

(* A run record as [compare] reads it back. *)
type run = { workload : string; seed : int; traced : bool; values : (string * float) list }

let read_run path =
  let j = read_json path in
  let values =
    match J.member "metrics" j with
    | Some (J.Obj kvs) -> List.map (fun (k, v) -> (k, num "value" v)) kvs
    | _ -> []
  in
  {
    workload = str "workload" j;
    seed = int_of_float (num "seed" j);
    traced = num "trace" j = 1.0;
    values;
  }

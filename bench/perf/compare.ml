(* [compare A B]: two sets of run records, side by side per workload and
   metric, judged by the rule of the choosing-metrics guide (section 8):
   a metric whose spread within either set exceeds its bound is
   unresolved, unless every run of B reads better than every run of A. *)

let load dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.map (fun f -> Record.read_run (Filename.concat dir f))

(* End-to-end metrics come from untraced runs, per-layer metrics from
   traced ones. *)
let values runs ~workload ~traced name =
  List.filter_map
    (fun (r : Record.run) ->
      if r.Record.workload = workload && r.Record.traced = traced then
        Option.map (fun v -> (r.Record.seed, v)) (List.assoc_opt name r.Record.values)
      else None)
    runs

let status (spec : Record.spec) va vb =
  match spec.Record.bound with
  | None -> "-"
  | Some _ when va = [] || vb = [] -> "missing"
  | Some bound ->
    let better y x = if spec.Record.higher then y > x else y < x in
    let ma = Stats.median va and mb = Stats.median vb in
    let worsening = (if spec.Record.higher then ma -. mb else mb -. ma) /. Float.abs ma in
    if List.for_all (fun y -> List.for_all (better y) va) vb then "better"
    else if Stats.spread va > bound || Stats.spread vb > bound then "unresolved"
    else if worsening > bound then "REGRESSION"
    else "within bound"

(* Do runs of the same seed read the same in both sets? *)
let same_seed sa sb =
  match List.filter (fun (seed, _) -> List.mem_assoc seed sb) sa with
  | [] -> "-"
  | common -> if List.for_all (fun (seed, v) -> List.assoc seed sb = v) common then "yes" else "no"

let cell vs =
  if vs = [] then "-"
  else
    let q1, q3 = Stats.quartiles vs in
    Printf.sprintf "%.5g [%.5g, %.5g]" (Stats.median vs) q1 q3

let run ~catalogue a b =
  let e2e, layers = Record.catalogue catalogue in
  let ra = load a and rb = load b in
  let workloads =
    List.sort_uniq compare (List.map (fun (r : Record.run) -> r.Record.workload) (ra @ rb))
  in
  Printf.printf "%-14s %-26s %-11s %-34s %-34s %-6s %-9s %s\n" "workload" "metric" "unit"
    ("A " ^ a) ("B " ^ b) "bound" "same-seed" "status";
  let statuses =
    List.concat_map
      (fun workload ->
        List.filter_map
          (fun (spec : Record.spec) ->
            let traced = spec.Record.bound = None in
            let sa = values ra ~workload ~traced spec.Record.m_name in
            let sb = values rb ~workload ~traced spec.Record.m_name in
            if sa = [] && sb = [] then None
            else begin
              let va = List.map snd sa and vb = List.map snd sb in
              let st = status spec va vb in
              Printf.printf "%-14s %-26s %-11s %-34s %-34s %-6s %-9s %s\n" workload
                spec.Record.m_name spec.Record.m_unit (cell va) (cell vb)
                (match spec.Record.bound with Some b -> Printf.sprintf "%g" b | None -> "-")
                (same_seed sa sb) st;
              Some st
            end)
          (e2e @ layers))
      workloads
  in
  let count s = List.length (List.filter (( = ) s) statuses) in
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("claim", Obs.Json.Null);
            ("regressions", Obs.Json.Num (float_of_int (count "REGRESSION")));
            ("unresolved", Obs.Json.Num (float_of_int (count "unresolved")));
          ]));
  if count "REGRESSION" > 0 then 1 else 0

(* Nebby's benchmark, driven from outside the library.

     perf --workload W [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
     perf compare DIR_A DIR_B
     perf smoke BENCHMARK.json

   A run prints its metrics by name and unit, writes one JSON record to
   DIR (default bench/perf/_results), and ends its standard output with
   one JSON line: {"correct", "attempted", "failed", "metrics"} holding
   the end-to-end metrics of BENCHMARK.json, or with --trace 1 its
   per-layer metrics. It exits 1 when a correctness gate fails. Run it
   from the repository root, where BENCHMARK.json is. *)

module J = Obs.Json

let default_seed = 20230601
let catalogue_path = "BENCHMARK.json"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let with_work_dir out f =
  let work = Filename.concat out (Printf.sprintf "work-%d" (Unix.getpid ())) in
  rm_rf work;
  mkdir_p work;
  Fun.protect ~finally:(fun () -> rm_rf work) (fun () -> f work)

let spec_units = List.map (fun (s : Record.spec) -> (s.Record.m_name, s.Record.m_unit))

let problems ~expected (r : Workload.result) =
  Record.missing ~expected (r.Workload.e2e @ r.Workload.layers)
  @ List.filter_map
      (fun (name, ok) -> if ok then None else Some ("gate failed: " ^ name))
      r.Workload.checks

let print_metrics title ms =
  Printf.printf "%s\n" title;
  List.iter
    (fun (m : Record.metric) ->
      Printf.printf "  %-28s %16.6f  %s\n" m.Record.name m.Record.value m.Record.unit_)
    ms

(* Where the replay's time went, largest share first; layers the
   workload does not use are left out. *)
let print_shares layers =
  let shares =
    List.filter
      (fun (m : Record.metric) ->
        Filename.check_suffix m.Record.name ".share" && m.Record.value > 0.0)
      layers
    |> List.sort (fun (a : Record.metric) b -> Float.compare b.Record.value a.Record.value)
  in
  Printf.printf "replay share of wall time\n";
  List.iter
    (fun (m : Record.metric) ->
      Printf.printf "  %-18s %6.1f%%\n"
        (Filename.chop_suffix m.Record.name ".share")
        (100.0 *. m.Record.value))
    shares

let run_one ~workload ~seed ~seconds ~trace ~out =
  let w = List.assoc workload Workload.names in
  let e2e_spec, layer_spec = Record.catalogue catalogue_path in
  mkdir_p out;
  let r =
    with_work_dir out (fun work -> Workload.run Workload.full w ~seed ~seconds ~trace ~work)
  in
  let expected = spec_units (if trace then e2e_spec @ layer_spec else e2e_spec) in
  let problems = problems ~expected r in
  let correct = problems = [] in
  let record =
    J.Obj
      [
        ("schema", J.Str "nebby-perf/1");
        ("workload", J.Str workload);
        ("seed", J.Num (float_of_int seed));
        ("population_seed", J.Num (float_of_int r.Workload.population_seed));
        ("trace", J.Num (if trace then 1.0 else 0.0));
        ("seconds", J.Num seconds);
        ("cores", J.Num (float_of_int (Domain.recommended_domain_count ())));
        ("jobs", J.Num (float_of_int r.Workload.jobs));
        ("rounds", J.Num (float_of_int r.Workload.rounds_run));
        ("work", J.Obj (List.map (fun (k, n) -> (k, J.Num (float_of_int n))) r.Workload.work));
        ("claim", J.Null);
        ("correct", J.Bool correct);
        ("attempted", J.Num (float_of_int r.Workload.attempted));
        ("failed", J.Num (float_of_int r.Workload.failed));
        ("checks", J.Obj (List.map (fun (n, ok) -> (n, J.Bool ok)) r.Workload.checks));
        ("metrics", Record.metrics_json (r.Workload.e2e @ r.Workload.layers));
      ]
  in
  let path =
    Filename.concat out
      (Printf.sprintf "%s-seed%d-trace%d.json" workload seed (Bool.to_int trace))
  in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (J.to_string record ^ "\n"));
  Printf.printf "%s seed %d: %d round(s) of %s, jobs %d of %d cores, record %s\n" workload seed
    r.Workload.rounds_run
    (String.concat " " (List.map (fun (k, n) -> Printf.sprintf "%d %s" n k) r.Workload.work))
    r.Workload.jobs (Domain.recommended_domain_count ()) path;
  List.iter
    (fun (n, ok) -> Printf.printf "  [%s] %s\n" (if ok then "ok" else "FAIL") n)
    r.Workload.checks;
  print_metrics "end-to-end" r.Workload.e2e;
  if trace then begin
    print_metrics "per-layer (traced replay)" r.Workload.layers;
    print_shares r.Workload.layers
  end;
  List.iter (Printf.eprintf "perf: %s\n") problems;
  let shown = if trace then layer_spec else e2e_spec in
  let emitted = r.Workload.e2e @ r.Workload.layers in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Num (float_of_int r.Workload.attempted));
            ("failed", J.Num (float_of_int r.Workload.failed));
            ( "metrics",
              Record.metrics_json
                (List.filter
                   (fun (m : Record.metric) ->
                     List.exists (fun (s : Record.spec) -> s.Record.m_name = m.Record.name) shown)
                   emitted) );
          ]));
  if correct then 0 else 1

(* Every workload at toy size with the replay on: every catalogued
   metric is emitted, finite and unit-tagged, and every gate holds. *)
let smoke catalogue =
  let e2e_spec, layer_spec = Record.catalogue catalogue in
  let expected = spec_units (e2e_spec @ layer_spec) in
  let failures =
    List.concat_map
      (fun (name, w) ->
        let r =
          with_work_dir Filename.current_dir_name (fun work ->
              Workload.run Workload.toy w ~seed:default_seed ~seconds:0.0 ~trace:true ~work)
        in
        let ps = problems ~expected r in
        Printf.printf "smoke %s: %s\n" name (if ps = [] then "ok" else "FAILED");
        List.map (fun p -> name ^ ": " ^ p) ps)
      Workload.names
  in
  List.iter prerr_endline failures;
  if failures = [] then 0 else 1

let usage () =
  prerr_endline
    "usage: perf --workload census-cold|serve-measure|serve-carry [--seed N] [--seconds S] \
     [--trace 0|1] [--out DIR]\n\
    \       perf compare DIR_A DIR_B\n\
    \       perf smoke BENCHMARK.json";
  2

let () =
  exit
    (match List.tl (Array.to_list Sys.argv) with
    | [ "compare"; a; b ] -> Compare.run ~catalogue:catalogue_path a b
    | [ "smoke"; catalogue ] -> smoke catalogue
    | args -> (
      let rec parse acc = function
        | flag :: v :: rest when String.starts_with ~prefix:"--" flag ->
          parse ((flag, v) :: acc) rest
        | [] -> Some acc
        | _ -> None
      in
      match parse [] args with
      | None -> usage ()
      | Some flags -> (
        let get k = List.assoc_opt k flags in
        match
          ( get "--workload",
            int_of_string_opt (Option.value ~default:(string_of_int default_seed) (get "--seed")),
            float_of_string_opt (Option.value ~default:"20" (get "--seconds")),
            Option.value ~default:"0" (get "--trace") )
        with
        | Some workload, Some seed, Some seconds, (("0" | "1") as t)
          when List.mem_assoc workload Workload.names
               && List.for_all
                    (fun (k, _) ->
                      List.mem k [ "--workload"; "--seed"; "--seconds"; "--trace"; "--out" ])
                    flags ->
          run_one ~workload ~seed ~seconds ~trace:(t = "1")
            ~out:(Option.value ~default:"bench/perf/_results" (get "--out"))
        | _ -> usage ())))

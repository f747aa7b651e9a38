type cell = {
  cca : string;
  family : string;
  report : Measurement.report;
  correct : bool;
}

type row = {
  family : string;
  cells : cell list;
  accuracy : float;
  unknown_rate : float;
  mean_attempts : float;
}

type matrix = { baseline : row; rows : row list; violations : cell list }

let baseline_family = "none"

let standard_suite ?(seed = 42) () =
  let down = Netsim.Packet.To_client and up = Netsim.Packet.To_server in
  [
    ("link_flap", [ Faults.Link_flap { at = 8.0; duration = 1.5 } ]);
    ("rate_change", [ Faults.Rate_change { at = 10.0; factor = 0.5 } ]);
    ( "burst_loss",
      [
        Faults.Burst_loss { at = 6.0; duration = 1.0; dir = down; prob = 0.3 };
        Faults.Burst_loss { at = 14.0; duration = 1.0; dir = down; prob = 0.3 };
      ] );
    ( "ack_loss",
      [ Faults.Burst_loss { at = 6.0; duration = 2.0; dir = up; prob = 0.2 } ] );
    ( "reorder",
      [ Faults.Reorder { at = 5.0; duration = 10.0; dir = down; prob = 0.05; max_extra = 0.03 } ]
    );
    ("duplicate", [ Faults.Duplicate { at = 5.0; duration = 10.0; dir = down; prob = 0.05 } ]);
    ("ack_storm", [ Faults.Ack_storm { at = 6.0; duration = 6.0; hold = 0.12 } ]);
    ("capture_loss", [ Faults.Capture_loss { at = 0.0; duration = 120.0; prob = 0.03 } ]);
    ("capture_jitter", [ Faults.Capture_jitter { std = 0.002 } ]);
    ("truncate_capture", [ Faults.Truncate_capture { at = 12.0 } ]);
    ("server_stall", [ Faults.Server_stall { at = 9.0; duration = 2.0 } ]);
    ("flow_reset", [ Faults.Flow_reset { at = 12.0 } ]);
  ]
  |> List.mapi (fun i (name, specs) -> (name, { Faults.seed = seed + (101 * i); specs }))

let family_names = baseline_family :: List.map fst (standard_suite ())

let row_of family cells =
  let n = float_of_int (max 1 (List.length cells)) in
  let count p = float_of_int (List.length (List.filter p cells)) in
  {
    family;
    cells;
    accuracy = count (fun c -> c.correct) /. n;
    unknown_rate = count (fun c -> c.report.Measurement.label = "unknown") /. n;
    mean_attempts =
      List.fold_left (fun acc c -> acc +. float_of_int c.report.Measurement.attempts) 0.0 cells
      /. n;
  }

let run_matrix ?ccas ?families ?(config = Measurement.default_config) ?(seed = 42)
    ?(proto = Netsim.Packet.Tcp) ?jobs ~control () =
  let ccas = match ccas with Some c -> c | None -> Cca.Registry.all in
  let suite = (baseline_family, Faults.empty) :: standard_suite ~seed () in
  let suite =
    match families with
    | None -> suite
    | Some wanted ->
      List.filter (fun (f, _) -> f = baseline_family || List.mem f wanted) suite
  in
  (* one job per matrix cell: every cell's measurement is a pure function
     of (cca, plan, seed), so the flattened grid parallelizes on the
     engine and reassembles row by row in suite order *)
  let measure_cell (family, plan, i, cca) =
    let report =
      Measurement.measure_cca ~control ~config ~proto ~faults:plan ~seed:(seed + (1009 * i))
        cca
    in
    { cca; family; report; correct = report.Measurement.label = cca }
  in
  let grid =
    List.concat_map
      (fun (family, plan) -> List.mapi (fun i cca -> (family, plan, i, cca)) ccas)
      suite
  in
  let cells = Engine.Pool.map_list ?jobs measure_cell grid in
  let per_cca = List.length ccas in
  let rows =
    List.mapi
      (fun r (family, _) ->
        row_of family (List.filteri (fun i _ -> i / per_cca = r) cells))
      suite
  in
  let baseline, fault_rows =
    match rows with
    | b :: rest -> (b, rest)
    | [] -> (row_of baseline_family [], [])
  in
  (* the hard invariant the harness exists to enforce: a run either
     classifies or carries a typed, non-empty failure chain *)
  let violations =
    List.concat_map
      (fun r ->
        List.filter
          (fun c ->
            c.report.Measurement.label = "unknown" && c.report.Measurement.failures = [])
          r.cells)
      rows
  in
  { baseline; rows = fault_rows; violations }

let failure_tally (r : row) =
  let tally = Hashtbl.create 8 in
  List.iter
    (fun c ->
      List.iter
        (fun reason ->
          let key = Measurement.failure_reason_label reason in
          Hashtbl.replace tally key (1 + Option.value ~default:0 (Hashtbl.find_opt tally key)))
        c.report.Measurement.failures)
    r.cells;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally [])

let render m =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-18s %9s %12s %9s %9s  %s\n" "fault family" "accuracy" "degradation"
       "unknown" "attempts" "failure reasons");
  let line (r : row) =
    let degradation =
      if r.family = baseline_family then "      --"
      else Printf.sprintf "%+7.1fpp" (100.0 *. (r.accuracy -. m.baseline.accuracy))
    in
    let reasons =
      String.concat ", "
        (List.map (fun (k, v) -> Printf.sprintf "%s:%d" k v) (failure_tally r))
    in
    Buffer.add_string buf
      (Printf.sprintf "%-18s %8.1f%% %12s %8.1f%% %9.2f  %s\n" r.family (100.0 *. r.accuracy)
         degradation
         (100.0 *. r.unknown_rate)
         r.mean_attempts reasons)
  in
  line m.baseline;
  List.iter line m.rows;
  if m.violations <> [] then begin
    Buffer.add_string buf "\nINVARIANT VIOLATIONS (unknown without a reason chain):\n";
    List.iter
      (fun c -> Buffer.add_string buf (Printf.sprintf "  %s under %s\n" c.cca c.family))
      m.violations
  end;
  Buffer.contents buf

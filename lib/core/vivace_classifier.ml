(* Count alternating small steps between consecutive window means. *)
let count_steps (p : Pipeline.t) (seg : Pipeline.segment) =
  let win = max 2 (int_of_float (p.rtt /. p.dt)) in
  let n = Array.length seg.values in
  let windows = n / win in
  if windows < 4 then 0
  else begin
    let means =
      Array.init windows (fun w ->
          let acc = ref 0.0 in
          for i = w * win to ((w + 1) * win) - 1 do
            acc := !acc +. seg.values.(i)
          done;
          !acc /. float_of_int win)
    in
    let level = Float.max 1.0 (Sigproc.Series.median means) in
    let steps = ref 0 and last_sign = ref 0 in
    for w = 1 to windows - 1 do
      let delta = (means.(w) -. means.(w - 1)) /. level in
      let sign = if delta > 0.015 then 1 else if delta < -0.015 then -1 else 0 in
      if sign <> 0 && Float.abs delta < 0.20 && sign <> !last_sign then incr steps;
      if sign <> 0 then last_sign := sign
    done;
    !steps
  end

let classify (p : Pipeline.t) =
  let deep = Trace_sig.deep_drains ~min_depth:0.5 ~max_trough:0.35 p in
  if deep <> [] then None
  else begin
    let total_steps = List.fold_left (fun acc seg -> acc + count_steps p seg) 0 p.segments in
    let amp_small =
      List.for_all
        (fun (seg : Pipeline.segment) ->
          seg.raw_max <= 0.0 || (seg.raw_max -. seg.raw_min) /. seg.raw_max < 0.35)
        p.segments
    in
    if total_steps >= 6 && amp_small then Some { Plugin.label = "vivace"; confidence = 0.5 }
    else None
  end

let signals (p : Pipeline.t) =
  let total_steps =
    List.fold_left (fun acc seg -> acc + count_steps p seg) 0 p.segments
  in
  let max_amp =
    List.fold_left
      (fun acc (seg : Pipeline.segment) ->
        if seg.raw_max > 0.0 then
          Float.max acc ((seg.raw_max -. seg.raw_min) /. seg.raw_max)
        else acc)
      0.0 p.segments
  in
  [ ("probe_steps", float_of_int total_steps); ("max_amp_ratio", max_amp) ]

let plugin = Plugin.make ~explain:signals ~name:"vivace" classify

type segment = {
  start_time : float;
  duration : float;
  values : float array;
  raw_max : float;
  raw_min : float;
  drop_frac : float;
}

type backoff_info = {
  at : float;
  depth : float;
  trough : float;
  dwell : float;
  pre_slope : float;
}

type t = {
  dt : float;
  rtt : float;
  t0 : float;
  smoothed : float array;
  derivative : float array;
  segments : segment list;
  backoffs : backoff_info list;
  mean_bif : float;
}

let default_dt = 0.02

(* A back-off must shed at least this fraction of the trace amplitude. *)
let backoff_depth_frac = 0.25

type backoff = {
  b_start : int;
  b_end : int;
  depth : float;
  trough : float;
  dwell : float;
  pre_slope : float;
}

(* Find maximal spans where the derivative stays below [thresh]; spans
   closer than half an RTT merge into one back-off event. *)
let find_backoffs ~dt ~rtt ~smoothed ~deriv ~thresh =
  let n = Array.length deriv in
  let merge_gap = int_of_float (rtt /. 2.0 /. dt) in
  let rec scan i spans =
    if i >= n then List.rev spans
    else if deriv.(i) < thresh then begin
      let rec extend j = if j < n && deriv.(j) < thresh then extend (j + 1) else j in
      let stop = extend i in
      scan stop ((i, stop - 1) :: spans)
    end
    else scan (i + 1) spans
  in
  let spans = scan 0 [] in
  let rec merge = function
    | (s1, e1) :: (s2, e2) :: rest when s2 - e1 <= merge_gap -> merge ((s1, e2) :: rest)
    | span :: rest -> span :: merge rest
    | [] -> []
  in
  let sorted = Array.copy smoothed in
  Array.sort compare sorted;
  let p95 =
    let n = Array.length sorted in
    if n = 0 then 1.0 else Float.max 1.0 sorted.(min (n - 1) (n * 95 / 100))
  in
  let to_backoff (s, e) =
    let last = Array.length smoothed - 1 in
    let v_before = smoothed.(s) and v_after = smoothed.(min last e) in
    let depth = if v_before > 0.0 then Float.max 0.0 ((v_before -. v_after) /. v_before) else 0.0 in
    let trough = ref infinity and trough_i = ref s in
    for i = s to min last e do
      if smoothed.(i) < !trough then begin
        trough := smoothed.(i);
        trough_i := i
      end
    done;
    (* dwell: how long the signal stays within a quarter of the drop of
       the trough, scanning out in both directions *)
    let near = !trough +. (0.25 *. Float.max 1.0 (v_before -. !trough)) in
    let rec left i = if i > 0 && smoothed.(i - 1) <= near then left (i - 1) else i in
    let rec right i = if i < last && smoothed.(i + 1) <= near then right (i + 1) else i in
    let dwell = float_of_int (right !trough_i - left !trough_i + 1) *. dt in
    (* relative slope of the 2.5 s leading into the back-off: a ProbeRTT
       drain starts from a flat cruise, an AIMD back-off from a rising
       ramp *)
    let pre_slope =
      (* least-squares slope over the window, so a probing ripple riding on
         a flat cruise averages out instead of biasing the endpoints *)
      (* stop 0.6 s short of the drain: a bandwidth probe often immediately
         precedes a ProbeRTT and must not masquerade as a growing window *)
      let gap = int_of_float (0.6 /. dt) in
      let span = int_of_float (2.5 /. dt) in
      let upto = max 0 (s - gap) in
      let from_i = max 0 (upto - span) in
      let n = upto - from_i in
      if n < 4 then infinity
      else begin
        let nf = float_of_int n in
        let sx = ref 0.0 and sy = ref 0.0 and sxy = ref 0.0 and sxx = ref 0.0 in
        for k = from_i to upto - 1 do
          let x = float_of_int (k - from_i) *. dt in
          sx := !sx +. x;
          sy := !sy +. smoothed.(k);
          sxy := !sxy +. (x *. smoothed.(k));
          sxx := !sxx +. (x *. x)
        done;
        let denom = (nf *. !sxx) -. (!sx *. !sx) in
        let slope =
          if Float.abs denom < 1e-9 then 0.0 else ((nf *. !sxy) -. (!sx *. !sy)) /. denom
        in
        let level = Float.max 1.0 (!sy /. nf) in
        slope /. level
      end
    in
    { b_start = s; b_end = e; depth; trough = !trough /. p95; dwell; pre_slope }
  in
  List.map to_backoff (merge spans)

let slice_segment ~dt ~t0 ~smoothed ~from_i ~to_i ~drop_frac =
  (* skip the refill after a drain: the climb back to the operating level
     is transport recovery, not the CCA's steady-state behaviour. The
     reference level is the median of the region's second half. *)
  let from_i =
    if to_i <= from_i then from_i
    else begin
      let mid = (from_i + to_i) / 2 in
      let tail = Array.sub smoothed mid (to_i - mid + 1) in
      Array.sort compare tail;
      let level = tail.(Array.length tail / 2) in
      let limit = from_i + ((to_i - from_i) / 4) in
      let rec advance i =
        if i < limit && smoothed.(i) < 0.6 *. level then advance (i + 1) else i
      in
      advance from_i
    end
  in
  let len = to_i - from_i + 1 in
  if len < 2 then None
  else begin
    let values = Array.sub smoothed from_i len in
    Some
      {
        start_time = t0 +. (float_of_int from_i *. dt);
        duration = float_of_int (len - 1) *. dt;
        values;
        raw_max = Sigproc.Series.maximum values;
        raw_min = Sigproc.Series.minimum values;
        drop_frac;
      }
  end

let tail_clip = 1.0 (* seconds: the transfer-end drain is not CCA behaviour *)

let prepare ?(dt = default_dt) ?(smoothen = true) ~rtt points =
  Obs.Span.with_ ~name:"prepare" @@ fun () ->
  let pts = Sigproc.Series.of_pairs points in
  let t0, raw = Sigproc.Series.resample ~dt pts in
  let raw =
    let n = Array.length raw in
    let clip = int_of_float (tail_clip /. dt) in
    if n > 3 * clip then Array.sub raw 0 (n - clip) else raw
  in
  let smoothed = if smoothen then Sigproc.Fft.lowpass ~dt ~cutoff:(1.0 /. rtt) raw else raw in
  (* the filter can ring slightly negative; BiF cannot be negative *)
  let smoothed = Array.map (fun x -> Float.max 0.0 x) smoothed in
  let deriv = Sigproc.Series.derivative ~dt smoothed in
  let n = Array.length smoothed in
  let amplitude = Sigproc.Series.maximum smoothed -. Sigproc.Series.minimum smoothed in
  let thresh = -.(backoff_depth_frac *. Float.max amplitude 1.0 /. rtt) in
  let backoffs =
    find_backoffs ~dt ~rtt ~smoothed ~deriv ~thresh
    |> List.filter (fun b -> b.depth >= 0.15)
  in
  let min_len = int_of_float (Float.max (3.0 *. rtt) 0.6 /. dt) in
  let segments =
    match backoffs with
    | [] ->
      (* no back-offs at all (e.g. Vegas sitting on its operating point):
         use the whole trace minus the slow-start head *)
      let from_i = n / 4 in
      Option.to_list (slice_segment ~dt ~t0 ~smoothed ~from_i ~to_i:(n - 1) ~drop_frac:0.0)
    | _ ->
      let rec regions acc = function
        | b1 :: (b2 :: _ as rest) ->
          regions ((b1.b_end + 1, b2.b_start - 1, b2.depth) :: acc) rest
        | [ last ] -> List.rev ((last.b_end + 1, n - 1, 0.0) :: acc)
        | [] -> List.rev acc
      in
      let head_trim = int_of_float (2.0 *. rtt /. dt) in
      regions [] backoffs
      |> List.filter_map (fun (from_i, to_i, drop_frac) ->
             (* the first couple of RTTs are the transport refilling the
                pipe after recovery, not the CCA's avoidance behaviour *)
             let from_i = from_i + head_trim in
             if to_i - from_i + 1 >= min_len then
               slice_segment ~dt ~t0 ~smoothed ~from_i ~to_i ~drop_frac
             else None)
  in
  if Obs.Runtime.armed () then begin
    Obs.Metrics.bump ~by:(List.length segments) "pipeline.segments";
    Obs.Metrics.bump ~by:(List.length backoffs) "pipeline.backoffs";
    let dur = Obs.Histogram.get "pipeline.segment_duration_s" in
    List.iter (fun seg -> Obs.Histogram.observe dur seg.duration) segments
  end;
  {
    dt;
    rtt;
    t0;
    smoothed;
    derivative = deriv;
    segments;
    backoffs =
      List.map
        (fun b ->
          { at = t0 +. (float_of_int b.b_start *. dt); depth = b.depth; trough = b.trough;
            dwell = b.dwell; pre_slope = b.pre_slope })
        backoffs;
    mean_bif = Sigproc.Series.mean smoothed;
  }

let segment_count t = List.length t.segments

let summary t =
  let total_segment_s =
    List.fold_left (fun acc s -> acc +. s.duration) 0.0 t.segments
  in
  let max_backoff_depth =
    List.fold_left (fun acc (b : backoff_info) -> Float.max acc b.depth) 0.0 t.backoffs
  in
  [
    ("segments", float_of_int (List.length t.segments));
    ("backoffs", float_of_int (List.length t.backoffs));
    ("total_segment_s", total_segment_s);
    ("max_backoff_depth", max_backoff_depth);
    ("mean_bif", t.mean_bif);
    ("rtt_s", t.rtt);
    ("dt_s", t.dt);
  ]

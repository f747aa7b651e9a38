let deep_drains ?(min_depth = 0.55) ?(max_trough = 0.40) ?(min_dwell = 0.25)
    ?(max_pre_slope = 0.08) (p : Pipeline.t) =
  List.filter_map
    (fun (b : Pipeline.backoff_info) ->
      if
        b.depth >= min_depth && b.trough <= max_trough && b.dwell >= min_dwell
        (* one-sided: only a RISING approach betrays an AIMD ramp; falling
           or flat approaches are how rate-based drains arrive *)
        && b.pre_slope <= max_pre_slope
      then Some b.at
      else None)
    p.backoffs

let intervals times =
  let rec gaps = function
    | a :: (b :: _ as rest) -> (b -. a) :: gaps rest
    | [ _ ] | [] -> []
  in
  gaps times

let interval_stats = function
  | [] -> None
  | gaps ->
    let arr = Array.of_list gaps in
    let mean = Sigproc.Series.mean arr in
    if mean <= 0.0 then None
    else Some (mean, Sigproc.Series.std arr /. mean)

let compute_flatness (seg : Pipeline.segment) =
  (* empty windows happen under capture faults; they are simply not flat *)
  if Array.length seg.values = 0 then 0.0
  else
  let m = Sigproc.Series.median seg.values in
  if m <= 0.0 then 0.0
  else begin
    let ok = Array.fold_left (fun acc v -> if Float.abs (v -. m) <= 0.12 *. m then acc + 1 else acc) 0 seg.values in
    float_of_int ok /. float_of_int (Array.length seg.values)
  end

let compute_longest_flat_span (p : Pipeline.t) (seg : Pipeline.segment) =
  let n = Array.length seg.values in
  let rec go i run_start level best =
    if i >= n then Float.max best (float_of_int (i - run_start) *. p.dt)
    else if level > 0.0 && Float.abs (seg.values.(i) -. level) <= 0.08 *. level then
      go (i + 1) run_start level best
    else
      go (i + 1) i seg.values.(i) (Float.max best (float_of_int (i - run_start) *. p.dt))
  in
  if n = 0 then 0.0 else go 1 0 seg.values.(0) 0.0

(* Dominant periodicity via the autocorrelation of the linearly detrended
   segment: robust against the measurement noise that defeats peak
   counting. Searches lags from 3 RTTs up to a third of the segment. *)
let compute_oscillation_period (p : Pipeline.t) (seg : Pipeline.segment) =
  let n = Array.length seg.values in
  let min_lag = max 2 (int_of_float (3.0 *. p.rtt /. p.dt)) in
  let max_lag = n / 3 in
  if n < 12 || max_lag <= min_lag then None
  else begin
    (* remove slow wander with a moving average over ~10 RTTs so the
       autocorrelation sees only the ripple band *)
    let ma_win = max 3 (int_of_float (16.0 *. p.rtt /. p.dt)) in
    (* window sums as differences of prefix sums: O(n), not O(n x window) *)
    let prefix = Array.make (n + 1) 0.0 in
    for i = 0 to n - 1 do
      prefix.(i + 1) <- prefix.(i) +. seg.values.(i)
    done;
    let resid =
      Array.init n (fun i ->
          let lo = max 0 (i - (ma_win / 2)) and hi = min (n - 1) (i + (ma_win / 2)) in
          seg.values.(i) -. ((prefix.(hi + 1) -. prefix.(lo)) /. float_of_int (hi - lo + 1)))
    in
    let var = Array.fold_left (fun a x -> a +. (x *. x)) 0.0 resid /. float_of_int n in
    if var <= 1e-9 then None
    else begin
      (* each lag's autocorrelation is computed at most once: the peak hunt
         below reads every lag up to three times *)
      let memo = Array.make (max_lag + 1) nan in
      let autocorr lag =
        let c = memo.(lag) in
        if c = c then c
        else begin
          let acc = ref 0.0 in
          for i = 0 to n - 1 - lag do
            acc := !acc +. (resid.(i) *. resid.(i + lag))
          done;
          let c = !acc /. (float_of_int (n - lag) *. var) in
          memo.(lag) <- c;
          c
        end
      in
      (* smoothing correlates neighbouring samples, so the autocorrelation
         starts high at small lags; wait for it to decay below 0.2 first,
         then take the best true peak beyond that (standard pitch hunt) *)
      let rec find_decay lag =
        if lag > max_lag then None
        else if autocorr lag < 0.2 then Some lag
        else find_decay (lag + 1)
      in
      match find_decay min_lag with
      | None -> None
      | Some decayed ->
        (* first local maximum above threshold after decorrelation: the
           fundamental period, not one of its harmonics *)
        let rec first_peak lag =
          if lag + 1 > max_lag then None
          else begin
            let prev = autocorr (lag - 1) and c = autocorr lag and next = autocorr (lag + 1) in
            if c > 0.3 && c >= prev && c >= next then Some lag else first_peak (lag + 1)
          end
        in
        (match first_peak (decayed + 1) with
        | Some lag -> Some (float_of_int lag *. p.dt)
        | None -> None)
    end
  end

(* The per-sample signatures above are recomputed by every classifier that
   asks for them — several rate-based plugins each call the autocorrelation
   hunt (O(samples x lags)), the flatness median, and the flat-span scan,
   and a provenance-collecting measurement asks once more for the stage
   summary. Cache them per segment in a {!Recent} cache keyed by the
   segment's sample array (a segment is immutable and belongs to exactly
   one pipeline, so rtt/dt are determined by the key). Every signature of
   both profiles of a measurement fits in the cache at once. *)
let cache_capacity = 32

let memoize_seg compute =
  let cache = Recent.create cache_capacity in
  fun (seg : Pipeline.segment) -> Recent.find_or_add cache seg.values (fun () -> compute seg)

let memoize_pseg compute =
  let cache = Recent.create cache_capacity in
  fun p (seg : Pipeline.segment) ->
    Recent.find_or_add cache seg.values (fun () -> compute p seg)

let oscillation_period = memoize_pseg compute_oscillation_period
let longest_flat_span = memoize_pseg compute_longest_flat_span
let flatness = memoize_seg compute_flatness

let summary (p : Pipeline.t) =
  let segs = p.segments in
  let flats = List.map flatness segs in
  let mean_flat =
    match flats with
    | [] -> 0.0
    | _ -> List.fold_left ( +. ) 0.0 flats /. float_of_int (List.length flats)
  in
  let cruise =
    List.fold_left (fun acc seg -> Float.max acc (longest_flat_span p seg)) 0.0 segs
  in
  let drains = deep_drains p in
  let periods = List.filter_map (oscillation_period p) segs in
  [
    ("mean_flatness", mean_flat);
    ("longest_flat_span_s", cruise);
    ("deep_drains", float_of_int (List.length drains));
  ]
  @ (match interval_stats (intervals drains) with
    | Some (mean, cov) -> [ ("drain_interval_s", mean); ("drain_interval_cov", cov) ]
    | None -> [])
  @
  match periods with
  | [] -> []
  | first :: rest ->
    let p_min = List.fold_left Float.min first rest in
    if p.rtt > 0.0 then [ ("min_oscillation_period_rtts", p_min /. p.rtt) ]
    else []

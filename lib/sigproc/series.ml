let resample ~dt ~times ~values =
  let n = Array.length times in
  if Array.length values <> n then invalid_arg "Series.resample: times and values differ in length";
  if n = 0 then (0.0, [||])
  else begin
    let t0 = times.(0) and t_end = times.(n - 1) in
    let steps = max 1 (int_of_float (Float.ceil ((t_end -. t0) /. dt))) + 1 in
    let out = Array.make steps 0.0 in
    let src = ref 0 in
    for i = 0 to steps - 1 do
      let time = t0 +. (float_of_int i *. dt) in
      while !src + 1 < n && times.(!src + 1) <= time do incr src done;
      out.(i) <- values.(!src)
    done;
    (t0, out)
  end

let derivative ~dt xs =
  let n = Array.length xs in
  if n < 2 then Array.make n 0.0
  else
    Array.init n (fun i ->
        if i = 0 then (xs.(1) -. xs.(0)) /. dt
        else if i = n - 1 then (xs.(n - 1) -. xs.(n - 2)) /. dt
        else (xs.(i + 1) -. xs.(i - 1)) /. (2.0 *. dt))

let minimum xs = Array.fold_left Float.min infinity xs
let maximum xs = Array.fold_left Float.max neg_infinity xs

let normalize xs =
  if Array.length xs = 0 then [||]
  else begin
    let lo = minimum xs and hi = maximum xs in
    let range = hi -. lo in
    if range <= 0.0 then Array.map (fun _ -> 0.0) xs
    else Array.map (fun x -> (x -. lo) /. range) xs
  end

let sample_uniform ~n xs =
  let len = Array.length xs in
  if len = 0 || n <= 0 then [||]
  else if len = 1 then Array.make n xs.(0)
  else
    Array.init n (fun i ->
        let pos = float_of_int i *. float_of_int (len - 1) /. float_of_int (max 1 (n - 1)) in
        let lo = int_of_float pos in
        let hi = min (len - 1) (lo + 1) in
        let frac = pos -. float_of_int lo in
        (xs.(lo) *. (1.0 -. frac)) +. (xs.(hi) *. frac))

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun a x -> a +. ((x -. m) *. (x -. m))) 0.0 xs in
    (* the sum of squares cannot be negative, but rounding on
       near-constant data can produce a tiny negative accumulation *)
    Float.max 0.0 (acc /. float_of_int n)
  end

let std xs = sqrt (variance xs)

let quantile q xs =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let sorted = Array.copy xs in
    Array.sort Float.compare sorted;
    let q = Float.min 1.0 (Float.max 0.0 q) in
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

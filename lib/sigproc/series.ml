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

(* Three-way quickselect under [Float.compare], in place: on return
   [a.(k)] is the k-th smallest element, everything before it compares <=
   and everything after it >=. Median-of-three pivots keep sorted and
   reverse-sorted input linear; the equal band keeps runs of duplicates
   (a plateau, a floor of zeros) from degrading it. *)
let select_in_place a k =
  let swap i j =
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  in
  let lo = ref 0 and hi = ref (Array.length a - 1) in
  while !lo < !hi do
    let x = a.(!lo) and y = a.(!lo + ((!hi - !lo) / 2)) and z = a.(!hi) in
    let pivot =
      if Float.compare x y <= 0 then
        if Float.compare y z <= 0 then y else if Float.compare x z <= 0 then z else x
      else if Float.compare x z <= 0 then x
      else if Float.compare y z <= 0 then z
      else y
    in
    let lt = ref !lo and i = ref !lo and gt = ref !hi in
    while !i <= !gt do
      let c = Float.compare a.(!i) pivot in
      if c < 0 then begin
        swap !lt !i;
        incr lt;
        incr i
      end
      else if c > 0 then begin
        swap !i !gt;
        decr gt
      end
      else incr i
    done;
    if k < !lt then hi := !lt - 1
    else if k > !gt then lo := !gt + 1
    else begin
      lo := k;
      hi := k
    end
  done

(* the smallest of [a.(from)..a.(last)] under [Float.compare] *)
let min_from a from =
  let m = ref a.(from) in
  for i = from + 1 to Array.length a - 1 do
    if Float.compare a.(i) !m < 0 then m := a.(i)
  done;
  !m

let select k xs =
  let n = Array.length xs in
  if k < 0 || k >= n then invalid_arg "Series.select: rank out of bounds";
  let a = Array.copy xs in
  select_in_place a k;
  a.(k)

let median xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let a = Array.copy xs in
    let k = n / 2 in
    if n mod 2 = 1 then begin
      select_in_place a k;
      a.(k)
    end
    else begin
      select_in_place a (k - 1);
      (a.(k - 1) +. min_from a k) /. 2.0
    end
  end

let quantile q xs =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let a = Array.copy xs in
    let q = Float.min 1.0 (Float.max 0.0 q) in
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    select_in_place a lo;
    let hi = if lo + 1 < n then min_from a (lo + 1) else a.(lo) in
    let frac = pos -. float_of_int lo in
    (a.(lo) *. (1.0 -. frac)) +. (hi *. frac)
  end

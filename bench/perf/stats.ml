(* Order statistics shared by the run summary and [compare]. *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartile by the "exclusive" method of Python's
   [statistics.quantiles(xs, n=4)], so spreads read the same here as in
   any script that checks the records. One sample has no spread. *)
let quartiles xs =
  match sorted xs with
  | [] -> (nan, nan)
  | [ x ] -> (x, x)
  | s ->
    let a = Array.of_list s in
    let ld = Array.length a in
    let m = ld + 1 in
    let cut i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (cut 1, cut 3)

(* Interquartile distance as a share of the median. *)
let spread xs =
  let q1, q3 = quartiles xs in
  (q3 -. q1) /. median xs

(* Nearest-rank percentile, [p] in (0, 100]. *)
let percentile p xs =
  match sorted xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

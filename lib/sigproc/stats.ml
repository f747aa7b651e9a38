let moments xs =
  let n = float_of_int (Array.length xs) in
  let mean = Array.fold_left ( +. ) 0.0 xs /. n in
  let m2 = Array.fold_left (fun a x -> a +. (((x -. mean) ** 2.0))) 0.0 xs /. n in
  let m3 = Array.fold_left (fun a x -> a +. (((x -. mean) ** 3.0))) 0.0 xs /. n in
  let m4 = Array.fold_left (fun a x -> a +. (((x -. mean) ** 4.0))) 0.0 xs /. n in
  (mean, m2, m3, m4)

let skewness xs =
  let _, m2, m3, _ = moments xs in
  if m2 <= 0.0 then 0.0 else m3 /. (m2 ** 1.5)

let kurtosis xs =
  let _, m2, _, m4 = moments xs in
  if m2 <= 0.0 then 0.0 else (m4 /. (m2 *. m2)) -. 3.0

(* D'Agostino's transformed skewness z-score *)
let skewness_z xs =
  let n = float_of_int (Array.length xs) in
  let g1 = skewness xs in
  let y = g1 *. sqrt ((n +. 1.0) *. (n +. 3.0) /. (6.0 *. (n -. 2.0))) in
  let beta2 =
    3.0 *. ((n *. n) +. (27.0 *. n) -. 70.0) *. (n +. 1.0) *. (n +. 3.0)
    /. ((n -. 2.0) *. (n +. 5.0) *. (n +. 7.0) *. (n +. 9.0))
  in
  let w2 = -1.0 +. sqrt (2.0 *. (beta2 -. 1.0)) in
  let delta = 1.0 /. sqrt (0.5 *. log w2) in
  let alpha = sqrt (2.0 /. (w2 -. 1.0)) in
  let y = if y = 0.0 then 1e-12 else y in
  delta *. log ((y /. alpha) +. sqrt (((y /. alpha) ** 2.0) +. 1.0))

(* D'Agostino's transformed kurtosis z-score (Anscombe-Glynn) *)
let kurtosis_z xs =
  let n = float_of_int (Array.length xs) in
  let g2 = kurtosis xs in
  let e = -6.0 /. (n +. 1.0) in
  let var = 24.0 *. n *. (n -. 2.0) *. (n -. 3.0) /. (((n +. 1.0) ** 2.0) *. (n +. 3.0) *. (n +. 5.0)) in
  let x = (g2 -. e) /. sqrt var in
  let beta1 =
    6.0 *. ((n *. n) -. (5.0 *. n) +. 2.0) /. ((n +. 7.0) *. (n +. 9.0))
    *. sqrt (6.0 *. (n +. 3.0) *. (n +. 5.0) /. (n *. (n -. 2.0) *. (n -. 3.0)))
  in
  let a = 6.0 +. (8.0 /. beta1 *. ((2.0 /. beta1) +. sqrt (1.0 +. (4.0 /. (beta1 *. beta1))))) in
  let term = (1.0 -. (2.0 /. a)) /. (1.0 +. (x *. sqrt (2.0 /. (a -. 4.0)))) in
  let term = Float.max term 1e-12 in
  ((1.0 -. (2.0 /. (9.0 *. a))) -. (term ** (1.0 /. 3.0))) /. sqrt (2.0 /. (9.0 *. a))

let dagostino_k2 xs =
  if Array.length xs < 8 then invalid_arg "Stats.dagostino_k2: need >= 8 samples";
  let z1 = skewness_z xs and z2 = kurtosis_z xs in
  let k2 = (z1 *. z1) +. (z2 *. z2) in
  (* chi-squared(2) survival function *)
  let p = exp (-.k2 /. 2.0) in
  (k2, p)

let erf x =
  (* Abramowitz & Stegun 7.1.26, |error| <= 1.5e-7 *)
  let sign = if x < 0.0 then -1.0 else 1.0 in
  let x = Float.abs x in
  let t = 1.0 /. (1.0 +. (0.3275911 *. x)) in
  let y =
    1.0
    -. ((((((1.061405429 *. t) -. 1.453152027) *. t) +. 1.421413741) *. t -. 0.284496736)
        *. t
       +. 0.254829592)
       *. t
       *. exp (-.(x *. x))
  in
  sign *. y

let normal_cdf x = 0.5 *. (1.0 +. erf (x /. sqrt 2.0))

let rec normal_quantile p =
  if p <= 0.0 || p >= 1.0 then invalid_arg "Stats.normal_quantile";
  (* Acklam's rational approximation *)
  let a = [| -3.969683028665376e+01; 2.209460984245205e+02; -2.759285104469687e+02;
             1.383577518672690e+02; -3.066479806614716e+01; 2.506628277459239e+00 |] in
  let b = [| -5.447609879822406e+01; 1.615858368580409e+02; -1.556989798598866e+02;
             6.680131188771972e+01; -1.328068155288572e+01 |] in
  let c = [| -7.784894002430293e-03; -3.223964580411365e-01; -2.400758277161838e+00;
             -2.549732539343734e+00; 4.374664141464968e+00; 2.938163982698783e+00 |] in
  let d = [| 7.784695709041462e-03; 3.224671290700398e-01; 2.445134137142996e+00;
             3.754408661907416e+00 |] in
  let p_low = 0.02425 in
  if p < p_low then begin
    let q = sqrt (-2.0 *. log p) in
    (((((c.(0) *. q +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q +. c.(5))
    /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0)
  end
  else if p > 1.0 -. p_low then -.normal_quantile (1.0 -. p)
  else begin
    let q = p -. 0.5 in
    let r = q *. q in
    (((((a.(0) *. r +. a.(1)) *. r +. a.(2)) *. r +. a.(3)) *. r +. a.(4)) *. r +. a.(5)) *. q
    /. (((((b.(0) *. r +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r +. b.(4)) *. r +. 1.0)
  end

(* Shapiro-Francia W': the squared correlation between the order
   statistics and their expected normal scores, the standard large-sample
   approximation of Shapiro-Wilk; near 1 means normal. *)
let shapiro_francia xs =
  let n = Array.length xs in
  if n < 5 then invalid_arg "Stats.shapiro_francia: need >= 5 samples";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let nf = float_of_int n in
  let scores =
    Array.init n (fun i -> normal_quantile ((float_of_int (i + 1) -. 0.375) /. (nf +. 0.25)))
  in
  let mx = Array.fold_left ( +. ) 0.0 sorted /. nf in
  let ms = Array.fold_left ( +. ) 0.0 scores /. nf in
  let num = ref 0.0 and dx = ref 0.0 and ds = ref 0.0 in
  for i = 0 to n - 1 do
    let a = sorted.(i) -. mx and b = scores.(i) -. ms in
    num := !num +. (a *. b);
    dx := !dx +. (a *. a);
    ds := !ds +. (b *. b)
  done;
  if !dx <= 0.0 || !ds <= 0.0 then 0.0 else !num *. !num /. (!dx *. !ds)

let normality_soft_pass xs =
  let k2_pass = try snd (dagostino_k2 xs) > 0.05 with Invalid_argument _ -> false in
  let sf_pass = try shapiro_francia xs > 0.95 with Invalid_argument _ -> false in
  k2_pass || sf_pass

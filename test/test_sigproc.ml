(* Unit and property tests for the signal-processing substrate. *)

let check_close ?(eps = 1e-6) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

(* ---- FFT ---- *)

let test_fft_roundtrip () =
  let n = 64 in
  let real = Array.init n (fun i -> sin (0.3 *. float_of_int i) +. (0.5 *. float_of_int (i mod 5))) in
  let orig = Array.copy real in
  let imag = Array.make n 0.0 in
  Sigproc.Fft.transform ~real ~imag;
  Sigproc.Fft.inverse ~real ~imag;
  Array.iteri (fun i x -> check_close ~eps:1e-9 "roundtrip" orig.(i) x) real

let test_fft_pure_tone () =
  (* a pure cosine at bin 4 must put all energy in bins 4 and n-4 *)
  let n = 64 in
  let real = Array.init n (fun i -> cos (2.0 *. Float.pi *. 4.0 *. float_of_int i /. float_of_int n)) in
  let imag = Array.make n 0.0 in
  Sigproc.Fft.transform ~real ~imag;
  let mag k = sqrt ((real.(k) *. real.(k)) +. (imag.(k) *. imag.(k))) in
  Alcotest.(check bool) "energy at bin 4" true (mag 4 > 31.0);
  Alcotest.(check bool) "no energy at bin 7" true (mag 7 < 1e-6)

let test_fft_rejects_bad_length () =
  Alcotest.check_raises "non-power-of-2" (Invalid_argument "Fft.transform: length must be a power of 2")
    (fun () -> Sigproc.Fft.transform ~real:(Array.make 12 0.0) ~imag:(Array.make 12 0.0))

let test_lowpass_removes_high_freq () =
  let dt = 0.01 in
  let n = 512 in
  (* 2 Hz signal + 40 Hz noise; cut at 10 Hz *)
  let signal i = sin (2.0 *. Float.pi *. 2.0 *. (float_of_int i *. dt)) in
  let noisy =
    Array.init n (fun i -> signal i +. (0.5 *. sin (2.0 *. Float.pi *. 40.0 *. (float_of_int i *. dt))))
  in
  let filtered = Sigproc.Fft.lowpass ~dt ~cutoff:10.0 noisy in
  let err = ref 0.0 in
  (* ignore edges where padding bleeds in *)
  for i = 50 to n - 51 do
    err := Float.max !err (Float.abs (filtered.(i) -. signal i))
  done;
  Alcotest.(check bool) "noise removed" true (!err < 0.1)

let prop_fft_roundtrip =
  QCheck.Test.make ~name:"fft inverse recovers the input" ~count:100
    QCheck.(array_of_size (QCheck.Gen.return 32) (float_bound_exclusive 100.0))
    (fun xs ->
      let real = Array.copy xs and imag = Array.make (Array.length xs) 0.0 in
      Sigproc.Fft.transform ~real ~imag;
      Sigproc.Fft.inverse ~real ~imag;
      Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-6) xs real)

(* ---- Polyfit ---- *)

let test_polyfit_exact () =
  let coeffs = [| 2.0; -3.0; 0.5; 1.25 |] in
  let xs = Array.init 50 (fun i -> float_of_int i /. 49.0) in
  let ys = Array.map (Sigproc.Polyfit.eval coeffs) xs in
  let fit = Sigproc.Polyfit.fit ~degree:3 ~xs ~ys in
  Array.iteri (fun i c -> check_close ~eps:1e-6 "coefficient recovered" coeffs.(i) c) fit

let test_polyfit_mse_zero_on_exact () =
  let xs = Array.init 20 (fun i -> float_of_int i) in
  let ys = Array.map (fun x -> (2.0 *. x) +. 1.0) xs in
  let fit = Sigproc.Polyfit.fit ~degree:1 ~xs ~ys in
  Alcotest.(check bool) "mse ~ 0" true (Sigproc.Polyfit.mse ~coeffs:fit ~xs ~ys < 1e-12)

let test_polyfit_eval_horner () =
  check_close "horner" 20.0 (Sigproc.Polyfit.eval [| 2.0; 3.0; 1.0 |] 3.0)

let prop_polyfit_line =
  QCheck.Test.make ~name:"polyfit recovers random lines" ~count:100
    QCheck.(pair (float_range (-10.0) 10.0) (float_range (-10.0) 10.0))
    (fun (a, b) ->
      let xs = Array.init 30 (fun i -> float_of_int i /. 29.0) in
      let ys = Array.map (fun x -> a +. (b *. x)) xs in
      let fit = Sigproc.Polyfit.fit ~degree:1 ~xs ~ys in
      Float.abs (fit.(0) -. a) < 1e-6 && Float.abs (fit.(1) -. b) < 1e-6)

(* ---- Series ---- *)

let test_resample_zero_order_hold () =
  let t0, values =
    Sigproc.Series.resample ~dt:0.5 ~times:[| 0.0; 0.25; 1.0 |] ~values:[| 1.0; 2.0; 3.0 |]
  in
  check_close "t0" 0.0 t0;
  Alcotest.(check (array (float 1e-9))) "hold semantics" [| 1.0; 2.0; 3.0 |] values

let test_normalize_range () =
  let out = Sigproc.Series.normalize [| 5.0; 10.0; 7.5 |] in
  Alcotest.(check (array (float 1e-9))) "normalized" [| 0.0; 1.0; 0.5 |] out

let test_normalize_constant () =
  let out = Sigproc.Series.normalize [| 4.0; 4.0; 4.0 |] in
  Alcotest.(check (array (float 1e-9))) "constant maps to zero" [| 0.0; 0.0; 0.0 |] out

let test_sample_uniform_endpoints () =
  let xs = Array.init 100 (fun i -> float_of_int i) in
  let s = Sigproc.Series.sample_uniform ~n:10 xs in
  Alcotest.(check int) "length" 10 (Array.length s);
  check_close "first kept" 0.0 s.(0);
  check_close "last kept" 99.0 s.(9)

let test_derivative_linear () =
  let xs = Array.init 10 (fun i -> 3.0 *. float_of_int i) in
  let d = Sigproc.Series.derivative ~dt:1.0 xs in
  Array.iter (fun v -> check_close "constant slope" 3.0 v) d

let prop_normalize_bounds =
  QCheck.Test.make ~name:"normalize output is within [0,1]" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (float_range (-1e6) 1e6))
    (fun xs ->
      let out = Sigproc.Series.normalize (Array.of_list xs) in
      Array.for_all (fun x -> x >= 0.0 && x <= 1.0) out)

(* ---- Stats ---- *)

let gaussian_sample seed n =
  let rng = Netsim.Rng.create seed in
  Array.init n (fun _ -> Netsim.Rng.gaussian rng ~mean:0.0 ~std:1.0)

let test_normality_accepts_gaussian () =
  Alcotest.(check bool) "gaussian passes" true
    (Sigproc.Stats.normality_soft_pass (gaussian_sample 5 300))

let test_normality_rejects_bimodal () =
  let rng = Netsim.Rng.create 5 in
  let xs =
    Array.init 300 (fun _ ->
        (if Netsim.Rng.bool rng 0.5 then -8.0 else 8.0) +. Netsim.Rng.gaussian rng ~mean:0.0 ~std:0.3)
  in
  let k2, p = Sigproc.Stats.dagostino_k2 xs in
  Alcotest.(check bool) "k2 large" true (k2 > 10.0);
  Alcotest.(check bool) "p small" true (p < 0.01)

let test_skewness_symmetric () =
  Alcotest.(check bool) "small skew" true
    (Float.abs (Sigproc.Stats.skewness (gaussian_sample 6 5000)) < 0.1)

let test_normal_quantile_inverts_cdf () =
  List.iter
    (fun p ->
      let x = Sigproc.Stats.normal_quantile p in
      Alcotest.(check bool) "cdf(quantile p) ~ p" true
        (Float.abs (Sigproc.Stats.normal_cdf x -. p) < 1e-3))
    [ 0.01; 0.1; 0.5; 0.9; 0.99 ]

let test_erf_known_values () =
  Alcotest.(check bool) "erf 0" true (Float.abs (Sigproc.Stats.erf 0.0) < 1e-9);
  Alcotest.(check bool) "erf 1" true (Float.abs (Sigproc.Stats.erf 1.0 -. 0.8427) < 1e-3);
  Alcotest.(check bool) "erf is odd" true
    (Float.abs (Sigproc.Stats.erf (-1.0) +. Sigproc.Stats.erf 1.0) < 1e-9)

(* ---- seeded property sweeps ----

   Deterministic counterparts of the QCheck properties above: cases are
   drawn from Netsim.Rng at fixed seeds, so a failure always reproduces
   bit-for-bit (no shrinking needed — the failing case prints its index). *)

let property_cases = 100

let prop_seeded_fft_roundtrip () =
  let rng = Netsim.Rng.create 1301 in
  for case = 1 to property_cases do
    let n = 16 lsl Netsim.Rng.int rng 5 (* 16..256, powers of 2 *) in
    let xs = Array.init n (fun _ -> Netsim.Rng.uniform rng (-100.0) 100.0) in
    let real = Array.copy xs and imag = Array.make n 0.0 in
    Sigproc.Fft.transform ~real ~imag;
    Sigproc.Fft.inverse ~real ~imag;
    Array.iteri
      (fun i x ->
        if Float.abs (x -. xs.(i)) > 1e-6 then
          Alcotest.fail
            (Printf.sprintf "case %d (n=%d): sample %d drifted by %g" case n i
               (Float.abs (x -. xs.(i)))))
      real
  done

let prop_seeded_polyfit_planted () =
  let rng = Netsim.Rng.create 1303 in
  for case = 1 to property_cases do
    let degree = 1 + Netsim.Rng.int rng 3 in
    let planted =
      Array.init (degree + 1) (fun _ -> Netsim.Rng.uniform rng (-5.0) 5.0)
    in
    let xs = Array.init 60 (fun i -> float_of_int i /. 59.0) in
    let ys = Array.map (Sigproc.Polyfit.eval planted) xs in
    let fit = Sigproc.Polyfit.fit ~degree ~xs ~ys in
    Array.iteri
      (fun i c ->
        if Float.abs (c -. planted.(i)) > 1e-5 then
          Alcotest.fail
            (Printf.sprintf "case %d (degree %d): coefficient %d: planted %g, fitted %g" case
               degree i planted.(i) c))
      fit
  done

let prop_seeded_stats_invariants () =
  let rng = Netsim.Rng.create 1307 in
  for case = 1 to property_cases do
    let n = 2 + Netsim.Rng.int rng 100 in
    (* mix wide uniforms with near-constant data, the rounding-hazard case
       for the variance *)
    let base = Netsim.Rng.uniform rng (-1e6) 1e6 in
    let spread = if case mod 4 = 0 then 1e-9 else Float.abs base +. 1.0 in
    let xs =
      Array.init n (fun _ -> base +. Netsim.Rng.uniform rng (-.spread) spread)
    in
    let var = Sigproc.Series.variance xs in
    if not (var >= 0.0) then
      Alcotest.fail (Printf.sprintf "case %d: variance %g < 0" case var);
    let std = Sigproc.Series.std xs in
    if Float.abs ((std *. std) -. var) > 1e-9 *. Float.max 1.0 var then
      Alcotest.fail (Printf.sprintf "case %d: std^2 = %g but variance = %g" case (std *. std) var);
    (* quantiles: monotone in q, bounded by the extremes, median between *)
    let qs = [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 1.0 ] in
    let values = List.map (fun q -> Sigproc.Series.quantile q xs) qs in
    let rec check_monotone = function
      | a :: (b :: _ as rest) ->
        if a > b then Alcotest.fail (Printf.sprintf "case %d: quantiles not monotone" case);
        check_monotone rest
      | _ -> ()
    in
    check_monotone values;
    if Sigproc.Series.quantile 0.0 xs <> Sigproc.Series.minimum xs then
      Alcotest.fail (Printf.sprintf "case %d: quantile 0 is not the minimum" case);
    if Sigproc.Series.quantile 1.0 xs <> Sigproc.Series.maximum xs then
      Alcotest.fail (Printf.sprintf "case %d: quantile 1 is not the maximum" case)
  done

(* ---- GNB ---- *)

let test_gnb_separable () =
  let rng = Netsim.Rng.create 17 in
  let cluster mean n =
    List.init n (fun _ ->
        [| mean +. Netsim.Rng.gaussian rng ~mean:0.0 ~std:0.3;
           (2.0 *. mean) +. Netsim.Rng.gaussian rng ~mean:0.0 ~std:0.3 |])
  in
  let model = Sigproc.Gnb.fit [ ("a", cluster 0.0 50); ("b", cluster 5.0 50) ] in
  Alcotest.(check (option string)) "a classified" (Some "a")
    (Sigproc.Gnb.predict model [| 0.1; 0.2 |]);
  Alcotest.(check (option string)) "b classified" (Some "b")
    (Sigproc.Gnb.predict model [| 5.1; 9.8 |])

let test_gnb_margin_unknown () =
  let rng = Netsim.Rng.create 17 in
  let cluster mean n =
    List.init n (fun _ -> [| mean +. Netsim.Rng.gaussian rng ~mean:0.0 ~std:1.0 |])
  in
  let model = Sigproc.Gnb.fit [ ("a", cluster 0.0 50); ("b", cluster 1.0 50) ] in
  (* dead between two overlapping clusters: the margin must refuse *)
  Alcotest.(check (option string)) "ambiguous point rejected" None
    (Sigproc.Gnb.predict ~margin:1.0 model [| 0.5 |])

let test_gnb_log_likelihood_order () =
  let model =
    Sigproc.Gnb.fit
      [ ("low", [ [| 0.0 |]; [| 0.1 |]; [| -0.1 |] ]); ("high", [ [| 10.0 |]; [| 10.1 |]; [| 9.9 |] ]) ]
  in
  match Sigproc.Gnb.log_likelihoods model [| 0.0 |] with
  | (best, _) :: _ -> Alcotest.(check string) "sorted most likely first" "low" best
  | [] -> Alcotest.fail "no likelihoods"

(* scoring once and deciding from the scores is the same rule as predict,
   and the score it returns is the winner's log-likelihood *)
let test_gnb_decide_matches_predict () =
  let rng = Netsim.Rng.create 29 in
  let cluster mean n =
    List.init n (fun _ ->
        [| mean +. Netsim.Rng.gaussian rng ~mean:0.0 ~std:1.0;
           mean -. Netsim.Rng.gaussian rng ~mean:0.0 ~std:0.5 |])
  in
  let model =
    Sigproc.Gnb.fit [ ("a", cluster 0.0 40); ("b", cluster 1.5 40); ("c", cluster 4.0 40) ]
  in
  for i = 0 to 200 do
    let x = [| (float_of_int i /. 40.0) -. 1.0; 2.0 -. (float_of_int i /. 50.0) |] in
    let scores = Sigproc.Gnb.log_likelihoods model x in
    List.iter
      (fun margin ->
        let decided = Sigproc.Gnb.decide ~margin scores in
        Alcotest.(check (option string)) "same label" (Sigproc.Gnb.predict ~margin model x)
          (Option.map fst decided);
        Option.iter
          (fun (label, ll) ->
            Alcotest.(check int64) "winner's score" (Int64.bits_of_float (List.assoc label scores))
              (Int64.bits_of_float ll))
          decided)
      [ 0.0; 0.5; 2.0 ]
  done

let test_gnb_rejects_dim_mismatch () =
  let model = Sigproc.Gnb.fit [ ("a", [ [| 0.0 |]; [| 1.0 |] ]); ("b", [ [| 5.0 |]; [| 6.0 |] ]) ] in
  Alcotest.check_raises "mismatch" (Invalid_argument "Gnb.log_likelihoods: dimension mismatch")
    (fun () -> ignore (Sigproc.Gnb.log_likelihoods model [| 0.0; 1.0 |]))

(* ---- Order statistics ---- *)

(* Small integers (runs of duplicates), signed zeros, nan and the
   infinities, mixed with wide uniforms; lengths from 1. *)
let order_stat_arb =
  QCheck.make
    ~print:QCheck.Print.(array float)
    QCheck.Gen.(
      array_size (int_range 1 64)
        (frequency
           [
             (4, map float_of_int (int_range (-3) 3));
             (1, return 0.0);
             (1, return (-0.0));
             (1, return nan);
             (1, return infinity);
             (1, return neg_infinity);
             (4, float_range (-1e6) 1e6);
           ]))

let prop_select_matches_sort =
  QCheck.Test.make ~name:"select, median and quantile match a full sort" ~count:300
    order_stat_arb (fun xs ->
      let eq a b = Float.compare a b = 0 in
      let orig = Array.copy xs in
      let sorted = Array.copy xs in
      Array.sort Float.compare sorted;
      let n = Array.length xs in
      let every_rank =
        List.for_all (fun k -> eq (Sigproc.Series.select k xs) sorted.(k)) (List.init n Fun.id)
      in
      let median =
        if n mod 2 = 1 then sorted.(n / 2) else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.0
      in
      let quantile q =
        let pos = q *. float_of_int (n - 1) in
        let lo = int_of_float pos in
        let frac = pos -. float_of_int lo in
        (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(min (n - 1) (lo + 1)) *. frac)
      in
      every_rank
      && eq (Sigproc.Series.median xs) median
      && List.for_all
           (fun q -> eq (Sigproc.Series.quantile q xs) (quantile q))
           [ 0.0; 0.05; 0.25; 0.5; 0.9; 0.95; 1.0 ]
      && Array.for_all2 eq orig xs)

let test_select_rejects_bad_rank () =
  Alcotest.check_raises "rank = length" (Invalid_argument "Series.select: rank out of bounds")
    (fun () -> ignore (Sigproc.Series.select 3 [| 1.0; 2.0; 3.0 |]));
  Alcotest.check_raises "empty" (Invalid_argument "Series.select: rank out of bounds") (fun () ->
      ignore (Sigproc.Series.select 0 [||]));
  check_close "median of nothing" 0.0 (Sigproc.Series.median [||])

(* One basis over the abscissae, every degree solved from its sums: the
   same bits as [Polyfit.fit]'s own per-point accumulation for each
   degree, for scattered abscissae and for the uniform grid the shape
   features use. *)
let prop_polyfit_shared_sums =
  QCheck.Test.make ~name:"shared power sums fit bit for bit" ~count:200
    QCheck.(
      pair bool
        (list_of_size (Gen.int_range 1 80)
           (pair (float_range (-2.0) 2.0) (float_range (-1e3) 1e3))))
    (fun (grid, pts) ->
      let n = List.length pts in
      let xs =
        if grid then Array.init n (fun i -> float_of_int i /. float_of_int (max 1 (n - 1)))
        else Array.of_list (List.map fst pts)
      in
      let ys = Array.of_list (List.map snd pts) in
      let shared = Sigproc.Polyfit.fit_each (Sigproc.Polyfit.basis ~max_degree:3 xs) ~ys in
      let bits c = Array.map Int64.bits_of_float c in
      Array.length shared = 3
      && List.for_all
           (fun degree -> bits shared.(degree - 1) = bits (Sigproc.Polyfit.fit ~degree ~xs ~ys))
           [ 1; 2; 3 ])

let suite =
  [
    Alcotest.test_case "fft roundtrips" `Quick test_fft_roundtrip;
    Alcotest.test_case "fft concentrates a pure tone" `Quick test_fft_pure_tone;
    Alcotest.test_case "fft rejects non-power-of-2 input" `Quick test_fft_rejects_bad_length;
    Alcotest.test_case "lowpass removes high frequencies" `Quick test_lowpass_removes_high_freq;
    QCheck_alcotest.to_alcotest prop_fft_roundtrip;
    Alcotest.test_case "polyfit recovers exact cubic" `Quick test_polyfit_exact;
    Alcotest.test_case "polyfit mse vanishes on exact data" `Quick test_polyfit_mse_zero_on_exact;
    Alcotest.test_case "polyfit eval uses Horner correctly" `Quick test_polyfit_eval_horner;
    QCheck_alcotest.to_alcotest prop_polyfit_line;
    Alcotest.test_case "resample holds previous value" `Quick test_resample_zero_order_hold;
    Alcotest.test_case "normalize maps to [0,1]" `Quick test_normalize_range;
    Alcotest.test_case "normalize handles constants" `Quick test_normalize_constant;
    Alcotest.test_case "uniform sampling keeps endpoints" `Quick test_sample_uniform_endpoints;
    Alcotest.test_case "derivative of a line is its slope" `Quick test_derivative_linear;
    QCheck_alcotest.to_alcotest prop_normalize_bounds;
    Alcotest.test_case "seeded sweep: fft roundtrip over random signals" `Quick
      prop_seeded_fft_roundtrip;
    Alcotest.test_case "seeded sweep: polyfit recovers planted polynomials" `Quick
      prop_seeded_polyfit_planted;
    Alcotest.test_case "seeded sweep: variance and quantile invariants" `Quick
      prop_seeded_stats_invariants;
    Alcotest.test_case "normality tests accept gaussians" `Quick test_normality_accepts_gaussian;
    Alcotest.test_case "normality tests reject bimodal data" `Quick test_normality_rejects_bimodal;
    Alcotest.test_case "skewness of symmetric data is small" `Quick test_skewness_symmetric;
    Alcotest.test_case "normal quantile inverts the cdf" `Quick test_normal_quantile_inverts_cdf;
    Alcotest.test_case "erf matches known values" `Quick test_erf_known_values;
    Alcotest.test_case "gnb separates distinct clusters" `Quick test_gnb_separable;
    Alcotest.test_case "gnb margin refuses ambiguity" `Quick test_gnb_margin_unknown;
    Alcotest.test_case "gnb ranks likelihoods" `Quick test_gnb_log_likelihood_order;
    Alcotest.test_case "gnb checks dimensions" `Quick test_gnb_rejects_dim_mismatch;
    QCheck_alcotest.to_alcotest prop_select_matches_sort;
    Alcotest.test_case "select rejects ranks out of bounds" `Quick test_select_rejects_bad_rank;
    QCheck_alcotest.to_alcotest prop_polyfit_shared_sums;
    Alcotest.test_case "gnb decide agrees with predict" `Quick test_gnb_decide_matches_predict;
  ]

(* Obs.Histogram: log2-bucketed mergeable histograms. The properties
   that matter downstream: merging is lossless at the bucket level (so
   pool workers can drain/absorb without skew at any domain count),
   quantile estimates stay within one octave of truth, and the JSON form
   round-trips byte-identically (the serve status file diffs on it). *)

let observe_all h vs = List.iter (Obs.Histogram.observe h) vs

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* a planted mix spanning several octaves, plus awkward values *)
let planted =
  [ 0.75; 1.0; 1.5; 2.0; 3.0; 5.0; 8.0; 13.0; 100.0; 1000.0; 1024.0; 0.001 ]

let test_counts_and_extrema () =
  let h = Obs.Histogram.create ~name:"t" () in
  Alcotest.(check int) "empty count" 0 (Obs.Histogram.count h);
  Alcotest.(check bool) "empty min is nan" true (Float.is_nan (Obs.Histogram.min_value h));
  Alcotest.(check bool) "empty quantile is nan" true
    (Float.is_nan (Obs.Histogram.quantile h 0.5));
  observe_all h planted;
  Alcotest.(check int) "count" (List.length planted) (Obs.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" (List.fold_left ( +. ) 0.0 planted)
    (Obs.Histogram.sum h);
  Alcotest.(check (float 1e-9)) "min" 0.001 (Obs.Histogram.min_value h);
  Alcotest.(check (float 1e-9)) "max" 1024.0 (Obs.Histogram.max_value h)

let test_single_value_exact () =
  let h = Obs.Histogram.create () in
  Obs.Histogram.observe h 42.0;
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "single value is exact at q=%g" q)
        42.0 (Obs.Histogram.quantile h q))
    [ 0.0; 0.5; 0.99; 1.0 ]

let test_quantile_within_octave () =
  (* every quantile estimate must be within a factor of 2 (one octave)
     of the exact rank statistic, clamped to range. Uniform 1..1000, and
     a bimodal mix (its p50/p99 modes are pinned tighter by the obs
     suite's "histogram percentiles (bimodal)"). *)
  let uniform = List.init 1000 (fun i -> float_of_int (i + 1)) in
  let bimodal = List.init 90 (fun _ -> 0.001) @ List.init 10 (fun _ -> 10.0) in
  List.iter
    (fun (label, values) ->
      let h = Obs.Histogram.create () in
      observe_all h values;
      let sorted = Array.of_list (List.sort compare values) in
      let n = Array.length sorted in
      List.iter
        (fun q ->
          let exact = sorted.(int_of_float (Float.round (q *. float_of_int (n - 1)))) in
          let est = Obs.Histogram.quantile h q in
          Alcotest.(check bool)
            (Printf.sprintf "%s q=%g estimate %g within 2x of %g" label q est exact)
            true
            (est >= exact /. 2.0 && est <= exact *. 2.0))
        [ 0.5; 0.9; 0.99 ];
      Alcotest.(check bool)
        (label ^ ": q=1 clamps to max") true
        (Obs.Histogram.quantile h 1.0 <= sorted.(n - 1)))
    [ ("uniform", uniform); ("bimodal", bimodal) ]

let test_underflow_bucket () =
  let h = Obs.Histogram.create () in
  observe_all h [ 0.0; -5.0; Float.nan; Float.infinity; 4.0 ];
  Alcotest.(check int) "every value counted" 5 (Obs.Histogram.count h);
  match Obs.Histogram.buckets h with
  | (_, weird) :: _ -> Alcotest.(check int) "underflow bucket sorts first" 4 weird
  | [] -> Alcotest.fail "expected buckets"

(* merge losslessness under the pool's drain/absorb at every worker
   count: N domains each observe a disjoint slice into their own
   registry; after the pool joins (absorbing every drain), the collector
   registry must hold exactly the buckets of a single-domain run. *)
let test_merge_lossless_across_domains () =
  let values = List.init 64 (fun i -> 0.5 +. (float_of_int i *. 1.7)) in
  let reference = Obs.Histogram.create ~name:"pool.test" () in
  observe_all reference values;
  List.iter
    (fun jobs ->
      Obs.Histogram.reset ();
      ignore
        (Engine.Pool.map ~jobs
           (fun v -> Obs.Histogram.observe (Obs.Histogram.get "pool.test") v)
           (Array.of_list values));
      let merged = Obs.Histogram.get "pool.test" in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "buckets identical at jobs=%d" jobs)
        (Obs.Histogram.buckets reference)
        (Obs.Histogram.buckets merged);
      Alcotest.(check int)
        (Printf.sprintf "count identical at jobs=%d" jobs)
        (Obs.Histogram.count reference) (Obs.Histogram.count merged);
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "sum identical at jobs=%d" jobs)
        (Obs.Histogram.sum reference) (Obs.Histogram.sum merged);
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "extrema identical at jobs=%d" jobs)
        (Obs.Histogram.max_value reference)
        (Obs.Histogram.max_value merged);
      Obs.Histogram.reset ())
    [ 1; 2; 4; 8 ]

let test_merge_into_manual () =
  let a = Obs.Histogram.create ~name:"m" () and b = Obs.Histogram.create () in
  observe_all a [ 1.0; 2.0 ];
  observe_all b [ 4.0; 8.0; 0.5 ];
  Obs.Histogram.merge_into ~dst:a b;
  let direct = Obs.Histogram.create () in
  observe_all direct [ 1.0; 2.0; 4.0; 8.0; 0.5 ];
  Alcotest.(check (list (pair int int)))
    "merged buckets equal direct observation" (Obs.Histogram.buckets direct)
    (Obs.Histogram.buckets a);
  Alcotest.(check int) "source unchanged" 3 (Obs.Histogram.count b)

let test_json_round_trip () =
  let h = Obs.Histogram.create ~name:"rt" () in
  observe_all h (planted @ [ 0.0; -1.0 ]);
  let once = Obs.Json.to_string (Obs.Histogram.to_json h) in
  let again =
    Obs.Json.to_string (Obs.Histogram.to_json (Obs.Histogram.of_json (Obs.Json.of_string once)))
  in
  Alcotest.(check string) "serialize-parse-serialize byte identical" once again;
  let empty = Obs.Histogram.create ~name:"empty" () in
  let e_once = Obs.Json.to_string (Obs.Histogram.to_json empty) in
  let e_again =
    Obs.Json.to_string
      (Obs.Histogram.to_json (Obs.Histogram.of_json (Obs.Json.of_string e_once)))
  in
  Alcotest.(check string) "empty histogram round-trips" e_once e_again

let test_render () =
  let empty = Obs.Histogram.create ~name:"nothing.yet" () in
  let text = Obs.Histogram.render [ empty ] in
  Alcotest.(check bool) "empty histogram renders dashes" true
    (contains ~needle:"-" text);
  Alcotest.(check bool) "names the histogram" true
    (contains ~needle:"nothing.yet" text);
  let none = Obs.Histogram.render [] in
  Alcotest.(check bool) "empty list renders a note" true
    (contains ~needle:"no histograms" none);
  let h = Obs.Histogram.create ~name:"busy" () in
  observe_all h planted;
  let t1 = Obs.Histogram.render [ h ] in
  Alcotest.(check string) "render is a pure function" t1 (Obs.Histogram.render [ h ])

(* the tail-inflation regression: a 16-observation histogram whose
   values all land in one high octave used to report the bucket
   three-quarter point (e.g. p99 = 1572864 us for a 16-task census)
   regardless of where the mass actually sat. Interpolation must spread
   estimates across the bucket and never exceed the observed range. *)
let test_quantile_interpolates_within_bucket () =
  let h = Obs.Histogram.create () in
  (* all four in bucket [1024, 2048) *)
  observe_all h [ 1100.0; 1300.0; 1600.0; 2000.0 ];
  let q0 = Obs.Histogram.quantile h 0.0 and q1 = Obs.Histogram.quantile h 1.0 in
  Alcotest.(check bool) "low and high quantiles differ inside one bucket" true (q0 < q1);
  List.iter
    (fun q ->
      let est = Obs.Histogram.quantile h q in
      Alcotest.(check bool)
        (Printf.sprintf "q=%g estimate %g within observed range" q est)
        true
        (est >= 1100.0 && est <= 2000.0))
    [ 0.0; 0.25; 0.5; 0.75; 0.99; 1.0 ];
  (* monotone in q *)
  let prev = ref neg_infinity in
  List.iter
    (fun q ->
      let est = Obs.Histogram.quantile h q in
      Alcotest.(check bool) (Printf.sprintf "monotone at q=%g" q) true (est >= !prev);
      prev := est)
    [ 0.0; 0.1; 0.3; 0.5; 0.7; 0.9; 1.0 ]

let test_quantile_ub_bounds () =
  let h = Obs.Histogram.create () in
  observe_all h [ 3.0; 5.0 ];
  (* rank 1 sits in bucket (2,4]: ub is the bucket top; rank 2 sits in
     (4,8] but the ub clamps to the observed max *)
  Alcotest.(check (float 1e-9)) "q=0 bucket upper bound" 4.0
    (Obs.Histogram.quantile_ub h 0.0);
  Alcotest.(check (float 1e-9)) "q=1 clamps to max" 5.0 (Obs.Histogram.quantile_ub h 1.0);
  Alcotest.(check bool) "empty ub is nan" true
    (Float.is_nan (Obs.Histogram.quantile_ub (Obs.Histogram.create ()) 0.5));
  (* the interpolated estimate never exceeds its own upper bound *)
  let big = Obs.Histogram.create () in
  observe_all big (List.init 100 (fun i -> 1.0 +. (float_of_int i *. 17.3)));
  List.iter
    (fun q ->
      Alcotest.(check bool)
        (Printf.sprintf "quantile <= quantile_ub at q=%g" q)
        true
        (Obs.Histogram.quantile big q <= Obs.Histogram.quantile_ub big q +. 1e-9))
    [ 0.0; 0.5; 0.9; 0.99; 1.0 ]

let test_registry () =
  Obs.Histogram.reset ();
  let h = Obs.Histogram.get "reg.a" in
  Obs.Histogram.observe h 3.0;
  Alcotest.(check bool) "get returns the same histogram" true
    (Obs.Histogram.get "reg.a" == h);
  Alcotest.(check int) "all sees it" 1 (List.length (Obs.Histogram.all ()));
  let drained = Obs.Histogram.drain () in
  Alcotest.(check int) "drain empties the registry" 0 (List.length (Obs.Histogram.all ()));
  Obs.Histogram.absorb drained;
  Alcotest.(check int) "absorb restores the count" 1
    (Obs.Histogram.count (Obs.Histogram.get "reg.a"));
  Obs.Histogram.reset ()

let suite =
  [
    Alcotest.test_case "counts, sum, extrema, empty nan" `Quick test_counts_and_extrema;
    Alcotest.test_case "single value quantiles are exact" `Quick test_single_value_exact;
    Alcotest.test_case "quantiles within one octave on uniform data" `Quick
      test_quantile_within_octave;
    Alcotest.test_case "non-positive and non-finite values underflow" `Quick
      test_underflow_bucket;
    Alcotest.test_case "merge lossless under pool drain/absorb (jobs 1/2/4/8)" `Quick
      test_merge_lossless_across_domains;
    Alcotest.test_case "merge_into equals direct observation" `Quick test_merge_into_manual;
    Alcotest.test_case "JSON round-trip byte identity" `Quick test_json_round_trip;
    Alcotest.test_case "render: empty dashes, empty-list note, purity" `Quick test_render;
    Alcotest.test_case "quantiles interpolate within a bucket (tail regression)" `Quick
      test_quantile_interpolates_within_bucket;
    Alcotest.test_case "quantile_ub bounds the interpolated estimate" `Quick
      test_quantile_ub_bounds;
    Alcotest.test_case "registry get/all/drain/absorb" `Quick test_registry;
  ]

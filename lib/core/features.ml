type t = {
  coeffs : float array;
  degree : int;
  intercept : float;
  mse : float;
  score : float;
  duration : float;
  drop_frac : float;
  amp_ratio : float;
}

let sample_points = 200 (* as in the paper *)
let lambda = 0.7
let dimensions = 9

(* the fixed abscissae every segment is fitted over, with their power
   sums for degrees 1-3 *)
let sample_xs =
  Array.init sample_points (fun i -> float_of_int i /. float_of_int (sample_points - 1))

let basis = Sigproc.Polyfit.basis ~max_degree:3 sample_xs

let of_segment (seg : Pipeline.segment) =
  if Array.length seg.values < 4 || seg.duration <= 0.0 then None
  else begin
    let ys = Sigproc.Series.sample_uniform ~n:sample_points (Sigproc.Series.normalize seg.values) in
    let fits = Sigproc.Polyfit.fit_each basis ~ys in
    let candidates =
      List.map
        (fun degree ->
          let c = fits.(degree - 1) in
          let mse = Sigproc.Polyfit.mse ~coeffs:c ~xs:sample_xs ~ys in
          let score = mse *. (1.0 +. (lambda *. float_of_int degree)) in
          (degree, c, mse, score))
        [ 1; 2; 3 ]
    in
    let degree, c, mse, score =
      List.fold_left
        (fun ((_, _, _, best_score) as best) ((_, _, _, s) as cand) ->
          if s < best_score then cand else best)
        (List.hd candidates) (List.tl candidates)
    in
    let coeffs = Array.make 3 0.0 in
    Array.iteri (fun i x -> if i >= 1 && i <= 3 then coeffs.(i - 1) <- x) c;
    let amp_ratio =
      if seg.raw_max > 0.0 then (seg.raw_max -. seg.raw_min) /. seg.raw_max else 0.0
    in
    Some
      {
        coeffs;
        degree;
        intercept = c.(0);
        mse;
        score;
        duration = seg.duration;
        drop_frac = seg.drop_frac;
        amp_ratio;
      }
  end

(* The raw cubic coefficients are ill-conditioned under noise; the fitted
   curve itself is stable. Describe the shape by the fit evaluated at fixed
   abscissae, plus periodicity and back-off depth. *)
let shape_xs = [| 0.125; 0.3; 0.5; 0.7; 0.875 |]

let vector ~rtt f =
  let full = Array.append [| f.intercept |] f.coeffs in
  let at x = Sigproc.Polyfit.eval full x in
  Array.append
    (Array.map at shape_xs)
    [|
      log10 (Float.max 1e-3 (f.duration /. rtt));
      f.drop_frac;
      f.amp_ratio;
      float_of_int f.degree;
    |]

(* Mean feature vector over every usable segment of a prepared trace: the
   trace-level evidence combination used by the loss-based classifier. *)
let compute_trace_vector (p : Pipeline.t) =
  let vecs =
    List.filter_map
      (fun seg -> Option.map (vector ~rtt:p.Pipeline.rtt) (of_segment seg))
      p.Pipeline.segments
  in
  match vecs with
  | [] -> None
  | first :: _ ->
    let d = Array.length first in
    let mean = Array.make d 0.0 in
    List.iter (Array.iteri (fun i x -> mean.(i) <- mean.(i) +. x)) vecs;
    Some (Array.map (fun x -> x /. float_of_int (List.length vecs)) mean)

(* The per-segment polynomial fits behind the vector are the most
   expensive part of classification, and a provenance-collecting
   measurement extracts the same vector three times (loss verdict, joint
   score list, report features). Cache it per prepared trace in a
   {!Recent} cache keyed by the trace's smoothed series. A measurement
   holds one trace per profile, so a few keys cover it; each cached key
   keeps a whole series alive. The cached vector is copied on return so
   callers can never alias each other's arrays. *)
let vector_cache : (float array, float array option) Recent.t = Recent.create 4

let trace_vector (p : Pipeline.t) =
  Option.map Array.copy
    (Recent.find_or_add vector_cache p.Pipeline.smoothed (fun () -> compute_trace_vector p))

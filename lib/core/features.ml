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

let of_segment (seg : Pipeline.segment) =
  if Array.length seg.values < 4 || seg.duration <= 0.0 then None
  else begin
    let ys = Sigproc.Series.sample_uniform ~n:sample_points (Sigproc.Series.normalize seg.values) in
    let xs = Array.init sample_points (fun i -> float_of_int i /. float_of_int (sample_points - 1)) in
    let candidates =
      List.map
        (fun degree ->
          let c = Sigproc.Polyfit.fit ~degree ~xs ~ys in
          let mse = Sigproc.Polyfit.mse ~coeffs:c ~xs ~ys in
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
   score list, report features). Cache it per prepared trace, keyed by
   physical identity of its smoothed series, in a domain-local
   ephemeron-keyed table: workers never contend and dropping a pipeline
   still lets it be collected. The cached vector is copied on return so
   callers can never alias each other's arrays. *)
module Pipe_key = struct
  type t = float array

  let equal = ( == )
  let hash = Hashtbl.hash
end

module Pipe_memo = Ephemeron.K1.Make (Pipe_key)

let vector_memo : float array option Pipe_memo.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Pipe_memo.create 64)

let trace_vector (p : Pipeline.t) =
  let tbl = Domain.DLS.get vector_memo in
  let cached =
    match Pipe_memo.find_opt tbl p.Pipeline.smoothed with
    | Some v -> v
    | None ->
      let v = compute_trace_vector p in
      Pipe_memo.replace tbl p.Pipeline.smoothed v;
      v
  in
  Option.map Array.copy cached

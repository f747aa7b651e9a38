(* Log2-bucketed mergeable histograms. See histogram.mli for the
   contract; the representation is one count per power-of-two octave:
   bucket e holds values in [2^(e-1), 2^e), straight off Float.frexp.
   Exponents are exact integers, so merging is pure bucket-count
   addition — no re-quantization, hence "lossless" in the sense that a
   merged histogram equals one that saw every observation itself. *)

(* non-positive and non-finite values share a dedicated underflow bucket *)
let underflow_bucket = min_int

type t = {
  h_name : string;
  mutable n : int;
  mutable total : float;
  mutable lo : float;
  mutable hi : float;
  cells : (int, int ref) Hashtbl.t;
}

let create ?(name = "") () =
  { h_name = name; n = 0; total = 0.0; lo = infinity; hi = neg_infinity;
    cells = Hashtbl.create 8 }

let name h = h.h_name
let count h = h.n
let sum h = h.total
let min_value h = if h.n = 0 then Float.nan else h.lo
let max_value h = if h.n = 0 then Float.nan else h.hi

let bucket_of v =
  if v <= 0.0 || not (Float.is_finite v) then underflow_bucket
  else snd (Float.frexp v) (* v = m * 2^e, m in [0.5, 1) -> bucket e *)

let bucket_ub e = if e = underflow_bucket then 0.0 else Float.ldexp 1.0 e

let observe h v =
  h.n <- h.n + 1;
  h.total <- h.total +. v;
  if v < h.lo then h.lo <- v;
  if v > h.hi then h.hi <- v;
  let b = bucket_of v in
  match Hashtbl.find_opt h.cells b with
  | Some r -> incr r
  | None -> Hashtbl.replace h.cells b (ref 1)

let buckets h =
  Hashtbl.fold (fun e r acc -> (e, !r) :: acc) h.cells []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* The bucket holding the ranked observation, as (exponent, rank
   position within the bucket): walk the cells in exponent order until
   the cumulative count covers the rank. *)
let holding_bucket h rank =
  let rec walk seen = function
    | [] -> (bucket_of h.hi, 1, 1)
    | [ (e, c) ] -> (e, rank - seen, c)
    | (e, c) :: rest -> if seen + c >= rank then (e, rank - seen, c) else walk (seen + c) rest
  in
  walk 0 (buckets h)

let rank_of h q =
  let q = Float.max 0.0 (Float.min 1.0 q) in
  int_of_float (Float.round (q *. float_of_int (h.n - 1))) + 1

let quantile h q =
  if h.n = 0 then Float.nan
  else begin
    let e, pos, c = holding_bucket h (rank_of h q) in
    if e = underflow_bucket then 0.0
    else begin
      (* geometric interpolation across [2^(e-1), 2^e): place the
         centered rank (pos - 1/2)/c as a fraction of the octave, so a
         lone observation lands on the geometric midpoint instead of
         the bucket's upper half — the old midpoint rule overstated
         sparse tails by up to 2x. *)
      let frac = (float_of_int pos -. 0.5) /. float_of_int c in
      let v = Float.ldexp 1.0 (e - 1) *. Float.exp2 frac in
      Float.max h.lo (Float.min h.hi v)
    end
  end

let quantile_ub h q =
  if h.n = 0 then Float.nan
  else begin
    let e, _, _ = holding_bucket h (rank_of h q) in
    Float.min (bucket_ub e) h.hi
  end

let merge_into ~dst src =
  dst.n <- dst.n + src.n;
  dst.total <- dst.total +. src.total;
  if src.lo < dst.lo then dst.lo <- src.lo;
  if src.hi > dst.hi then dst.hi <- src.hi;
  Hashtbl.iter
    (fun e r ->
      match Hashtbl.find_opt dst.cells e with
      | Some d -> d := !d + !r
      | None -> Hashtbl.replace dst.cells e (ref !r))
    src.cells

(* registry ---------------------------------------------------------------- *)

let registry_key : (string, t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)

let registry () = Domain.DLS.get registry_key

let get name =
  let registry = registry () in
  match Hashtbl.find_opt registry name with
  | Some h -> h
  | None ->
    let h = create ~name () in
    Hashtbl.replace registry name h;
    h

let find name = Hashtbl.find_opt (registry ()) name

let all () =
  Hashtbl.fold (fun _ h acc -> h :: acc) (registry ()) []
  |> List.sort (fun a b -> compare a.h_name b.h_name)

let reset () = Hashtbl.reset (registry ())

let drain () =
  let hs = all () in
  reset ();
  hs

let absorb hs = List.iter (fun h -> merge_into ~dst:(get h.h_name) h) hs

(* serialization ----------------------------------------------------------- *)

let to_json h =
  Json.Obj
    [
      ("kind", Json.Str "histogram");
      ("name", Json.Str h.h_name);
      ("count", Json.Num (float_of_int h.n));
      ("sum", Json.Num h.total);
      ("min", if h.n = 0 then Json.Null else Json.Num h.lo);
      ("max", if h.n = 0 then Json.Null else Json.Num h.hi);
      ( "buckets",
        Json.Arr
          (List.map
             (fun (e, c) ->
               Json.Arr
                 [
                   (* the underflow bucket serializes as null: min_int is
                      not representable as a float exponent *)
                   (if e = underflow_bucket then Json.Null
                    else Json.Num (float_of_int e));
                   Json.Num (float_of_int c);
                 ])
             (buckets h)) );
    ]

let ctx = "histogram"
let shape_error what = Json.shape_error ctx ("bad " ^ what)

let of_json j =
  let num k = Json.get_num ctx k j in
  let opt_num k =
    match Json.field ctx k j with Json.Null -> None | x -> Some (Json.num ctx x)
  in
  if Json.get_str ctx "kind" j <> "histogram" then shape_error "kind";
  let h = create ~name:(Json.get_str ctx "name" j) () in
  h.n <- int_of_float (num "count");
  h.total <- num "sum";
  h.lo <- (match opt_num "min" with Some x -> x | None -> infinity);
  h.hi <- (match opt_num "max" with Some x -> x | None -> neg_infinity);
  (match Json.member "buckets" j with
  | Some (Json.Arr pairs) ->
    List.iter
      (function
        | Json.Arr [ e; Json.Num c ] ->
          let e =
            match e with
            | Json.Null -> underflow_bucket
            | Json.Num x -> int_of_float x
            | _ -> shape_error "bucket exponent"
          in
          Hashtbl.replace h.cells e (ref (int_of_float c))
        | _ -> shape_error "bucket pair")
      pairs
  | _ -> shape_error "buckets");
  h

(* rendering --------------------------------------------------------------- *)

let render hs =
  if hs = [] then "(no histograms recorded)\n"
  else begin
    let buf = Buffer.create 512 in
    Buffer.add_string buf
      (Printf.sprintf "%-32s %8s %11s %10s %10s %10s %10s\n" "histogram" "count" "sum"
         "p50" "p90" "p99" "max");
    List.iter
      (fun h ->
        let cell v = if h.n = 0 then "-" else Printf.sprintf "%.4g" v in
        Buffer.add_string buf
          (Printf.sprintf "%-32s %8d %11.4g %10s %10s %10s %10s\n" h.h_name h.n h.total
             (cell (quantile h 0.50)) (cell (quantile h 0.90)) (cell (quantile h 0.99))
             (cell (max_value h))))
      hs;
    Buffer.contents buf
  end

(* Horner's rule as a loop: a recursive helper would box its float
   accumulator at every step *)
let eval coeffs x =
  let acc = ref 0.0 in
  for i = Array.length coeffs - 1 downto 0 do
    acc := (!acc *. x) +. coeffs.(i)
  done;
  !acc

let solve a b =
  (* in-place Gaussian elimination with partial pivoting *)
  let n = Array.length b in
  for col = 0 to n - 1 do
    let pivot = ref col in
    for row = col + 1 to n - 1 do
      if Float.abs a.(row).(col) > Float.abs a.(!pivot).(col) then pivot := row
    done;
    if !pivot <> col then begin
      let tmp = a.(col) in
      a.(col) <- a.(!pivot);
      a.(!pivot) <- tmp;
      let tb = b.(col) in
      b.(col) <- b.(!pivot);
      b.(!pivot) <- tb
    end;
    let diag = a.(col).(col) in
    if Float.abs diag > 1e-12 then
      for row = col + 1 to n - 1 do
        let factor = a.(row).(col) /. diag in
        for k = col to n - 1 do
          a.(row).(k) <- a.(row).(k) -. (factor *. a.(col).(k))
        done;
        b.(row) <- b.(row) -. (factor *. b.(col))
      done
  done;
  let x = Array.make n 0.0 in
  for row = n - 1 downto 0 do
    let s = ref b.(row) in
    for k = row + 1 to n - 1 do
      s := !s -. (a.(row).(k) *. x.(k))
    done;
    x.(row) <- (if Float.abs a.(row).(row) > 1e-12 then !s /. a.(row).(row) else 0.0)
  done;
  x

let fit ~degree ~xs ~ys =
  let n = Array.length xs in
  if n = 0 || Array.length ys <> n then invalid_arg "Polyfit.fit";
  let m = degree + 1 in
  (* normal equations: (V^T V) c = V^T y, with V the Vandermonde matrix *)
  let ata = Array.make_matrix m m 0.0 in
  let atb = Array.make m 0.0 in
  for p = 0 to n - 1 do
    let powers = Array.make (2 * m) 1.0 in
    for k = 1 to (2 * m) - 1 do
      powers.(k) <- powers.(k - 1) *. xs.(p)
    done;
    for i = 0 to m - 1 do
      for j = 0 to m - 1 do
        ata.(i).(j) <- ata.(i).(j) +. powers.(i + j)
      done;
      atb.(i) <- atb.(i) +. (powers.(i) *. ys.(p))
    done
  done;
  solve ata atb

(* In [fit], (V^T V)_ij is the power sum S_(i+j) = sum x^(i+j) and
   (V^T y)_i the moment sum sum x^i y, each accumulated point by point in
   index order. A basis holds the S_k of fixed abscissae, so fits of every
   degree up to [max_degree] over them share one set, accumulated in the
   same order and so bit-identical to [fit]'s. *)
type basis = { xs : float array; max_degree : int; power_sums : float array }

(* [1; x; ...; x^(len - 1)], each power one multiplication from the last *)
let powers_into powers x =
  powers.(0) <- 1.0;
  for k = 1 to Array.length powers - 1 do
    powers.(k) <- powers.(k - 1) *. x
  done

let basis ~max_degree xs =
  if Array.length xs = 0 || max_degree < 0 then invalid_arg "Polyfit.basis";
  let power_sums = Array.make ((2 * max_degree) + 1) 0.0 in
  let powers = Array.make ((2 * max_degree) + 1) 1.0 in
  Array.iter
    (fun x ->
      powers_into powers x;
      for k = 0 to 2 * max_degree do
        power_sums.(k) <- power_sums.(k) +. powers.(k)
      done)
    xs;
  { xs; max_degree; power_sums }

let moments b ~ys =
  let n = Array.length b.xs in
  if Array.length ys <> n then invalid_arg "Polyfit.fit_each";
  let m = b.max_degree + 1 in
  let atb = Array.make m 0.0 in
  let powers = Array.make m 1.0 in
  for p = 0 to n - 1 do
    powers_into powers b.xs.(p);
    for i = 0 to m - 1 do
      atb.(i) <- atb.(i) +. (powers.(i) *. ys.(p))
    done
  done;
  atb

let fit_each b ~ys =
  let atb = moments b ~ys in
  (* the degree-d system is the leading (d + 1) x (d + 1) block *)
  Array.init b.max_degree (fun d ->
      let m = d + 2 in
      let ata = Array.init m (fun i -> Array.init m (fun j -> b.power_sums.(i + j))) in
      solve ata (Array.sub atb 0 m))

let mse ~coeffs ~xs ~ys =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      let e = eval coeffs xs.(i) -. ys.(i) in
      acc := !acc +. (e *. e)
    done;
    !acc /. float_of_int n
  end

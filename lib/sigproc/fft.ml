let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let is_pow2 n = n > 0 && n land (n - 1) = 0

let transform ~real ~imag =
  let n = Array.length real in
  if Array.length imag <> n then invalid_arg "Fft.transform: length mismatch";
  if not (is_pow2 n) then invalid_arg "Fft.transform: length must be a power of 2";
  (* bit-reversal permutation *)
  let j = ref 0 in
  for i = 0 to n - 2 do
    if i < !j then begin
      let tr = real.(i) in
      real.(i) <- real.(!j);
      real.(!j) <- tr;
      let ti = imag.(i) in
      imag.(i) <- imag.(!j);
      imag.(!j) <- ti
    end;
    (* increment j as a bit-reversed counter: clear the leading ones,
       then set the first zero *)
    let m = ref (n lsr 1) in
    while !m land !j <> 0 do
      j := !j lxor !m;
      m := !m lsr 1
    done;
    j := !j lor !m
  done;
  (* butterflies *)
  let len = ref 2 in
  while !len <= n do
    let half = !len / 2 in
    let angle = -2.0 *. Float.pi /. float_of_int !len in
    let w_re = cos angle and w_im = sin angle in
    let i = ref 0 in
    while !i < n do
      let cur_re = ref 1.0 and cur_im = ref 0.0 in
      for k = !i to !i + half - 1 do
        let r = (real.(k + half) *. !cur_re) -. (imag.(k + half) *. !cur_im) in
        let im = (real.(k + half) *. !cur_im) +. (imag.(k + half) *. !cur_re) in
        real.(k + half) <- real.(k) -. r;
        imag.(k + half) <- imag.(k) -. im;
        real.(k) <- real.(k) +. r;
        imag.(k) <- imag.(k) +. im;
        let next_re = (!cur_re *. w_re) -. (!cur_im *. w_im) in
        let next_im = (!cur_re *. w_im) +. (!cur_im *. w_re) in
        cur_re := next_re;
        cur_im := next_im
      done;
      i := !i + !len
    done;
    len := !len * 2
  done

let inverse ~real ~imag =
  let n = Array.length real in
  for i = 0 to n - 1 do
    imag.(i) <- -.imag.(i)
  done;
  transform ~real ~imag;
  let scale = 1.0 /. float_of_int n in
  for i = 0 to n - 1 do
    real.(i) <- real.(i) *. scale;
    imag.(i) <- -.imag.(i) *. scale
  done

let lowpass ~dt ~cutoff xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let padded = next_pow2 n in
    let real = Array.make padded 0.0 and imag = Array.make padded 0.0 in
    Array.blit xs 0 real 0 n;
    (* pad with the last value to avoid an artificial edge *)
    for i = n to padded - 1 do
      real.(i) <- xs.(n - 1)
    done;
    transform ~real ~imag;
    let df = 1.0 /. (float_of_int padded *. dt) in
    for k = 1 to padded - 1 do
      (* frequency of bin k, accounting for negative frequencies *)
      let idx = if k <= padded / 2 then k else padded - k in
      let freq = float_of_int idx *. df in
      if freq > cutoff then begin
        real.(k) <- 0.0;
        imag.(k) <- 0.0
      end
    done;
    inverse ~real ~imag;
    Array.sub real 0 n
  end

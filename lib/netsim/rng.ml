(* The 64-bit state lives unboxed in 8 bytes: a mutable [int64] field
   would allocate a fresh box on every draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state state =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 state;
  t

let state t = Bytes.get_int64_le t 0
let create seed = of_state (Int64.of_int seed)

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next_raw t =
  let z = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 z;
  mix z

let split t = of_state (next_raw t)

(* Forked from (seed, index) by two mixing rounds: the first finalizes the
   campaign seed, the second folds in index * golden_gamma. Mixing (rather
   than seeding from seed + index) keeps (1, 2) and (2, 1) decorrelated. *)
let substream ~seed index =
  let campaign = next_raw (create seed) in
  let keyed = Int64.logxor campaign (Int64.mul golden_gamma (Int64.of_int index)) in
  of_state (next_raw (of_state keyed))

(* FNV-1a over the name, finalized through the splitmix mixer, xored with
   the parent's *current* state. Crucially the parent stream is not
   advanced: deriving a named substream never perturbs draws made from the
   parent, so optional components (fault injection) can fork randomness
   without changing the base experiment. *)
let named t name =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    name;
  of_state (next_raw (of_state (Int64.logxor (state t) !h)))

let[@inline] float t =
  let bits = Int64.shift_right_logical (next_raw t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let uniform t lo hi = lo +. ((hi -. lo) *. float t)

let int t n =
  assert (n > 0);
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next_raw t) 1) (Int64.of_int n))

let bool t p = float t < p

(* Box-Muller with a redraw while u1 is (nearly) zero. A loop rather
   than a local recursive function: the noisy path draws one per packet,
   and the loop allocates neither a closure nor a boxed u1. *)
let gaussian t ~mean ~std =
  let u1 = ref (float t) in
  while !u1 <= 1e-12 do
    u1 := float t
  done;
  let u1 = !u1 in
  let u2 = float t in
  let r = sqrt (-2.0 *. log u1) in
  mean +. (std *. r *. cos (2.0 *. Float.pi *. u2))

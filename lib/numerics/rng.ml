(* The splitmix64 state lives unboxed in 8 bytes, read and written with
   [Bytes.get/set_int64_ne]: a [mutable int64] record field would box a
   fresh int64 on every draw. Every helper below is [@inline] so the
   state, the mixed word and the derived float stay in registers up to
   the public entry point; only a float or int64 returned across a
   module boundary is boxed, which [gaussian_positive_into] avoids by
   storing into the caller's array. *)
type t = Bytes.t

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

let golden_gamma = 0x9E3779B97F4A7C15L

(* splitmix64: fast, well-distributed, and trivially seedable. *)
let[@inline] next t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 t = next t

let split t = create (next t)

(* 53 uniform mantissa bits -> [0, 1). *)
let[@inline] unit_float t =
  let bits = Int64.shift_right_logical (next t) 11 in
  Int64.to_float bits *. (1. /. 9007199254740992.)

(* A uniform draw in (0, 1): zero is redrawn. *)
let[@inline] nonzero t =
  let u = ref (unit_float t) in
  while not (!u > 0.) do
    u := unit_float t
  done;
  !u

let float t bound =
  if bound <= 0. then invalid_arg "Rng.float: bound must be > 0";
  unit_float t *. bound

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be > 0";
  (* Keep 62 bits so the value fits OCaml's 63-bit int; rejection-free
     modulo is fine here since bounds are tiny vs 2^62 and the bias is
     negligible for workload synthesis. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let bool t = Int64.logand (next t) 1L = 1L

let uniform t lo hi =
  if hi < lo then invalid_arg "Rng.uniform: hi < lo";
  lo +. (unit_float t *. (hi -. lo))

(* Box-Muller; u1 is drawn before u2. *)
let[@inline] normal t ~mean ~stddev =
  let u1 = nonzero t in
  let u2 = unit_float t in
  let r = sqrt (-2. *. log u1) in
  mean +. (stddev *. r *. cos (2. *. Float.pi *. u2))

let gaussian t ~mean ~stddev = normal t ~mean ~stddev

let[@inline] positive t ~mean ~stddev =
  if mean <= 0. then invalid_arg "Rng.gaussian_positive: mean must be > 0";
  let x = ref (normal t ~mean ~stddev) in
  while not (!x > 0.) do
    x := normal t ~mean ~stddev
  done;
  !x

let gaussian_positive t ~mean ~stddev = positive t ~mean ~stddev

let gaussian_positive_into t ~mean ~stddev dst i =
  dst.(i) <- positive t ~mean ~stddev

let exponential t ~rate =
  if rate <= 0. then invalid_arg "Rng.exponential: rate must be > 0";
  -.log (nonzero t) /. rate

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))

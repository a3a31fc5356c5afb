(* The splitmix64 state lives unboxed in 8 bytes, read and written with
   [Bytes.get/set_int64_ne]: a [mutable int64] record field would box a
   fresh int64 on every draw. Every helper below is [@inline] so the
   state, the mixed word and the derived float stay in registers up to
   the public entry point; only a float or int64 returned across a
   module boundary is boxed, which [gaussian_positive_fill] avoids by
   storing into the caller's array. *)
type t = Bytes.t

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

let golden_gamma = 0x9E3779B97F4A7C15L

(* splitmix64: fast, well-distributed, and trivially seedable. [mix]
   is the output function of the state [z]. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 z;
  mix z

let int64 t = next t

let split t = create (next t)

(* 53 uniform mantissa bits -> [0, 1). The shifted word is below 2^53,
   so [float_of_int] converts it exactly, in one instruction;
   [Int64.to_float] gives the same bits through a C call. *)
let[@inline] to_unit w =
  float_of_int (Int64.to_int (Int64.shift_right_logical w 11))
  *. (1. /. 9007199254740992.)

let[@inline] unit_float t = to_unit (next t)

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

(* Wichura's AS241 (PPND16, Applied Statistics 37(3), 1988): the normal
   quantile to about 1e-16 relative, for p in (0, 1). For
   |p - 1/2| <= 0.425 (85% of uniform draws) it is one ratio of degree-7
   polynomials in 0.180625 - (p - 1/2)^2 and calls no libm function;
   the tails take one [log] and one [sqrt]. Each polynomial is written
   c0 + r (c1 + r (... + r c7)): the same operations, in the same order,
   as AS241's Horner form. *)
let[@inline] ppnd16 p =
  let q = p -. 0.5 in
  if Float.abs q <= 0.425 then begin
    let r = 0.180625 -. (q *. q) in
    let num =
      3.3871328727963666080e0
      +. (r *. (1.3314166789178437745e2
      +. (r *. (1.9715909503065514427e3
      +. (r *. (1.3731693765509461125e4
      +. (r *. (4.5921953931549871457e4
      +. (r *. (6.7265770927008700853e4
      +. (r *. (3.3430575583588128105e4
      +. (r *. 2.5090809287301226727e3)))))))))))))
    in
    let den =
      1.
      +. (r *. (4.2313330701600911252e1
      +. (r *. (6.8718700749205790830e2
      +. (r *. (5.3941960214247511077e3
      +. (r *. (2.1213794301586595867e4
      +. (r *. (3.9307895800092710610e4
      +. (r *. (2.8729085735721942674e4
      +. (r *. 5.2264952788528545610e3)))))))))))))
    in
    q *. num /. den
  end
  else begin
    let r = sqrt (-.log (if q < 0. then p else 1. -. p)) in
    let x =
      if r <= 5. then begin
        let r = r -. 1.6 in
        let num =
          1.42343711074968357734e0
          +. (r *. (4.63033784615654529590e0
          +. (r *. (5.76949722146069140550e0
          +. (r *. (3.64784832476320460504e0
          +. (r *. (1.27045825245236838258e0
          +. (r *. (2.41780725177450611770e-1
          +. (r *. (2.27238449892691845833e-2
          +. (r *. 7.74545014278341407640e-4)))))))))))))
        in
        let den =
          1.
          +. (r *. (2.05319162663775882187e0
          +. (r *. (1.67638483018380384940e0
          +. (r *. (6.89767334985100004550e-1
          +. (r *. (1.48103976427480074590e-1
          +. (r *. (1.51986665636164571966e-2
          +. (r *. (5.47593808499534494600e-4
          +. (r *. 1.05075007164441684324e-9)))))))))))))
        in
        num /. den
      end
      else begin
        let r = r -. 5. in
        let num =
          6.65790464350110377720e0
          +. (r *. (5.46378491116411436990e0
          +. (r *. (1.78482653991729133580e0
          +. (r *. (2.96560571828504891230e-1
          +. (r *. (2.65321895265761230930e-2
          +. (r *. (1.24266094738807843860e-3
          +. (r *. (2.71155556874348757815e-5
          +. (r *. 2.01033439929228813265e-7)))))))))))))
        in
        let den =
          1.
          +. (r *. (5.99832206555887937690e-1
          +. (r *. (1.36929880922735805310e-1
          +. (r *. (1.48753612908506148525e-2
          +. (r *. (7.86869131145613259100e-4
          +. (r *. (1.84631831751005468180e-5
          +. (r *. (1.42151175831644588870e-7
          +. (r *. 2.04426310338993978564e-15)))))))))))))
        in
        num /. den
      end
    in
    if q < 0. then -.x else x
  end

let normal_quantile p =
  if not (p > 0. && p < 1.) then
    invalid_arg "Rng.normal_quantile: p must be in (0, 1)";
  ppnd16 p

let stream_version = 2

(* One nonzero uniform per normal, through the quantile. *)
let[@inline] normal t ~mean ~stddev = mean +. (stddev *. ppnd16 (nonzero t))

let gaussian t ~mean ~stddev = normal t ~mean ~stddev

let[@inline] positive t ~mean ~stddev =
  if not (mean > 0.) then invalid_arg "Rng.gaussian_positive: mean must be > 0";
  let x = ref (normal t ~mean ~stddev) in
  while not (!x > 0.) do
    x := normal t ~mean ~stddev
  done;
  !x

let gaussian_positive t ~mean ~stddev = positive t ~mean ~stddev

(* [len] draws of [positive], with the state in a local for the whole
   loop: one load and one store of [t] per call instead of per word. *)
let gaussian_positive_fill t ~mean ~stddev dst off len =
  if not (mean > 0.) then
    invalid_arg "Rng.gaussian_positive_fill: mean must be > 0";
  if off < 0 || len < 0 || off > Array.length dst - len then
    invalid_arg "Rng.gaussian_positive_fill: range outside the array";
  let z = ref (Bytes.get_int64_ne t 0) in
  for i = off to off + len - 1 do
    let x = ref 0. in
    while not (!x > 0.) do
      let u = ref 0. in
      while not (!u > 0.) do
        z := Int64.add !z golden_gamma;
        u := to_unit (mix !z)
      done;
      x := mean +. (stddev *. ppnd16 !u)
    done;
    Array.unsafe_set dst i !x
  done;
  Bytes.set_int64_ne t 0 !z

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

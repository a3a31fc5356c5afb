(* The splitmix64 state lives unboxed in 8 bytes, read and written with
   [Bytes.get/set_int64_ne]: a [mutable int64] record field would box a
   fresh int64 on every draw. Every helper below is [@inline] so the
   state, the mixed word and the derived float stay in registers up to
   the public entry point; only a float or int64 returned across a
   module boundary is boxed, which [gaussian_positive_fill] avoids by
   storing into the caller's array. The normals' slow path is the one
   call left in a draw loop; it passes no float or int64 either. *)
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

(* [2 (k 2^-53) - 1] in [-1, 1), for [k] the top 53 bits of a word. *)
let[@inline] signed_unit k =
  (2. *. (float_of_int k *. (1. /. 9007199254740992.))) -. 1.

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

(* Normals by Doornik's ZIGNOR (2005), the 128-layer ziggurat of
   Marsaglia and Tsang (2000). Layer 0 is the base strip with the tail
   beyond R; layer i >= 1 spans |x| < X.(i) (X.(1) = R, X.(128) = 0),
   and every layer has area V. [zig_x.(0)] is V / f(R), the width of a
   rectangle of height f(R) and area V, so the base strip's rectangle
   test is the same one as every other layer's. *)
let zig_r = 3.442619855899

let zig_v = 9.91256303526217e-3

let[@inline] density x = exp (-0.5 *. x *. x)

let zig_x =
  let x = Array.make 129 0. in
  x.(0) <- zig_v /. density zig_r;
  x.(1) <- zig_r;
  for i = 2 to 127 do
    x.(i) <- sqrt (-2. *. log ((zig_v /. x.(i - 1)) +. density x.(i - 1)))
  done;
  x

(* [zig_ratio.(i)] = X.(i+1) / X.(i): |u| below it puts u X.(i) under
   the layer above, so inside the density without evaluating it. *)
let zig_ratio = Array.init 128 (fun i -> zig_x.(i + 1) /. zig_x.(i))

(* The try that failed the rectangle test: layer [i] and the 53-bit
   integer [k] of its word. Stores the standard normal into [dst.(j)]
   and returns true, or returns false when the wedge rejects and a new
   try is due. Only ints and the state's bytes cross the call, so
   nothing boxes; its extra words come from [t], which the caller has
   brought up to date. *)
let[@inline never] slow t dst j i k =
  let u = signed_unit k in
  if i = 0 then begin
    (* Marsaglia's tail beyond R: x = ln u1 / R, y = ln u2 until
       -2y >= x^2, then R - x; the uniforms are in (0, 1]. *)
    let x = ref 0. and y = ref 0. in
    let again = ref true in
    while !again do
      x := log (1. -. unit_float t) /. zig_r;
      y := log (1. -. unit_float t);
      again := -2. *. !y < !x *. !x
    done;
    Array.unsafe_set dst j (if u < 0. then !x -. zig_r else zig_r -. !x);
    true
  end
  else begin
    (* The wedge between layer i's rectangle and the density. *)
    let xi = Array.unsafe_get zig_x i and xi1 = Array.unsafe_get zig_x (i + 1) in
    let x = u *. xi in
    let f0 = exp (-0.5 *. ((xi *. xi) -. (x *. x))) in
    let f1 = exp (-0.5 *. ((xi1 *. xi1) -. (x *. x))) in
    if f1 +. (unit_float t *. (f0 -. f1)) < 1. then begin
      Array.unsafe_set dst j x;
      true
    end
    else false
  end

let stream_version = 3

(* The one normal core: [len] draws of [mean + stddev * n], n a
   standard normal, into [dst.(off)] .., redrawn while not positive
   when [positive]. Each try is one word: the layer from its low 7
   bits, u in [-1, 1) from its top 53 bits; |u| < ratio.(i) accepts
   u X.(i) at once (97.2% of tries, and 1.2% end rejected). One loop
   runs every try: an accepted normal is stored at [j], and [j]
   advances only when the stored value passes the truncation, so any
   rejection retries the same slot. The state stays in a local and is
   written back to [t] only around the slow path, which leaves its
   normal in [dst.(j)]. *)
let[@inline] draw t ~positive ~mean ~stddev dst off len =
  let z = ref (Bytes.get_int64_ne t 0) in
  let j = ref off in
  let stop = off + len in
  while !j < stop do
    z := Int64.add !z golden_gamma;
    let w = mix !z in
    let i = Int64.to_int w land 127 in
    let k = Int64.to_int (Int64.shift_right_logical w 11) in
    let u = signed_unit k in
    if Float.abs u < Array.unsafe_get zig_ratio i then begin
      let x = mean +. (stddev *. (u *. Array.unsafe_get zig_x i)) in
      Array.unsafe_set dst !j x;
      if x > 0. || not positive then incr j
    end
    else begin
      Bytes.set_int64_ne t 0 !z;
      if slow t dst !j i k then begin
        let x = mean +. (stddev *. Array.unsafe_get dst !j) in
        Array.unsafe_set dst !j x;
        if x > 0. || not positive then incr j
      end;
      z := Bytes.get_int64_ne t 0
    end
  done;
  Bytes.set_int64_ne t 0 !z

let gaussian t ~mean ~stddev =
  let dst = [| 0. |] in
  draw t ~positive:false ~mean ~stddev dst 0 1;
  dst.(0)

let gaussian_positive t ~mean ~stddev =
  if not (mean > 0.) then invalid_arg "Rng.gaussian_positive: mean must be > 0";
  let dst = [| 0. |] in
  draw t ~positive:true ~mean ~stddev dst 0 1;
  dst.(0)

let gaussian_positive_fill t ~mean ~stddev dst off len =
  if not (mean > 0.) then
    invalid_arg "Rng.gaussian_positive_fill: mean must be > 0";
  if off < 0 || len < 0 || off > Array.length dst - len then
    invalid_arg "Rng.gaussian_positive_fill: range outside the array";
  draw t ~positive:true ~mean ~stddev dst off len

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

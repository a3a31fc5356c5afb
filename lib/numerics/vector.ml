type t = float array

let create n = Array.make n 0.

let init = Array.init

let copy = Array.copy

let dim = Array.length

let fill v x = Array.fill v 0 (Array.length v) x

let check_dims name x y =
  if Array.length x <> Array.length y then
    invalid_arg
      (Printf.sprintf "Vector.%s: dimension mismatch (%d vs %d)" name
         (Array.length x) (Array.length y))

let blit ~src ~dst =
  check_dims "blit" src dst;
  Array.blit src 0 dst 0 (Array.length src)

let dot x y =
  check_dims "dot" x y;
  let acc = ref 0. in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

let norm2 x = sqrt (dot x x)

let norm_inf x =
  let acc = ref 0. in
  for i = 0 to Array.length x - 1 do
    let a = Float.abs x.(i) in
    if a > !acc then acc := a
  done;
  !acc

let sum x =
  let acc = ref 0. in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. x.(i)
  done;
  !acc

let scale a x = Array.map (fun xi -> a *. xi) x

let add x y =
  check_dims "add" x y;
  Array.mapi (fun i xi -> xi +. y.(i)) x

let sub x y =
  check_dims "sub" x y;
  Array.mapi (fun i xi -> xi -. y.(i)) x

let axpy ~a ~x ~y =
  check_dims "axpy" x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- (a *. x.(i)) +. y.(i)
  done

let xpay ~x ~a ~y =
  check_dims "xpay" x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- x.(i) +. (a *. y.(i))
  done

let max_abs_diff x y =
  check_dims "max_abs_diff" x y;
  let acc = ref 0. in
  for i = 0 to Array.length x - 1 do
    let d = Float.abs (x.(i) -. y.(i)) in
    if d > !acc then acc := d
  done;
  !acc

let rel_diff x y =
  let scale_ref = Float.max (norm_inf x) (norm_inf y) in
  max_abs_diff x y /. Float.max 1e-300 scale_ref

let approx_equal ?(rtol = 1e-9) ?(atol = 1e-12) x y =
  Array.length x = Array.length y
  &&
  let ok = ref true in
  for i = 0 to Array.length x - 1 do
    let bound = atol +. (rtol *. Float.max (Float.abs x.(i)) (Float.abs y.(i))) in
    if Float.abs (x.(i) -. y.(i)) > bound then ok := false
  done;
  !ok

let pp ppf v =
  Format.fprintf ppf "[|";
  Array.iteri
    (fun i x ->
      if i > 0 then Format.fprintf ppf "; ";
      Format.fprintf ppf "%g" x)
    v;
  Format.fprintf ppf "|]"

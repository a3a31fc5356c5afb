open T_helpers
module V = Numerics.Vector
module D = Numerics.Dense
module Sp = Numerics.Sparse
module Cg = Numerics.Cg
module Rng = Numerics.Rng
module Stats = Numerics.Stats

(* ---------------------------------------------------------------- *)
(* Vector                                                            *)

let test_vector_basics () =
  let x = V.init 4 (fun i -> float_of_int (i + 1)) in
  let y = V.init 4 (fun i -> float_of_int (4 - i)) in
  check_close "dot" (4. +. 6. +. 6. +. 4.) (V.dot x y);
  check_close "norm2" (sqrt 30.) (V.norm2 x);
  check_close "norm_inf" 4. (V.norm_inf x);
  check_close "sum" 10. (V.sum x);
  check_array_close "add" [| 5.; 5.; 5.; 5. |] (V.add x y);
  check_array_close "sub" [| -3.; -1.; 1.; 3. |] (V.sub x y);
  check_array_close "scale" [| 2.; 4.; 6.; 8. |] (V.scale 2. x)

let test_vector_axpy () =
  let x = [| 1.; 2.; 3. |] in
  let y = [| 10.; 20.; 30. |] in
  V.axpy ~a:2. ~x ~y;
  check_array_close "axpy" [| 12.; 24.; 36. |] y;
  V.xpay ~x ~a:0.5 ~y;
  check_array_close "xpay" [| 7.; 14.; 21. |] y

let test_vector_dim_mismatch () =
  check_raises_invalid "dot mismatch" (fun () -> V.dot [| 1. |] [| 1.; 2. |]);
  check_raises_invalid "add mismatch" (fun () -> V.add [| 1. |] [| 1.; 2. |])

let test_vector_rel_diff () =
  let x = [| 1.0; 2.0 |] and y = [| 1.0; 2.0001 |] in
  check_close ~rtol:1e-6 "rel_diff" (0.0001 /. 2.0001) (V.rel_diff x y);
  Alcotest.(check bool) "approx_equal tight" false (V.approx_equal x y);
  Alcotest.(check bool) "approx_equal loose" true (V.approx_equal ~rtol:1e-3 x y)

let test_vector_empty () =
  check_close "norm_inf empty" 0. (V.norm_inf [||]);
  check_close "sum empty" 0. (V.sum [||])

(* ---------------------------------------------------------------- *)
(* Dense                                                             *)

let test_dense_solve_known () =
  (* 2x + y = 5; x + 3y = 10 -> x = 1, y = 3. *)
  let a = D.of_arrays [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let x = D.solve a [| 5.; 10. |] in
  check_array_close "2x2 solve" [| 1.; 3. |] x

let test_dense_solve_pivoting () =
  (* Leading zero forces a row swap. *)
  let a = D.of_arrays [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  let x = D.solve a [| 2.; 3. |] in
  check_array_close "pivot solve" [| 3.; 2. |] x

let test_dense_singular () =
  let a = D.of_arrays [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  (match D.solve a [| 1.; 2. |] with
  | exception D.Singular -> ()
  | _ -> Alcotest.fail "expected Singular");
  check_close "det of singular" 0. (D.determinant a)

let test_dense_random_roundtrip () =
  let rng = Rng.create 42L in
  for trial = 0 to 9 do
    let n = 1 + Rng.int rng 8 in
    let a = D.create n n in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        D.set a i j (Rng.uniform rng (-1.) 1.)
      done;
      (* Diagonal dominance guarantees invertibility. *)
      D.add_to a i i (float_of_int n *. 2.)
    done;
    let x_true = Array.init n (fun i -> Rng.uniform rng (-5.) 5. +. float_of_int i) in
    let b = D.mul_vec a x_true in
    let x = D.solve a b in
    check_array_close ~rtol:1e-8
      (Printf.sprintf "roundtrip %d (n=%d)" trial n)
      x_true x
  done

let test_dense_determinant () =
  let a = D.of_arrays [| [| 3.; 1. |]; [| 4.; 2. |] |] in
  check_close "det 2x2" 2. (D.determinant a);
  check_close "det identity" 1. (D.determinant (D.identity 5));
  (* A permutation matrix with one swap has determinant -1. *)
  let p = D.of_arrays [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  check_close "det swap" (-1.) (D.determinant p)

let test_dense_mul () =
  let a = D.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = D.of_arrays [| [| 5.; 6. |]; [| 7.; 8. |] |] in
  let c = D.mul a b in
  Alcotest.(check (list (list (float 1e-9))))
    "mul" [ [ 19.; 22. ]; [ 43.; 50. ] ]
    (Array.to_list (Array.map Array.to_list (D.to_arrays c)))

let test_dense_least_squares () =
  (* Fit y = 2x + 1 through three exact points: residual 0. *)
  let a = D.of_arrays [| [| 0.; 1. |]; [| 1.; 1. |]; [| 2.; 1. |] |] in
  let x = D.solve_least_squares a [| 1.; 3.; 5. |] in
  check_array_close ~rtol:1e-8 "ls fit" [| 2.; 1. |] x

(* ---------------------------------------------------------------- *)
(* Sparse                                                            *)

let test_sparse_builder_duplicates () =
  let b = Sp.Builder.create 2 2 in
  Sp.Builder.add b 0 0 1.;
  Sp.Builder.add b 0 0 2.;
  Sp.Builder.add b 1 0 5.;
  Sp.Builder.add b 0 1 (-1.);
  let m = Sp.Builder.to_csr b in
  check_close "dup sum" 3. (Sp.get m 0 0);
  check_close "other" 5. (Sp.get m 1 0);
  check_close "missing" 0. (Sp.get m 1 1);
  Alcotest.(check int) "nnz" 3 (Sp.nnz m)

let test_sparse_spmv_vs_dense () =
  let rng = Rng.create 7L in
  for _ = 0 to 9 do
    let n = 2 + Rng.int rng 12 and m = 2 + Rng.int rng 12 in
    let d = D.create n m in
    let b = Sp.Builder.create n m in
    for _ = 0 to (n * m / 3) + 1 do
      let i = Rng.int rng n and j = Rng.int rng m in
      let v = Rng.uniform rng (-2.) 2. in
      D.add_to d i j v;
      Sp.Builder.add b i j v
    done;
    let sp = Sp.Builder.to_csr b in
    let x = Array.init m (fun i -> float_of_int i -. 3.) in
    check_array_close ~rtol:1e-10 "spmv" (D.mul_vec d x) (Sp.mul_vec sp x)
  done

let test_sparse_transpose () =
  let b = Sp.Builder.create 2 3 in
  Sp.Builder.add b 0 2 4.;
  Sp.Builder.add b 1 0 7.;
  let m = Sp.Builder.to_csr b in
  let mt = Sp.transpose m in
  Alcotest.(check (pair int int)) "dims" (3, 2) (Sp.dims mt);
  check_close "t02" 4. (Sp.get mt 2 0);
  check_close "t10" 7. (Sp.get mt 0 1)

let test_sparse_symmetry () =
  let b = Sp.Builder.create 3 3 in
  Sp.Builder.add b 0 1 2.;
  Sp.Builder.add b 1 0 2.;
  Sp.Builder.add b 2 2 1.;
  Alcotest.(check bool) "symmetric" true (Sp.is_symmetric (Sp.Builder.to_csr b));
  Sp.Builder.add b 0 2 1.;
  Alcotest.(check bool) "asymmetric" false (Sp.is_symmetric (Sp.Builder.to_csr b))

let test_sparse_add_and_diag () =
  let b = Sp.Builder.create 2 2 in
  Sp.Builder.add b 0 1 1.;
  let m = Sp.Builder.to_csr b in
  let m2 = Sp.add m (Sp.identity 2) in
  check_close "sum diag" 1. (Sp.get m2 0 0);
  check_close "sum offdiag" 1. (Sp.get m2 0 1);
  let m3 = Sp.add_diagonal m [| 5.; 6. |] in
  check_array_close "add_diagonal" [| 5.; 6. |] (Sp.diagonal m3)

let test_sparse_empty_row () =
  let b = Sp.Builder.create 3 3 in
  Sp.Builder.add b 0 0 1.;
  Sp.Builder.add b 2 2 1.;
  let m = Sp.Builder.to_csr b in
  check_array_close "empty middle row" [| 1.; 0.; 1. |] (Sp.mul_vec m [| 1.; 1.; 1. |])

(* ---------------------------------------------------------------- *)
(* CG                                                                *)

let random_spd rng n =
  (* Diagonally dominant symmetric matrix. *)
  let b = Sp.Builder.create n n in
  let diag = Array.make n 0. in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Rng.float rng 1. < 0.3 then begin
        let v = Rng.uniform rng (-1.) 1. in
        Sp.Builder.add b i j v;
        Sp.Builder.add b j i v;
        diag.(i) <- diag.(i) +. Float.abs v;
        diag.(j) <- diag.(j) +. Float.abs v
      end
    done
  done;
  for i = 0 to n - 1 do
    Sp.Builder.add b i i (diag.(i) +. 1. +. Rng.float rng 2.)
  done;
  Sp.Builder.to_csr b

let test_cg_spd () =
  let rng = Rng.create 11L in
  for trial = 0 to 4 do
    let n = 5 + Rng.int rng 40 in
    let a = random_spd rng n in
    let x_true = Array.init n (fun i -> sin (float_of_int i)) in
    let b = Sp.mul_vec a x_true in
    let r = Cg.solve ~tol:1e-12 a b in
    Alcotest.(check bool) "converged" true r.Cg.converged;
    check_array_close ~rtol:1e-7 ~atol:1e-10
      (Printf.sprintf "cg %d" trial)
      x_true r.Cg.x
  done

let test_cg_no_precondition () =
  let rng = Rng.create 13L in
  let a = random_spd rng 20 in
  let x_true = Array.init 20 (fun i -> float_of_int (i mod 3)) in
  let b = Sp.mul_vec a x_true in
  let r = Cg.solve ~precondition:false ~tol:1e-12 a b in
  check_array_close ~rtol:1e-7 ~atol:1e-10 "cg plain" x_true r.Cg.x

let test_cg_zero_rhs () =
  let rng = Rng.create 17L in
  let a = random_spd rng 10 in
  let r = Cg.solve a (Array.make 10 0.) in
  check_array_close "zero rhs" (Array.make 10 0.) r.Cg.x

let path_laplacian n =
  let b = Sp.Builder.create n n in
  for i = 0 to n - 2 do
    Sp.Builder.add b i i 1.;
    Sp.Builder.add b (i + 1) (i + 1) 1.;
    Sp.Builder.add b i (i + 1) (-1.);
    Sp.Builder.add b (i + 1) i (-1.)
  done;
  Sp.Builder.to_csr b

let test_cg_semidefinite_path () =
  (* Pure-Neumann Poisson on a path: inject +1 at one end, -1 at the
     other; the solution is linear in the node index. *)
  let n = 12 in
  let l = path_laplacian n in
  let b = Array.make n 0. in
  b.(0) <- 1.;
  b.(n - 1) <- -1.;
  let r = Cg.solve_semidefinite ~tol:1e-13 l b in
  (* x_i = c - i for some c fixed by the zero-mean gauge. *)
  let expected =
    let c = float_of_int (n - 1) /. 2. in
    Array.init n (fun i -> c -. float_of_int i)
  in
  check_array_close ~rtol:1e-8 ~atol:1e-9 "neumann path" expected r.Cg.x;
  check_close ~atol:1e-9 "zero mean" 0. (V.sum r.Cg.x)

let test_cg_semidefinite_weighted_gauge () =
  let n = 6 in
  let l = path_laplacian n in
  let b = Array.make n 0. in
  b.(0) <- 2.;
  b.(n - 1) <- -2.;
  let weights = Array.init n (fun i -> float_of_int (i + 1)) in
  let r = Cg.solve_semidefinite ~tol:1e-13 ~weights l b in
  check_close ~atol:1e-8 "weighted gauge" 0. (V.dot weights r.Cg.x);
  (* Gradient along the path must still be -2 per edge... per unit
     conductance 1 and current 2. *)
  for i = 0 to n - 2 do
    check_close ~rtol:1e-7 ~atol:1e-8 "gradient" 2. (r.Cg.x.(i) -. r.Cg.x.(i + 1))
  done

(* ---------------------------------------------------------------- *)
(* Stats                                                             *)

let test_stats_basics () =
  let xs = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check_close "mean" 5. (Stats.mean xs);
  (* Sample stddev: sum of squares 32 over n - 1 = 7 (Bessel). *)
  check_close "stddev" (sqrt (32. /. 7.)) (Stats.stddev xs);
  let lo, hi = Stats.min_max xs in
  check_close "min" 2. lo;
  check_close "max" 9. hi

(* Regression pin for the Bessel correction: variance/stddev report
   sample statistics, not the population formula that biased small-n
   spreads low. *)
let test_stats_variance_bessel () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  check_close "variance" (5. /. 3.) (Stats.variance xs);
  check_close "stddev" (sqrt (5. /. 3.)) (Stats.stddev xs);
  check_close "single observation" 0. (Stats.variance [| 42. |]);
  Alcotest.(check bool) "empty is nan" true
    (Float.is_nan (Stats.variance [||]))

let test_stats_online_welford () =
  let xs = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  let o = Stats.Online.create () in
  Array.iter (Stats.Online.add o) xs;
  Alcotest.(check int) "count" 8 (Stats.Online.count o);
  check_close "mean matches batch" (Stats.mean xs) (Stats.Online.mean o);
  check_close "variance matches batch" (Stats.variance xs)
    (Stats.Online.variance o);
  check_close "stddev matches batch" (Stats.stddev xs) (Stats.Online.stddev o);
  let empty = Stats.Online.create () in
  Alcotest.(check bool) "empty mean nan" true
    (Float.is_nan (Stats.Online.mean empty));
  Alcotest.(check bool) "empty variance nan" true
    (Float.is_nan (Stats.Online.variance empty));
  Stats.Online.add empty 3.;
  check_close "single mean" 3. (Stats.Online.mean empty);
  check_close "single variance" 0. (Stats.Online.variance empty)

let test_stats_p2_small_exact () =
  (* Up to five observations the streaming estimator must agree with the
     exact interpolated order statistic, in any arrival order. *)
  let xs = [| 9.; 1.; 5.; 3.; 7. |] in
  List.iter
    (fun p ->
      let est = Stats.P2.create (p /. 100.) in
      Alcotest.(check bool) "empty is nan" true
        (Float.is_nan (Stats.P2.quantile est));
      Array.iteri
        (fun i x ->
          Stats.P2.add est x;
          let prefix = Array.sub xs 0 (i + 1) in
          check_close
            (Printf.sprintf "p%.0f after %d obs" p (i + 1))
            (Stats.percentile prefix p)
            (Stats.P2.quantile est))
        xs)
    [ 10.; 50.; 90.; 99. ]

let test_stats_p2_large_approximates () =
  let rng = Rng.create 7L in
  let n = 1000 in
  let xs = Array.init n (fun _ -> Rng.gaussian rng ~mean:0. ~stddev:1.) in
  List.iter
    (fun p ->
      let est = Stats.P2.create (p /. 100.) in
      Array.iter (Stats.P2.add est) xs;
      Alcotest.(check int) "count" n (Stats.P2.count est);
      let exact = Stats.percentile xs p in
      let err = Float.abs (Stats.P2.quantile est -. exact) in
      if err > 0.15 then
        Alcotest.failf "P2 p%.0f off by %.3f (est %.3f, exact %.3f)" p err
          (Stats.P2.quantile est) exact)
    [ 50.; 90.; 99. ];
  check_raises_invalid "p out of range" (fun () -> ignore (Stats.P2.create 0.));
  check_raises_invalid "p out of range" (fun () -> ignore (Stats.P2.create 1.))

let test_stats_percentile () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  check_close "p0" 1. (Stats.percentile xs 0.);
  check_close "p100" 4. (Stats.percentile xs 100.);
  check_close "median" 2.5 (Stats.median xs);
  check_close "p25" 1.75 (Stats.percentile xs 25.)

let test_stats_errors () =
  check_raises_invalid "empty percentile" (fun () -> Stats.percentile [||] 50.);
  check_raises_invalid "bad p" (fun () -> Stats.percentile [| 1. |] 101.)

(* The sort inside percentile uses Float.compare (total order: nan
   first), not polymorphic compare — pin the observable behavior. *)
let test_stats_percentile_float_compare () =
  let xs = [| 3.; Float.nan; 1. |] in
  Alcotest.(check bool) "nan sorts first" true
    (Float.is_nan (Stats.percentile xs 0.));
  check_close "max ignores leading nan" 3. (Stats.percentile xs 100.);
  check_close "negative zero orders before positive" (-0.)
    (Stats.percentile [| 0.; -0. |] 0.)

let test_stats_histogram () =
  let xs = [| 0.1; 0.2; 0.6; 2.5; -1. |] in
  let h = Stats.histogram xs ~bins:2 ~lo:0. ~hi:1. in
  (* -1 clamps into bin 0; 2.5 clamps into bin 1. *)
  Alcotest.(check (list int)) "hist" [ 3; 2 ] (Array.to_list h)

let test_stats_errors_metrics () =
  check_close "rmse" 1. (Stats.rmse [| 1.; 2. |] [| 2.; 1. |]);
  check_close "rmse scaled" (sqrt 2.5) (Stats.rmse [| 0.; 0. |] [| 1.; 2. |]);
  check_close "max_rel_error" 0.5 (Stats.max_rel_error [| 1.; 3. |] [| 2.; 3. |])

(* ---------------------------------------------------------------- *)
(* Rng                                                               *)

let test_rng_determinism () =
  let a = Rng.create 99L and b = Rng.create 99L in
  for _ = 0 to 99 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_ranges () =
  let rng = Rng.create 1L in
  for _ = 0 to 999 do
    let f = Rng.float rng 3. in
    Alcotest.(check bool) "float range" true (f >= 0. && f < 3.);
    let i = Rng.int rng 7 in
    Alcotest.(check bool) "int range" true (i >= 0 && i < 7);
    let u = Rng.uniform rng (-2.) 5. in
    Alcotest.(check bool) "uniform range" true (u >= -2. && u < 5.)
  done

let test_rng_gaussian_positive () =
  let rng = Rng.create 6L in
  (* Heavy truncation (mean 1, sigma 2 rejects ~31% of draws): every
     result is still strictly positive. *)
  for _ = 1 to 5000 do
    Alcotest.(check bool) "strictly positive" true
      (Rng.gaussian_positive rng ~mean:1. ~stddev:2. > 0.)
  done;
  (* Mild truncation: the rejection sampler keeps the mean (a hard clamp
     would shift it up). *)
  let n = 20000 in
  let xs =
    Array.init n (fun _ -> Rng.gaussian_positive rng ~mean:1. ~stddev:0.25)
  in
  check_close ~rtol:0.01 "mean preserved" 1. (Stats.mean xs);
  check_raises_invalid "non-positive mean" (fun () ->
      ignore (Rng.gaussian_positive rng ~mean:0. ~stddev:1.))

let test_rng_shuffle_permutes () =
  let rng = Rng.create 31L in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_split_independent () =
  let parent = Rng.create 77L in
  let child = Rng.split parent in
  (* The child stream must differ from the parent's continuation. *)
  let same = ref true in
  for _ = 0 to 9 do
    if Rng.int64 parent <> Rng.int64 child then same := false
  done;
  Alcotest.(check bool) "independent streams" false !same

(* The generator as it was before its state was unboxed: a boxed
   [mutable int64] field, [Int64.to_float] uniforms and closure-based
   rejection loops. Generated decks, their MD5s and recorded references
   depend on this exact stream, so the production [Rng] must reproduce
   it bit for bit. *)
module Boxed_rng = struct
  type t = { mutable state : int64 }

  let create seed = { state = seed }

  let golden_gamma = 0x9E3779B97F4A7C15L

  let int64 t =
    t.state <- Int64.add t.state golden_gamma;
    let z = t.state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let split t = create (int64 t)

  let unit_float t =
    let bits = Int64.shift_right_logical (int64 t) 11 in
    Int64.to_float bits *. (1. /. 9007199254740992.)

  let float t bound = unit_float t *. bound

  let int t bound =
    let v = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
    v mod bound

  let bool t = Int64.logand (int64 t) 1L = 1L

  let uniform t lo hi = lo +. (unit_float t *. (hi -. lo))

  (* Stream version 3, written apart from [Rng]: Doornik's ZIGNOR with
     its own tables. Each try is one word (layer from the low 7 bits,
     u in [-1, 1) from the top 53); a try outside the layer's rectangle
     takes Marsaglia's tail in layer 0 and the wedge test elsewhere. *)
  let zig_r = 3.442619855899

  let zig_v = 9.91256303526217e-3

  let density x = exp (-0.5 *. x *. x)

  (* X.(0) = V / f(R), X.(1) = R, X.(i) from the layer below's area,
     X.(128) = 0. *)
  let zig_x =
    let rec up acc prev i =
      if i = 128 then Array.of_list (List.rev (0. :: acc))
      else
        let x = sqrt (-2. *. log ((zig_v /. prev) +. density prev)) in
        up (x :: acc) x (i + 1)
    in
    up [ zig_r; zig_v /. density zig_r ] zig_r 2

  let gaussian t ~mean ~stddev =
    let rec tail () =
      let x = log (1. -. unit_float t) /. zig_r in
      let y = log (1. -. unit_float t) in
      if -2. *. y >= x *. x then x else tail ()
    in
    let rec try_once () =
      let w = int64 t in
      let i = Int64.to_int (Int64.logand w 127L) in
      let u =
        (2. *. (Int64.to_float (Int64.shift_right_logical w 11)
                *. (1. /. 9007199254740992.)))
        -. 1.
      in
      let x = u *. zig_x.(i) in
      if Float.abs u < zig_x.(i + 1) /. zig_x.(i) then x
      else if i = 0 then
        let d = tail () in
        if u < 0. then d -. zig_r else zig_r -. d
      else
        let f0 = exp (-0.5 *. ((zig_x.(i) *. zig_x.(i)) -. (x *. x))) in
        let f1 = exp (-0.5 *. ((zig_x.(i + 1) *. zig_x.(i + 1)) -. (x *. x))) in
        if f1 +. (unit_float t *. (f0 -. f1)) < 1. then x else try_once ()
    in
    mean +. (stddev *. try_once ())

  let gaussian_positive t ~mean ~stddev =
    let rec draw () =
      let x = gaussian t ~mean ~stddev in
      if x > 0. then x else draw ()
    in
    draw ()

  let exponential t ~rate =
    let rec nonzero () =
      let u = unit_float t in
      if u > 0. then u else nonzero ()
    in
    -.log (nonzero ()) /. rate

  let shuffle t a =
    for i = Array.length a - 1 downto 1 do
      let j = int t (i + 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done
end

(* Every public draw, interleaved on one stream and on a split child,
   so a draw that consumed one word too many or too few desynchronizes
   everything after it. Mean 0.1 / stddev 1 makes gaussian_positive
   reject about 46% of its normals; the fills cover lengths 0, 1 and
   several. *)
let prop_rng_matches_boxed seed =
  let bits = Int64.bits_of_float in
  let a = Rng.create seed and b = Boxed_rng.create seed in
  let ok = ref true in
  let same_f x y = if bits x <> bits y then ok := false in
  let dst = Array.make 7 0. in
  let fill_matches ~mean ~stddev off len =
    Rng.gaussian_positive_fill a ~mean ~stddev dst off len;
    for i = off to off + len - 1 do
      same_f dst.(i) (Boxed_rng.gaussian_positive b ~mean ~stddev)
    done
  in
  let round a b =
    for _ = 1 to 40 do
      if Rng.int64 a <> Boxed_rng.int64 b then ok := false;
      same_f (Rng.float a 3.5) (Boxed_rng.float b 3.5);
      if Rng.int a 1000 <> Boxed_rng.int b 1000 then ok := false;
      if Rng.bool a <> Boxed_rng.bool b then ok := false;
      same_f (Rng.uniform a (-2.) 7.) (Boxed_rng.uniform b (-2.) 7.);
      same_f
        (Rng.gaussian a ~mean:3. ~stddev:2.)
        (Boxed_rng.gaussian b ~mean:3. ~stddev:2.);
      same_f
        (Rng.gaussian_positive a ~mean:1. ~stddev:0.05)
        (Boxed_rng.gaussian_positive b ~mean:1. ~stddev:0.05);
      same_f
        (Rng.gaussian_positive a ~mean:0.1 ~stddev:1.)
        (Boxed_rng.gaussian_positive b ~mean:0.1 ~stddev:1.);
      fill_matches ~mean:0.1 ~stddev:1. 1 1;
      fill_matches ~mean:1. ~stddev:0.05 2 0;
      fill_matches ~mean:0.1 ~stddev:1. 0 7;
      same_f (Rng.exponential a ~rate:2.5) (Boxed_rng.exponential b ~rate:2.5)
    done;
    let xs = Array.init 30 Fun.id and ys = Array.init 30 Fun.id in
    Rng.shuffle a xs;
    Boxed_rng.shuffle b ys;
    if xs <> ys then ok := false
  in
  round a b;
  round (Rng.split a) (Boxed_rng.split b);
  round a b;
  !ok

(* Draws allocate nothing: the engine's bulk entry point and the raw
   word loop stay on the caller's stack. *)
let test_rng_draws_allocate_nothing () =
  let rng = Rng.create 3L in
  let dst = Array.make 1000 0. in
  let words () = (Obs.Alloc.domain ()).Obs.Alloc.minor in
  let w0 = words () in
  for _ = 1 to 1000 do
    Rng.gaussian_positive_fill rng ~mean:1. ~stddev:0.05 dst 0 1000
  done;
  let w1 = words () in
  Alcotest.(check bool)
    (Printf.sprintf "gaussian_positive_fill: %.0f words for 1e6 draws"
       (w1 -. w0))
    true
    (w1 -. w0 < 100.);
  check_raises_invalid "range past the end" (fun () ->
      Rng.gaussian_positive_fill rng ~mean:1. ~stddev:0.05 dst 999 2);
  check_raises_invalid "negative offset" (fun () ->
      Rng.gaussian_positive_fill rng ~mean:1. ~stddev:0.05 dst (-1) 1);
  check_raises_invalid "non-positive mean" (fun () ->
      Rng.gaussian_positive_fill rng ~mean:0. ~stddev:1. dst 0 1)

(* The ziggurat's layers all have area V: the base strip is the
   rectangle [0, R] x [0, f(R)] plus the tail beyond R, and layer i
   >= 1 is X.(i) wide and f(X.(i+1)) - f(X.(i)) high. The published R
   and V close the recursion at X.(128) = 9.3e-6 rather than 0, so the
   top layer holds its area only to 1.2e-9. [prop_rng_matches_boxed]
   pins the production tables to these, draw by draw. *)
let test_rng_ziggurat_tables () =
  let x = Boxed_rng.zig_x and f = Boxed_rng.density in
  let r = Boxed_rng.zig_r and v = Boxed_rng.zig_v in
  Alcotest.(check int) "129 edges" 129 (Array.length x);
  Alcotest.(check (float 0.)) "X.(1) = R" r x.(1);
  Alcotest.(check (float 0.)) "X.(128) = 0" 0. x.(128);
  let area name got tol =
    let rel = Float.abs (got -. v) /. v in
    if rel > tol then
      Alcotest.failf "%s: area %.17g, V %.17g (%.2g relative)" name got v rel
  in
  area "base rectangle" (x.(0) *. f r) 1e-12;
  area "base strip" ((r *. f r) +. (sqrt (Float.pi /. 2.) *. Float.erfc (r /. sqrt 2.)))
    1e-12;
  for i = 1 to 126 do
    area (Printf.sprintf "layer %d" i) (x.(i) *. (f x.(i + 1) -. f x.(i))) 1e-12
  done;
  area "layer 127" (x.(127) *. (f x.(128) -. f x.(127))) 2e-9

(* 4 x 10^6 standard normals against Phi: a chi-square over 32 bins of
   width 1/4 on [-4, 4] and the two tails beyond (33 degrees of freedom;
   63.87 is the 0.999 quantile), and the tail-path frequency |x| > R
   within 5 binomial standard deviations. *)
let test_rng_ziggurat_distribution () =
  let rng = Rng.create 31415L in
  let n = 4_000_000 in
  let nbins = 34 in
  let bin x =
    if x < -4. then 0
    else if x >= 4. then nbins - 1
    else 1 + min 31 (int_of_float ((x +. 4.) *. 4.))
  in
  let counts = Array.make nbins 0 and beyond_r = ref 0 in
  for _ = 1 to n do
    let x = Rng.gaussian rng ~mean:0. ~stddev:1. in
    counts.(bin x) <- counts.(bin x) + 1;
    if Float.abs x > Boxed_rng.zig_r then incr beyond_r
  done;
  (* Upper tail mass Q(a) = P(X > a), exact in both tails through erfc. *)
  let q a = 0.5 *. Float.erfc (a /. sqrt 2.) in
  let mass b =
    if b = 0 || b = nbins - 1 then q 4.
    else
      let lo = -4. +. (float_of_int (b - 1) /. 4.) in
      q lo -. q (lo +. 0.25)
  in
  let nf = float_of_int n in
  let chi2 = ref 0. in
  Array.iteri
    (fun b c ->
      let e = nf *. mass b in
      let d = float_of_int c -. e in
      chi2 := !chi2 +. (d *. d /. e))
    counts;
  if !chi2 > 63.87 then
    Alcotest.failf "chi-square %.2f > 63.87 (bins %s)" !chi2
      (String.concat " " (Array.to_list (Array.map string_of_int counts)));
  let p = 2. *. q Boxed_rng.zig_r in
  let expected = nf *. p and sd = sqrt (nf *. p *. (1. -. p)) in
  if Float.abs (float_of_int !beyond_r -. expected) > 5. *. sd then
    Alcotest.failf "|x| > R: %d draws, expected %.0f +- %.0f" !beyond_r
      expected (5. *. sd)

(* Moments and decile counts of 10^6 draws of N(3, 2^2), standardized.
   The deciles are the reference quantiles of N(0, 1), so each bin
   expects 10^5 draws; the chi-square statistic has 9 degrees of
   freedom, and 27.88 is its 0.999 quantile. *)
let test_rng_gaussian_moments () =
  let rng = Rng.create 2026L in
  let n = 1_000_000 in
  let deciles =
    [| -1.2815515655446004; -0.8416212335729143; -0.5244005127080407;
       -0.2533471031357997; 0.; 0.2533471031357997; 0.5244005127080407;
       0.8416212335729143; 1.2815515655446004 |]
  in
  let bins = Array.make 10 0 in
  let s1 = ref 0. and s2 = ref 0. and s3 = ref 0. and s4 = ref 0. in
  for _ = 1 to n do
    let x = (Rng.gaussian rng ~mean:3. ~stddev:2. -. 3.) /. 2. in
    s1 := !s1 +. x;
    s2 := !s2 +. (x *. x);
    s3 := !s3 +. (x *. x *. x);
    s4 := !s4 +. (x *. x *. x *. x);
    let b = ref 0 in
    while !b < 9 && x >= deciles.(!b) do
      incr b
    done;
    bins.(!b) <- bins.(!b) + 1
  done;
  let nf = float_of_int n in
  let mean = !s1 /. nf in
  let var = (!s2 /. nf) -. (mean *. mean) in
  (* Standard errors at 10^6 draws: mean 1e-3, variance 1.4e-3,
     third moment 3.9e-3, fourth moment 9.8e-3; allow 5 of each. *)
  let close msg expected actual tol =
    if Float.abs (actual -. expected) > tol then
      Alcotest.failf "%s: %.5f, expected %.5f +- %g" msg actual expected tol
  in
  close "mean" 0. mean 5e-3;
  close "variance" 1. var 7e-3;
  close "third moment" 0. (!s3 /. nf) 0.02;
  close "fourth moment" 3. (!s4 /. nf) 0.05;
  let expected = nf /. 10. in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      0. bins
  in
  if chi2 > 27.88 then
    Alcotest.failf "decile chi-square %.2f > 27.88 (bins %s)" chi2
      (String.concat " " (Array.to_list (Array.map string_of_int bins)))

(* ---------------------------------------------------------------- *)
(* Cholesky                                                          *)

module Ch = Numerics.Cholesky

let test_cholesky_small_known () =
  (* [[4,1],[1,3]]: x = A \ b checked against the dense solver. *)
  let b = Sp.Builder.create 2 2 in
  Sp.Builder.add b 0 0 4.;
  Sp.Builder.add b 0 1 1.;
  Sp.Builder.add b 1 0 1.;
  Sp.Builder.add b 1 1 3.;
  let a = Sp.Builder.to_csr b in
  let f = Ch.factorize a in
  let x = Ch.solve f [| 1.; 2. |] in
  let expected = D.solve (Sp.to_dense a) [| 1.; 2. |] in
  check_array_close ~rtol:1e-12 "2x2" expected x

let test_cholesky_random_spd () =
  let rng = Rng.create 61L in
  List.iter
    (fun ordering ->
      for trial = 0 to 4 do
        let n = 5 + Rng.int rng 40 in
        let a = random_spd rng n in
        let f = Ch.factorize ~ordering a in
        let x_true = Array.init n (fun i -> sin (float_of_int (i * 7))) in
        let b = Sp.mul_vec a x_true in
        check_array_close ~rtol:1e-9 ~atol:1e-12
          (Printf.sprintf "trial %d (n=%d)" trial n)
          x_true (Ch.solve f b);
        (* The factorization is reusable across right-hand sides. *)
        let b2 = Sp.mul_vec a (Array.make n 1.) in
        check_array_close ~rtol:1e-9 ~atol:1e-12 "second rhs" (Array.make n 1.)
          (Ch.solve f b2)
      done)
    [ Ch.Natural; Ch.Amd ]

let test_cholesky_vs_cg () =
  let rng = Rng.create 67L in
  let a = random_spd rng 60 in
  let b = Array.init 60 (fun i -> cos (float_of_int i)) in
  let direct = Ch.solve (Ch.factorize a) b in
  let iterative = (Cg.solve ~tol:1e-13 a b).Cg.x in
  check_array_close ~rtol:1e-8 ~atol:1e-11 "direct vs CG" iterative direct

let test_cholesky_not_spd () =
  (* A singular Laplacian has a zero pivot at the end. *)
  let l = path_laplacian 5 in
  (match Ch.factorize l with
  | exception Ch.Not_positive_definite _ -> ()
  | _ -> Alcotest.fail "singular Laplacian must be rejected");
  (* An indefinite matrix fails too. *)
  let b = Sp.Builder.create 2 2 in
  Sp.Builder.add b 0 0 1.;
  Sp.Builder.add b 1 1 (-1.);
  match Ch.factorize (Sp.Builder.to_csr b) with
  | exception Ch.Not_positive_definite 1 -> ()
  | exception Ch.Not_positive_definite _ -> ()
  | _ -> Alcotest.fail "indefinite matrix must be rejected"

let test_cholesky_grounded_laplacian () =
  (* Pinning one node of a Laplacian (the MNA reduction) makes it SPD:
     the canonical power-grid use. *)
  let n = 40 in
  let l = path_laplacian n in
  let grounded = Sp.add_diagonal l (Array.init n (fun i -> if i = 0 then 1. else 0.)) in
  let f = Ch.factorize grounded in
  let x_true = Array.init n (fun i -> float_of_int i /. 10.) in
  let b = Sp.mul_vec grounded x_true in
  check_array_close ~rtol:1e-9 ~atol:1e-10 "grounded path" x_true (Ch.solve f b);
  Alcotest.(check bool) "fill bounded on a path" true
    (Ch.nnz_l f <= 2 * n)

let test_cholesky_amd_reduces_fill () =
  (* A 2-D grid Laplacian (+I) under a scrambled numbering: AMD must
     cut the fill of the natural (scrambled) order. *)
  let rows = 12 and cols = 12 in
  let n = rows * cols in
  let rng = Rng.create 71L in
  let scramble = Array.init n (fun i -> i) in
  Rng.shuffle rng scramble;
  let b = Sp.Builder.create n n in
  let idx r c = scramble.((r * cols) + c) in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      Sp.Builder.add b (idx r c) (idx r c) 5.;
      let couple r2 c2 =
        if r2 >= 0 && r2 < rows && c2 >= 0 && c2 < cols then begin
          Sp.Builder.add b (idx r c) (idx r2 c2) (-1.)
        end
      in
      couple (r - 1) c;
      couple (r + 1) c;
      couple r (c - 1);
      couple r (c + 1)
    done
  done;
  let a = Sp.Builder.to_csr b in
  let natural = Ch.factorize ~ordering:Ch.Natural a in
  let amd = Ch.factorize ~ordering:Ch.Amd a in
  Alcotest.(check bool)
    (Printf.sprintf "fill: amd %d vs natural %d" (Ch.nnz_l amd)
       (Ch.nnz_l natural))
    true
    (2 * Ch.nnz_l amd <= Ch.nnz_l natural);
  (* And both solve correctly. *)
  let x_true = Array.init n (fun i -> float_of_int (i mod 7)) in
  let rhs = Sp.mul_vec a x_true in
  check_array_close ~rtol:1e-9 ~atol:1e-10 "scrambled grid" x_true
    (Ch.solve amd rhs);
  check_array_close ~rtol:1e-9 ~atol:1e-10 "natural order" x_true
    (Ch.solve natural rhs)

let test_cholesky_amd_degenerate () =
  (* Empty, 1x1, diagonal-only and a dense row (star centre past the
     dense threshold, ordered last) all give valid permutations. *)
  let check_perm name a =
    let f = Ch.factorize a in
    let n = Ch.dim f in
    let p = Ch.ordering_permutation f in
    Array.sort compare p;
    Alcotest.(check (array int)) name (Array.init n (fun i -> i)) p;
    let x_true = Array.init n (fun i -> 1. +. float_of_int i) in
    check_array_close ~rtol:1e-9 name x_true (Ch.solve f (Sp.mul_vec a x_true))
  in
  check_perm "empty" (Sp.Builder.to_csr (Sp.Builder.create 0 0));
  check_perm "1x1" (Sp.identity 1);
  check_perm "diagonal" (Sp.identity 7);
  let n = 300 in
  let b = Sp.Builder.create n n in
  for i = 1 to n - 1 do
    Sp.Builder.add b i i 2.;
    Sp.Builder.add b 0 0 1.;
    Sp.Builder.add b 0 i (-1.);
    Sp.Builder.add b i 0 (-1.)
  done;
  Sp.Builder.add b 0 0 1.;
  let star = Sp.Builder.to_csr b in
  check_perm "star" star;
  let f = Ch.factorize star in
  Alcotest.(check int) "dense centre last" 0 (Ch.ordering_permutation f).(n - 1);
  Alcotest.(check int) "no fill" (n - 1) (Ch.nnz_l f)

let test_cholesky_permutation_is_permutation () =
  let rng = Rng.create 73L in
  let a = random_spd rng 30 in
  let f = Ch.factorize a in
  let p = Ch.ordering_permutation f in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 30 (fun i -> i)) sorted;
  Alcotest.(check int) "dim" 30 (Ch.dim f)


(* Supernodal shapes. An independent symbolic factorization under the
   factor's own ordering: each column's structure below the diagonal,
   as the union of its lower-triangle entries and its children's
   structures (a column's parent is its structure's first row), and
   the runs of columns that share one structure. Returns the structural
   nonzeros and the supernode sizes in column order. *)
module Iset = Set.Make (Int)

let symbolic_oracle a perm =
  let n = Array.length perm in
  let inv = Array.make n 0 in
  Array.iteri (fun k old -> inv.(old) <- k) perm;
  let cols = Array.make n Iset.empty in
  for k = 0 to n - 1 do
    let old = perm.(k) in
    for p = a.Sp.row_ptr.(old) to a.Sp.row_ptr.(old + 1) - 1 do
      let i = inv.(a.Sp.col_idx.(p)) in
      if i > k then cols.(k) <- Iset.add i cols.(k)
    done
  done;
  for j = 0 to n - 1 do
    match Iset.min_elt_opt cols.(j) with
    | Some p -> cols.(p) <- Iset.union cols.(p) (Iset.remove p cols.(j))
    | None -> ()
  done;
  let nnz = Array.fold_left (fun t c -> t + Iset.cardinal c) 0 cols in
  let sizes = ref [] and run = ref 1 in
  for j = 0 to n - 1 do
    if
      j + 1 < n
      && Iset.mem (j + 1) cols.(j)
      && Iset.equal (Iset.remove (j + 1) cols.(j)) cols.(j + 1)
    then incr run
    else begin
      sizes := !run :: !sizes;
      run := 1
    end
  done;
  (nnz, List.rev !sizes)

(* A [side] x [side] grid of unit conductances, its first row grounded
   through unit conductances. *)
let grounded_grid side =
  let n = side * side in
  let b = Sp.Builder.create n n in
  let couple i j =
    Sp.Builder.add b i i 1.;
    Sp.Builder.add b j j 1.;
    Sp.Builder.add b i j (-1.);
    Sp.Builder.add b j i (-1.)
  in
  for r = 0 to side - 1 do
    for c = 0 to side - 1 do
      let i = (r * side) + c in
      if c + 1 < side then couple i (i + 1);
      if r + 1 < side then couple i (i + side);
      if r = 0 then Sp.Builder.add b i i 1.
    done
  done;
  Sp.Builder.to_csr b

(* Dense diagonally dominant blocks of the given sizes along the
   diagonal; one size gives a dense matrix. *)
let dense_blocks sizes =
  let n = List.fold_left ( + ) 0 sizes in
  let b = Sp.Builder.create n n in
  ignore
    (List.fold_left
       (fun lo m ->
         for i = lo to lo + m - 1 do
           for j = lo to lo + m - 1 do
             Sp.Builder.add b i j
               (if i = j then float_of_int (2 * m) else 1. /. float_of_int (1 + i + j))
           done
         done;
         lo + m)
       0 sizes);
  Sp.Builder.to_csr b

let tridiagonal n =
  let b = Sp.Builder.create n n in
  for i = 0 to n - 1 do
    Sp.Builder.add b i i 4.;
    if i + 1 < n then begin
      Sp.Builder.add b i (i + 1) (-1.);
      Sp.Builder.add b (i + 1) i (-1.)
    end
  done;
  Sp.Builder.to_csr b

(* Row and column 0 full, the rest diagonal: the natural order fills
   L completely, AMD orders the hub last and fills nothing. *)
let arrowhead n =
  let b = Sp.Builder.create n n in
  Sp.Builder.add b 0 0 (float_of_int (2 * n));
  for i = 1 to n - 1 do
    Sp.Builder.add b i i 2.;
    Sp.Builder.add b 0 i 0.5;
    Sp.Builder.add b i 0 0.5
  done;
  Sp.Builder.to_csr b

(* Each shape at both orderings: the solve against the dense solver (or
   a known x on the grid, too large for it) at rtol 1e-10, nnz(L)
   against the figure the up-looking factor gave for the same matrix,
   and nnz(L) and the supernode count against the oracle. [shape]
   checks the supernode sizes. *)
let test_cholesky_supernodal_shapes () =
  let cases =
    [
      ( "grid 40x40", grounded_grid 40, (62439, 19171),
        fun o sizes ->
          (* Under AMD the top separators are supernodes of 32+ columns. *)
          o = Ch.Natural || List.exists (fun m -> m >= 32) sizes );
      ("dense 60", dense_blocks [ 60 ], (1770, 1770), fun _ sizes -> sizes = [ 60 ]);
      ( "tridiagonal 50", tridiagonal 50, (49, 49),
        fun o sizes ->
          (* Singletons, but for the last pair when nothing is reordered. *)
          o = Ch.Amd || sizes = List.init 48 (fun _ -> 1) @ [ 2 ] );
      ( "arrowhead 50", arrowhead 50, (1225, 49),
        fun o sizes -> if o = Ch.Natural then sizes = [ 50 ] else List.length sizes = 49 );
      ( "block diagonal", dense_blocks [ 1; 7; 20; 3; 12 ], (280, 280),
        fun _ sizes -> List.sort compare sizes = [ 1; 3; 7; 12; 20 ] );
    ]
  in
  List.iter
    (fun (name, a, (nnz_natural, nnz_amd), shape) ->
      List.iter
        (fun (oname, ordering, nnz) ->
          let name = Printf.sprintf "%s, %s" name oname in
          let f = Ch.factorize ~ordering a in
          let n = Ch.dim f in
          Alcotest.(check int) (name ^ ": nnz(L)") nnz (Ch.nnz_l f);
          let onnz, sizes = symbolic_oracle a (Ch.ordering_permutation f) in
          Alcotest.(check int) (name ^ ": oracle nnz(L)") onnz (Ch.nnz_l f);
          Alcotest.(check int) (name ^ ": supernodes") (List.length sizes)
            (Ch.supernodes f);
          Alcotest.(check bool) (name ^ ": supernode sizes") true (shape ordering sizes);
          if n <= 100 then begin
            let b = Array.init n (fun i -> cos (float_of_int (3 * i))) in
            check_array_close ~rtol:1e-10 ~atol:0. name (D.solve (Sp.to_dense a) b)
              (Ch.solve f b)
          end
          else begin
            let x = Array.init n (fun i -> 2. +. sin (float_of_int i)) in
            check_array_close ~rtol:1e-10 ~atol:0. name x (Ch.solve f (Sp.mul_vec a x))
          end)
        [ ("natural", Ch.Natural, nnz_natural); ("AMD", Ch.Amd, nnz_amd) ])
    cases

(* A pivot that turns non-positive inside a large supernode raises with
   the row the up-looking factor named: a node of the top separator
   made negative, and the whole grid shifted below its smallest
   eigenvalue (the first bad pivot then comes from the updates). *)
let test_cholesky_supernodal_not_pd () =
  let a = grounded_grid 40 in
  let n = 1600 in
  let expect name ordering row m =
    match Ch.factorize ~ordering m with
    | exception Ch.Not_positive_definite r -> Alcotest.(check int) name row r
    | _ -> Alcotest.failf "%s: not rejected" name
  in
  List.iter
    (fun (oname, ordering, node_row, shift_rows) ->
      let perm = Ch.ordering_permutation (Ch.factorize ~ordering a) in
      let v = perm.(n - 10) in
      Alcotest.(check int) (oname ^ ": separator node") node_row v;
      let _, sizes = symbolic_oracle a perm in
      Alcotest.(check bool) (oname ^ ": inside a 32+ supernode") true
        (List.nth sizes (List.length sizes - 1) >= 32);
      expect (oname ^ ": negative node") ordering node_row
        (Sp.add_diagonal a (Array.init n (fun i -> if i = v then -10. else 0.)));
      List.iter2
        (fun sigma row ->
          expect (Printf.sprintf "%s: shift %g" oname sigma) ordering row
            (Sp.add_diagonal a (Array.make n (-.sigma))))
        [ 0.01; 0.05; 0.2; 1.0 ] shift_rows)
    [
      ("natural", Ch.Natural, 1590, [ 1216; 521; 232; 79 ]);
      ("AMD", Ch.Amd, 830, [ 1577; 549; 242; 92 ]);
    ]


(* ---------------------------------------------------------------- *)
(* Parallel                                                          *)

module Par = Numerics.Parallel

let test_parallel_matches_sequential () =
  let xs = Array.init 1000 (fun i -> i) in
  let f i = float_of_int (i * i) +. sin (float_of_int i) in
  let seq = Array.map f xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (array (float 1e-12)))
        (Printf.sprintf "jobs=%d" jobs)
        seq (Par.map ~jobs f xs))
    [ 1; 2; 3; 7 ]

let test_parallel_edge_cases () =
  Alcotest.(check (array int)) "empty" [||] (Par.map ~jobs:4 (fun x -> x) [||]);
  Alcotest.(check (array int)) "fewer items than jobs" [| 2; 4 |]
    (Par.map ~jobs:8 (fun x -> 2 * x) [| 1; 2 |]);
  check_raises_invalid "jobs < 1" (fun () ->
      ignore (Par.map ~jobs:0 (fun x -> x) [| 1 |]));
  Alcotest.(check bool) "recommended >= 1" true (Par.recommended_jobs () >= 1)

let test_parallel_exception_propagates () =
  match
    Par.map ~jobs:4 (fun i -> if i = 37 then failwith "boom" else i)
      (Array.init 100 (fun i -> i))
  with
  | exception Failure m -> Alcotest.(check string) "original exn" "boom" m
  | _ -> Alcotest.fail "expected failure"

let test_parallel_per_slot_capture () =
  (* One poisoned item per decade: every healthy slot still computes,
     every poisoned slot carries its own exception. *)
  let slots =
    Par.map_local_result ~jobs:4 ~local:ignore
      (fun () i ->
        if i mod 10 = 3 then failwith (Printf.sprintf "bad %d" i) else 2 * i)
      (Array.init 50 (fun i -> i))
  in
  Alcotest.(check int) "failed slots" 5 (Par.failures slots);
  Array.iteri
    (fun i slot ->
      match slot with
      | Ok v ->
        Alcotest.(check bool) "healthy index" true (i mod 10 <> 3);
        Alcotest.(check int) "value" (2 * i) v
      | Error (Failure m, _) ->
        Alcotest.(check bool) "poisoned index" true (i mod 10 = 3);
        Alcotest.(check string) "message" (Printf.sprintf "bad %d" i) m
      | Error (e, _) ->
        Alcotest.failf "unexpected exception %s" (Printexc.to_string e))
    slots

(* Worker-local state as the tests observe it: the domain that created
   it and the items it was threaded through, in call order. *)
type local_log = { owner : Domain.id; calls : int list ref }

(* The map_local_result contract, whatever the hand-out order: every
   state is used only on the domain that created it, there are at most
   [jobs] of them, each item is passed to exactly one state (the
   poisoned one included), every healthy slot holds its value together
   with the state that computed it, and slot [fail_at] holds its own
   failure. [spin i] iterations of busy work make item [i] costly. *)
let check_local_contract ~jobs ~n ~fail_at ~spin =
  let states = Atomic.make [] in
  let rec register st =
    let seen = Atomic.get states in
    if not (Atomic.compare_and_set states seen (st :: seen)) then register st
  in
  let slots =
    Par.map_local_result ~jobs
      ~local:(fun () ->
        let st = { owner = Domain.self (); calls = ref [] } in
        register st;
        st)
      (fun st i ->
        if Domain.self () <> st.owner then failwith "state crossed domains";
        st.calls := i :: !(st.calls);
        let acc = ref 0. in
        for k = 1 to spin i do
          acc := !acc +. sqrt (float_of_int k)
        done;
        ignore (Sys.opaque_identity !acc);
        if i = fail_at then failwith "boom";
        (st, (2 * i) + 1))
      (Array.init n Fun.id)
  in
  let tag = Printf.sprintf "jobs=%d" jobs in
  let states = Atomic.get states in
  Alcotest.(check bool) (tag ^ ": at most one state per worker") true
    (List.length states <= jobs);
  let owners = List.sort_uniq compare (List.map (fun st -> st.owner) states) in
  Alcotest.(check int) (tag ^ ": one state per domain")
    (List.length states) (List.length owners);
  let handed = List.concat_map (fun st -> !(st.calls)) states in
  Alcotest.(check (list int)) (tag ^ ": every item handed out once")
    (List.init n Fun.id) (List.sort compare handed);
  Alcotest.(check int) (tag ^ ": one failure") 1 (Par.failures slots);
  Array.iteri
    (fun i slot ->
      match slot with
      | Error (Failure m, _) when i = fail_at ->
        Alcotest.(check string) (tag ^ ": failure message") "boom" m
      | Error (e, _) ->
        Alcotest.failf "%s: slot %d raised %s" tag i (Printexc.to_string e)
      | Ok (st, v) ->
        Alcotest.(check int) (Printf.sprintf "%s: slot %d" tag i) ((2 * i) + 1) v;
        Alcotest.(check bool)
          (Printf.sprintf "%s: slot %d's state saw it" tag i)
          true (List.mem i !(st.calls)))
    slots

let test_parallel_map_local_result () =
  (* The state survives a poisoned item: later items handed to the same
     domain keep threading it. *)
  List.iter
    (fun jobs -> check_local_contract ~jobs ~n:12 ~fail_at:5 ~spin:(fun _ -> 0))
    [ 1; 2; 4 ]

let test_parallel_front_loaded () =
  (* All the cost sits in the first half of the items (the layout of a
     grid whose big lower-layer structures come first). *)
  let n = 64 in
  List.iter
    (fun jobs ->
      check_local_contract ~jobs ~n ~fail_at:(n - 1) ~spin:(fun i ->
          if i < n / 2 then 20_000 else 0))
    [ 1; 2; 4 ]

let test_parallel_first_error_deterministic () =
  (* Multiple failing slots across different domains: map re-raises the
     lowest-indexed one, not whichever worker lost the race. *)
  for _ = 1 to 5 do
    match
      Par.map ~jobs:4
        (fun i ->
          if i = 11 || i = 40 || i = 77 then
            failwith (Printf.sprintf "fail %d" i)
          else i)
        (Array.init 100 (fun i -> i))
    with
    | exception Failure m -> Alcotest.(check string) "lowest index" "fail 11" m
    | _ -> Alcotest.fail "expected failure"
  done

let test_parallel_backtrace_preserved () =
  (* raise_with_backtrace hands the caller the original raise point. *)
  Printexc.record_backtrace true;
  let deep_raise i =
    if i = 3 then raise Not_found else i
  in
  match Par.map ~jobs:2 deep_raise (Array.init 8 (fun i -> i)) with
  | exception Not_found -> () (* identity of the exception preserved *)
  | _ -> Alcotest.fail "expected Not_found"

let suites =
  [
    ( "numerics.vector",
      [
        case "basics" test_vector_basics;
        case "axpy/xpay" test_vector_axpy;
        case "dimension mismatch" test_vector_dim_mismatch;
        case "rel_diff / approx_equal" test_vector_rel_diff;
        case "empty vectors" test_vector_empty;
      ] );
    ( "numerics.dense",
      [
        case "2x2 solve" test_dense_solve_known;
        case "pivoting" test_dense_solve_pivoting;
        case "singular detection" test_dense_singular;
        case "random roundtrips" test_dense_random_roundtrip;
        case "determinant" test_dense_determinant;
        case "matrix product" test_dense_mul;
        case "least squares" test_dense_least_squares;
      ] );
    ( "numerics.sparse",
      [
        case "builder duplicate summing" test_sparse_builder_duplicates;
        case "spmv matches dense" test_sparse_spmv_vs_dense;
        case "transpose" test_sparse_transpose;
        case "symmetry detection" test_sparse_symmetry;
        case "add / add_diagonal" test_sparse_add_and_diag;
        case "empty rows" test_sparse_empty_row;
      ] );
    ( "numerics.cg",
      [
        case "SPD systems" test_cg_spd;
        case "unpreconditioned" test_cg_no_precondition;
        case "zero rhs" test_cg_zero_rhs;
        case "semidefinite path Laplacian" test_cg_semidefinite_path;
        case "weighted gauge" test_cg_semidefinite_weighted_gauge;
      ] );
    ( "numerics.cholesky",
      [
        case "2x2 known" test_cholesky_small_known;
        case "random SPD, both orderings" test_cholesky_random_spd;
        case "agrees with CG" test_cholesky_vs_cg;
        case "rejects non-SPD" test_cholesky_not_spd;
        case "grounded Laplacian" test_cholesky_grounded_laplacian;
        case "AMD fill on scrambled grid" test_cholesky_amd_reduces_fill;
        case "AMD on degenerate patterns" test_cholesky_amd_degenerate;
        case "ordering is a permutation" test_cholesky_permutation_is_permutation;
        case "supernodal shapes, both orderings" test_cholesky_supernodal_shapes;
        case "non-PD pivot inside a large supernode" test_cholesky_supernodal_not_pd;
      ] );
    ( "numerics.stats",
      [
        case "mean/stddev/minmax" test_stats_basics;
        case "Bessel-corrected variance" test_stats_variance_bessel;
        case "Welford online moments" test_stats_online_welford;
        case "P2 exact on small counts" test_stats_p2_small_exact;
        case "P2 approximates large counts" test_stats_p2_large_approximates;
        case "percentiles" test_stats_percentile;
        case "percentile Float.compare order" test_stats_percentile_float_compare;
        case "error handling" test_stats_errors;
        case "histogram clamping" test_stats_histogram;
        case "rmse / max_rel_error" test_stats_errors_metrics;
      ] );
    ( "numerics.parallel",
      [
        case "matches sequential" test_parallel_matches_sequential;
        case "edge cases" test_parallel_edge_cases;
        case "exception propagation" test_parallel_exception_propagates;
        case "map_local_result per-slot capture" test_parallel_per_slot_capture;
        case "map_local_result keeps state" test_parallel_map_local_result;
        case "front-loaded cost" test_parallel_front_loaded;
        case "first error deterministic" test_parallel_first_error_deterministic;
        case "exception identity preserved" test_parallel_backtrace_preserved;
      ] );
    ( "numerics.rng",
      [
        case "determinism" test_rng_determinism;
        case "ranges" test_rng_ranges;
        case "gaussian moments" test_rng_gaussian_moments;
        case "ziggurat tables" test_rng_ziggurat_tables;
        case "ziggurat distribution" test_rng_ziggurat_distribution;
        case "zero-truncated gaussian" test_rng_gaussian_positive;
        case "shuffle permutes" test_rng_shuffle_permutes;
        case "split independence" test_rng_split_independent;
        qcheck "bit-identical to the boxed splitmix64"
          QCheck2.Gen.(map Int64.of_int int)
          prop_rng_matches_boxed;
        case "draws allocate nothing" test_rng_draws_allocate_nothing;
      ] );
  ]

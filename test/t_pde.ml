open T_helpers
module M = Em_core.Material
module U = Em_core.Units
module St = Em_core.Structure
module Ss = Em_core.Steady_state
module Kcl = Em_core.Kirchhoff
module Mesh = Empde.Mesh1d
module Asm = Empde.Assembly
module Psteady = Empde.Steady
module Kor = Empde.Korhonen
module Rng = Numerics.Rng

let cu = M.cu_dac21

let seg ?(h = 2e-7) ~l ~w ~j () = St.segment ~height:h ~length:l ~width:w ~j ()

(* ---------------------------------------------------------------- *)
(* Mesh1d                                                            *)

let test_mesh_counts () =
  let s = St.line [ seg ~l:(U.um 10.) ~w:(U.um 1.) ~j:1e10 ();
                    seg ~l:(U.um 5.) ~w:(U.um 1.) ~j:1e10 () ] in
  let mesh = Mesh.discretize ~target_dx:(U.um 1.) s in
  Alcotest.(check int) "cells seg0" 10 (Mesh.num_cells mesh ~seg:0);
  Alcotest.(check int) "cells seg1" 5 (Mesh.num_cells mesh ~seg:1);
  (* 3 graph nodes + 9 + 4 interior points. *)
  Alcotest.(check int) "unknowns" 16 mesh.Mesh.num_unknowns;
  (* Endpoint unknowns are graph nodes; interiors follow. *)
  Alcotest.(check int) "tail of seg0" 0 (Mesh.point mesh ~seg:0 ~idx:0);
  Alcotest.(check int) "head of seg0" 1 (Mesh.point mesh ~seg:0 ~idx:10);
  Alcotest.(check int) "tail of seg1" 1 (Mesh.point mesh ~seg:1 ~idx:0);
  Alcotest.(check int) "first interior" 3 (Mesh.point mesh ~seg:0 ~idx:1)

let test_mesh_min_cells () =
  let s = St.single (seg ~l:(U.um 0.1) ~w:(U.um 1.) ~j:0. ()) in
  let mesh = Mesh.discretize ~target_dx:(U.um 1.) ~min_cells:4 s in
  Alcotest.(check int) "min cells enforced" 4 (Mesh.num_cells mesh ~seg:0)

let test_mesh_volume () =
  let s = St.line [ seg ~l:(U.um 7.) ~w:(U.um 0.8) ~j:0. ();
                    seg ~l:(U.um 3.) ~w:(U.um 1.4) ~j:0. () ] in
  let mesh = Mesh.discretize s in
  check_close ~rtol:1e-12 "volume partition" (St.volume s) (Mesh.total_volume mesh)

let test_mesh_interpolation () =
  let s = St.single (seg ~l:(U.um 10.) ~w:(U.um 1.) ~j:0. ()) in
  let mesh = Mesh.discretize ~target_dx:(U.um 1.) s in
  (* Fill unknowns with a linear ramp in x; interpolation must be exact. *)
  let u = Array.make mesh.Mesh.num_unknowns 0. in
  for i = 0 to Mesh.num_cells mesh ~seg:0 do
    u.(Mesh.point mesh ~seg:0 ~idx:i) <- Mesh.position mesh ~seg:0 ~idx:i
  done;
  check_close ~rtol:1e-12 "interp midpoint" (U.um 5.)
    (Mesh.interpolate mesh u ~seg:0 ~x:(U.um 5.));
  check_close ~rtol:1e-12 "interp off-grid" (U.um 3.3)
    (Mesh.interpolate mesh u ~seg:0 ~x:(U.um 3.3));
  check_raises_invalid "interp out of range" (fun () ->
      ignore (Mesh.interpolate mesh u ~seg:0 ~x:(U.um 11.)))

(* ---------------------------------------------------------------- *)
(* Assembly                                                          *)

let test_assembly_symmetric_and_conservative () =
  let s = St.line [ seg ~l:(U.um 6.) ~w:(U.um 1.) ~j:2e10 ();
                    seg ~l:(U.um 9.) ~w:(U.um 0.5) ~j:(-1e10) () ] in
  let asm = Asm.build cu (Mesh.discretize ~target_dx:(U.um 1.) s) in
  Alcotest.(check bool) "K symmetric" true
    (Numerics.Sparse.is_symmetric asm.Asm.stiffness);
  (* Rows of K sum to zero (constants in the nullspace). *)
  let sums = Numerics.Sparse.row_sums asm.Asm.stiffness in
  Array.iteri
    (fun i r -> check_close ~atol:1e-20 (Printf.sprintf "row %d" i) 0. r)
    sums;
  (* The drift rhs is compatible: total sums to zero. *)
  check_close ~atol:1e-25 "rhs compatible" 0. (Numerics.Vector.sum asm.Asm.drift)

(* ---------------------------------------------------------------- *)
(* Steady solver vs closed form                                      *)

let check_against_closed_form ?(rtol = 1e-6) name s =
  let closed = Ss.solve cu s in
  let sol = Psteady.solve_structure ~tol:1e-13 cu s in
  let scale =
    Array.fold_left (fun a v -> Float.max a (Float.abs v)) 1e4
      closed.Ss.node_stress
  in
  Array.iteri
    (fun v expected ->
      check_close ~rtol ~atol:(rtol *. scale)
        (Printf.sprintf "%s node %d" name v)
        expected sol.Psteady.node_stress.(v))
    closed.Ss.node_stress

let test_steady_single_segment () =
  check_against_closed_form "single"
    (St.single (seg ~l:(U.um 20.) ~w:(U.um 1.) ~j:1e10 ()))

let test_steady_two_segment () =
  check_against_closed_form "two-seg"
    (St.line [ seg ~l:(U.um 12.) ~w:(U.um 1.) ~j:3e9 ();
               seg ~l:(U.um 25.) ~w:(U.um 0.6) ~j:8e9 () ])

let test_steady_t_junction () =
  check_against_closed_form "T"
    (St.make ~num_nodes:4
       [|
         (0, 1, seg ~l:(U.um 20.) ~w:(U.um 1.) ~j:6e10 ());
         (1, 2, seg ~l:(U.um 10.) ~w:(U.um 1.) ~j:(-4e10) ());
         (1, 3, seg ~l:(U.um 15.) ~w:(U.um 1.) ~j:3e10 ());
       |])

let test_steady_mesh_cycle () =
  (* Consistent currents on a 2x2 mesh (one cycle) from an injection. *)
  let geom =
    St.grid_mesh ~rows:2 ~cols:2 (fun ~horizontal:_ _ _ ->
        seg ~l:(U.um 8.) ~w:(U.um 1.) ~j:0. ())
  in
  let inj = Array.make 4 0. in
  inj.(0) <- 2e-4;
  inj.(3) <- -2e-4;
  let s = (Kcl.solve cu geom ~injections:inj).Kcl.structure in
  check_against_closed_form "mesh" s

let test_steady_interior_profile_linear () =
  let l = U.um 10. and j = 2e10 in
  let s = St.single (seg ~l ~w:(U.um 1.) ~j ()) in
  let sol = Psteady.solve_structure ~tol:1e-13 cu s in
  let beta = M.beta cu in
  (* sigma(x) = beta j (l/2 - x). *)
  List.iter
    (fun frac ->
      let x = frac *. l in
      check_close ~rtol:1e-6 ~atol:1e2
        (Printf.sprintf "profile at %.2f l" frac)
        (beta *. j *. ((l /. 2.) -. x))
        (Psteady.sample sol ~seg:0 ~x))
    [ 0.; 0.25; 0.5; 0.75; 1. ]

let test_steady_mass_gauge () =
  let s = St.line [ seg ~l:(U.um 6.) ~w:(U.um 2.) ~j:4e10 ();
                    seg ~l:(U.um 14.) ~w:(U.um 0.3) ~j:(-2e10) () ] in
  let sol = Psteady.solve_structure ~tol:1e-13 cu s in
  check_close ~atol:1e-9 "discrete Lemma 3" 0. (Psteady.mass_total sol);
  check_close ~atol:1e-8 "stiffness residual" 0.
    (Asm.residual_norm sol.Psteady.assembly sol.Psteady.sigma)

(* ---------------------------------------------------------------- *)
(* Transient solver                                                  *)

let test_transient_reaches_steady () =
  let s = St.line [ seg ~l:(U.um 12.) ~w:(U.um 1.) ~j:3e9 ();
                    seg ~l:(U.um 25.) ~w:(U.um 0.6) ~j:8e9 () ] in
  let mesh = Mesh.discretize ~target_dx:(U.um 1.) s in
  let r = Kor.run cu mesh in
  Alcotest.(check bool) "declares steady" true r.Kor.steady;
  let closed = Ss.solve cu s in
  let scale =
    Array.fold_left (fun a v -> Float.max a (Float.abs v)) 1e4
      closed.Ss.node_stress
  in
  Array.iteri
    (fun v expected ->
      check_close ~rtol:1e-4 ~atol:(1e-4 *. scale)
        (Printf.sprintf "transient limit node %d" v)
        expected r.Kor.node_stress.(v))
    closed.Ss.node_stress

let test_transient_mass_conserved_along_the_way () =
  let s = St.single (seg ~l:(U.um 20.) ~w:(U.um 1.) ~j:1e10 ()) in
  let mesh = Mesh.discretize ~target_dx:(U.um 1.) s in
  let r = Kor.run cu mesh in
  (* Starting from zero total stress-mass, the conservative scheme keeps
     it ~0 at the end as well. *)
  let acc = ref 0. in
  Array.iteri
    (fun i v -> acc := !acc +. (mesh.Mesh.control_volume.(i) *. v))
    r.Kor.sigma;
  let scale =
    Mesh.total_volume mesh *. Numerics.Vector.norm_inf r.Kor.sigma
  in
  check_close ~atol:1e-8 "transient mass" 0. (!acc /. Float.max 1e-300 scale)

let test_transient_monotone_peak_growth () =
  (* From zero stress the peak |stress| grows monotonically to steady
     state for a single segment. *)
  let s = St.single (seg ~l:(U.um 30.) ~w:(U.um 1.) ~j:2e10 ()) in
  let r = Kor.run_structure ~target_dx:(U.um 1.5) cu s in
  let p = r.Kor.trace.Kor.peak_stress in
  for i = 1 to Array.length p - 1 do
    Alcotest.(check bool) "monotone" true (p.(i) >= p.(i - 1) -. 1.)
  done

let test_time_to_critical () =
  (* A clearly mortal wire must cross the threshold at a finite time;
     time_to_critical must find it and it must be positive. *)
  let jl_crit = M.jl_crit cu in
  let l = U.um 50. in
  let s = St.single (seg ~l ~w:(U.um 1.) ~j:(3. *. jl_crit /. l) ()) in
  let r = Kor.run_structure ~target_dx:(U.um 2.) cu s in
  (match Kor.time_to_critical r ~threshold:(M.effective_critical_stress cu) with
  | None -> Alcotest.fail "mortal wire must nucleate"
  | Some t ->
    Alcotest.(check bool) "positive time" true (t > 0.);
    Alcotest.(check bool) "before end of run" true (t <= r.Kor.time));
  (* An immortal wire never crosses. *)
  let s2 = St.single (seg ~l ~w:(U.um 1.) ~j:(0.3 *. jl_crit /. l) ()) in
  let r2 = Kor.run_structure ~target_dx:(U.um 2.) cu s2 in
  Alcotest.(check bool) "immortal never crosses" true
    (Kor.time_to_critical r2 ~threshold:(M.effective_critical_stress cu) = None)

let test_transient_options_guard () =
  let s = St.single (seg ~l:(U.um 10.) ~w:(U.um 1.) ~j:1e10 ()) in
  let mesh = Mesh.discretize s in
  check_raises_invalid "bad growth" (fun () ->
      ignore (Kor.run ~options:{ Kor.default_options with Kor.growth = 0.9 } cu mesh))

(* Random cross-validation: the PDE solver and the closed form agree on
   random trees. *)
let prop_pde_matches_closed_form (n, seed) =
  let rng = Rng.create (Int64.of_int (seed + 13)) in
  let s =
    St.random_tree rng ~num_nodes:n (fun _ ->
        seg
          ~l:(U.um (Rng.uniform rng 2. 30.))
          ~w:(U.um (Rng.uniform rng 0.3 1.5))
          ~j:(Rng.uniform rng (-4e10) 4e10)
          ())
  in
  let closed = (Ss.solve cu s).Ss.node_stress in
  let pde =
    (Psteady.solve_structure ~tol:1e-12 ~target_dx:(U.um 2.) cu s)
      .Psteady.node_stress
  in
  let scale =
    Array.fold_left (fun a v -> Float.max a (Float.abs v)) 1e5 closed
  in
  Array.for_all2
    (fun a b -> Float.abs (a -. b) <= 1e-5 *. scale)
    closed pde


(* ---------------------------------------------------------------- *)
(* Analytic transient solution (Korhonen series)                     *)

module An = Empde.Analytic

let test_analytic_limits () =
  let l = U.um 30. and j = 2e10 in
  (* t = 0: zero stress everywhere (series telescopes). *)
  List.iter
    (fun frac ->
      check_close ~atol:1e0 (Printf.sprintf "t=0 at %.2f l" frac) 0.
        (An.stress cu ~length:l ~j ~x:(frac *. l) ~t:0.))
    [ 0.; 0.25; 0.5; 1. ];
  (* t -> infinity: the linear steady profile. *)
  let t_inf = 100. *. An.time_constant cu ~length:l in
  List.iter
    (fun frac ->
      let x = frac *. l in
      check_close ~rtol:1e-9 ~atol:1e-3
        (Printf.sprintf "steady at %.2f l" frac)
        (M.beta cu *. j *. ((l /. 2.) -. x))
        (An.stress cu ~length:l ~j ~x ~t:t_inf))
    [ 0.; 0.25; 0.5; 1. ]

let test_analytic_monotone_peak () =
  let l = U.um 30. and j = 2e10 in
  let tau = An.time_constant cu ~length:l in
  let prev = ref (-1.) in
  List.iter
    (fun frac ->
      let p = An.peak_stress cu ~length:l ~j ~t:(frac *. tau) in
      Alcotest.(check bool) "monotone growth" true (p > !prev);
      prev := p)
    [ 0.01; 0.05; 0.2; 0.5; 1.; 2.; 5. ]

let test_analytic_guards () =
  check_raises_invalid "x out of range" (fun () ->
      ignore (An.stress cu ~length:1e-6 ~j:1e10 ~x:2e-6 ~t:0.));
  check_raises_invalid "negative t" (fun () ->
      ignore (An.stress cu ~length:1e-6 ~j:1e10 ~x:0. ~t:(-1.)))

let transient_at_time s t steps =
  let dt = t /. float_of_int steps in
  let options =
    { Kor.default_options with
      Kor.dt0 = dt; growth = 1.; max_steps = steps; steady_rtol = 0. }
  in
  Kor.run_structure ~options ~target_dx:(U.um 0.5) cu s

let test_transient_matches_analytic_midway () =
  (* The FV transient against the series at t = tau/2, where the stress
     is in full flight (~60% of steady). Implicit Euler is O(dt). *)
  let l = U.um 30. and j = 2e10 in
  let s = St.single (seg ~l ~w:(U.um 1.) ~j ()) in
  let tau = An.time_constant cu ~length:l in
  let t = tau /. 2. in
  let r = transient_at_time s t 400 in
  check_close ~rtol:1e-12 "time accounting" t r.Kor.time;
  let exact = An.peak_stress cu ~length:l ~j ~t in
  check_close ~rtol:0.01 "peak vs series" exact r.Kor.node_stress.(0);
  (* And at an interior point. *)
  let x = 0.3 *. l in
  let mesh_value =
    Empde.Mesh1d.interpolate r.Kor.assembly.Empde.Assembly.mesh r.Kor.sigma
      ~seg:0 ~x
  in
  check_close ~rtol:0.02 ~atol:1e4 "interior vs series"
    (An.stress cu ~length:l ~j ~x ~t)
    mesh_value

let test_transient_first_order_convergence () =
  (* Halving dt should roughly halve the time-discretization error. *)
  let l = U.um 30. and j = 2e10 in
  let s = St.single (seg ~l ~w:(U.um 1.) ~j ()) in
  let tau = An.time_constant cu ~length:l in
  let t = tau /. 2. in
  let exact = An.peak_stress cu ~length:l ~j ~t in
  let err steps =
    Float.abs ((transient_at_time s t steps).Kor.node_stress.(0) -. exact)
  in
  let e100 = err 100 and e200 = err 200 in
  let ratio = e100 /. e200 in
  Alcotest.(check bool)
    (Printf.sprintf "first order (ratio %.2f)" ratio)
    true
    (ratio > 1.5 && ratio < 3.)

let test_analytic_nucleation_time () =
  let l = U.um 50. in
  let jl_crit = M.jl_crit cu in
  (* Immortal wire: no nucleation. *)
  Alcotest.(check bool) "immortal -> None" true
    (An.nucleation_time cu ~length:l ~j:(0.8 *. jl_crit /. l) = None);
  (* Mortal wire: finite, and the peak at that time equals the
     threshold. *)
  (match An.nucleation_time cu ~length:l ~j:(2. *. jl_crit /. l) with
  | None -> Alcotest.fail "mortal wire must nucleate"
  | Some t ->
    check_close ~rtol:1e-6 "peak at t_nuc = threshold"
      (M.effective_critical_stress cu)
      (An.peak_stress cu ~length:l ~j:(2. *. jl_crit /. l) ~t));
  (* Harder drive nucleates sooner. *)
  let t2 = Option.get (An.nucleation_time cu ~length:l ~j:(2. *. jl_crit /. l)) in
  let t4 = Option.get (An.nucleation_time cu ~length:l ~j:(4. *. jl_crit /. l)) in
  Alcotest.(check bool) "monotone in j" true (t4 < t2)

let test_transient_nucleation_vs_analytic () =
  (* The FV solver's time_to_critical agrees with the series inversion
     within the coarse geometric-step resolution. *)
  let l = U.um 50. in
  let j = 2.5 *. M.jl_crit cu /. l in
  let s = St.single (seg ~l ~w:(U.um 1.) ~j ()) in
  let options = { Kor.default_options with Kor.growth = 1.15; max_steps = 400 } in
  let r = Kor.run_structure ~options ~target_dx:(U.um 1.) cu s in
  match
    ( Kor.time_to_critical r ~threshold:(M.effective_critical_stress cu),
      An.nucleation_time cu ~length:l ~j )
  with
  | Some t_fv, Some t_exact ->
    check_close ~rtol:0.15 "nucleation times agree" t_exact t_fv
  | _ -> Alcotest.fail "both must nucleate"

let test_crank_nicolson_second_order () =
  (* theta = 0.5 error falls ~4x when dt halves (vs ~2x for theta = 1). *)
  let l = U.um 30. and j = 2e10 in
  let s = St.single (seg ~l ~w:(U.um 1.) ~j ()) in
  let tau = An.time_constant cu ~length:l in
  let t = tau /. 2. in
  let run_cn steps =
    let dt = t /. float_of_int steps in
    let options =
      { Kor.dt0 = dt; growth = 1.; max_steps = steps; steady_rtol = 0.;
        theta = 0.5; cg_tol = 1e-13 }
    in
    (Kor.run_structure ~options ~target_dx:(U.um 0.5) cu s).Kor.node_stress.(0)
  in
  (* Self-convergence against a much finer CN run cancels the (shared)
     spatial discretization error, isolating the temporal order. *)
  let reference = run_cn 800 in
  let e50 = Float.abs (run_cn 50 -. reference) in
  let e100 = Float.abs (run_cn 100 -. reference) in
  let ratio = e50 /. e100 in
  Alcotest.(check bool)
    (Printf.sprintf "second order (ratio %.2f)" ratio)
    true
    (ratio > 3. && ratio < 6.);
  (* And CN tracks the analytic series closely in absolute terms. *)
  let exact = An.peak_stress cu ~length:l ~j ~t in
  T_helpers.check_close ~rtol:5e-3 "CN vs series" exact (run_cn 100)

let test_theta_guard () =
  let s = St.single (seg ~l:(U.um 10.) ~w:(U.um 1.) ~j:1e10 ()) in
  let mesh = Mesh.discretize s in
  check_raises_invalid "theta below 0.5" (fun () ->
      ignore
        (Kor.run ~options:{ Kor.default_options with Kor.theta = 0.2 } cu mesh))

let suites =
  [
    ( "pde.mesh1d",
      [
        case "point counts and numbering" test_mesh_counts;
        case "min_cells" test_mesh_min_cells;
        case "volume partition" test_mesh_volume;
        case "interpolation" test_mesh_interpolation;
      ] );
    ( "pde.assembly",
      [ case "symmetry and conservation" test_assembly_symmetric_and_conservative ] );
    ( "pde.steady",
      [
        case "single segment" test_steady_single_segment;
        case "two-segment line" test_steady_two_segment;
        case "T junction" test_steady_t_junction;
        case "mesh with cycle" test_steady_mesh_cycle;
        case "linear interior profile" test_steady_interior_profile_linear;
        case "mass gauge" test_steady_mass_gauge;
      ] );
    ( "pde.transient",
      [
        case "reaches steady state" test_transient_reaches_steady;
        case "mass conserved" test_transient_mass_conserved_along_the_way;
        case "monotone peak growth" test_transient_monotone_peak_growth;
        case "time to critical" test_time_to_critical;
        case "options guard" test_transient_options_guard;
      ] );
    ( "pde.analytic",
      [
        case "t=0 and steady limits" test_analytic_limits;
        case "monotone peak growth" test_analytic_monotone_peak;
        case "guards" test_analytic_guards;
        case "FV matches series midway" test_transient_matches_analytic_midway;
        case "implicit Euler is first order" test_transient_first_order_convergence;
        case "Crank-Nicolson is second order" test_crank_nicolson_second_order;
        case "theta guard" test_theta_guard;
        case "series nucleation time" test_analytic_nucleation_time;
        case "FV nucleation vs series" test_transient_nucleation_vs_analytic;
      ] );
    ( "pde.properties",
      [
        qcheck ~count:25 "PDE matches closed form on random trees"
          QCheck2.Gen.(pair (int_range 2 12) (int_bound 100000))
          prop_pde_matches_closed_form;
      ] );
  ]

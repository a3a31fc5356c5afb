(* Bechamel micro-benchmarks: one Test.make per experiment kernel, so the
   cost of each table/figure's inner loop is tracked precisely. *)

open Bechamel
open Toolkit
module St = Em_core.Structure
module Ss = Em_core.Steady_state
module M = Em_core.Material
module U = Em_core.Units
module Rng = Numerics.Rng

let cu = M.cu_dac21

let random_tree n seed =
  let rng = Rng.create seed in
  St.random_tree rng ~num_nodes:n (fun _ ->
      St.segment
        ~length:(U.um (Rng.uniform rng 2. 80.))
        ~width:(U.um (Rng.uniform rng 0.2 2.))
        ~j:(Rng.uniform rng (-5e10) 5e10)
        ())

let tests () =
  (* Prebuilt workloads so the benchmarks measure analysis, not setup. *)
  let tree_10k = random_tree 10_000 3L in
  let tree_100 = random_tree 100 5L in
  let mesh =
    let geom =
      St.grid_mesh ~rows:20 ~cols:20 (fun ~horizontal:_ _ _ ->
          St.segment ~length:(U.um 5.) ~width:(U.um 1.) ~j:0. ())
    in
    let inj = Array.make (St.num_nodes geom) 0. in
    inj.(0) <- 1e-3;
    inj.(St.num_nodes geom - 1) <- -1e-3;
    (Em_core.Kirchhoff.solve cu geom ~injections:inj).Em_core.Kirchhoff.structure
  in
  let pg1_compacts =
    let grid = Pdn.Grid_gen.generate (Pdn.Grid_gen.ibm_preset ~scale:0.5 Pdn.Grid_gen.Pg1) in
    let sol = Spice.Mna.solve grid.Pdn.Grid_gen.netlist in
    Emflow.Extract.extract_compact ~tech:grid.Pdn.Grid_gen.tech sol
  in
  let fig6_mesh = Emflow.Fig6.mesh in
  [
    Test.make ~name:"fig6: closed-form solve (mesh)"
      (Staged.stage (fun () -> ignore (Ss.solve cu fig6_mesh)));
    Test.make ~name:"fig6: FV steady solve (mesh)"
      (Staged.stage (fun () ->
           ignore (Empde.Steady.solve_structure ~tol:1e-10 cu fig6_mesh)));
    Test.make ~name:"table2/3 kernel: EM analysis of extracted structures"
      (Staged.stage (fun () ->
           ignore (Emflow.Em_flow.run_on_compact pg1_compacts)));
    Test.make ~name:"scaling: linear-time solve, 10k-edge tree"
      (Staged.stage (fun () -> ignore (Ss.solve cu tree_10k)));
    Test.make ~name:"scaling: naive Eq.(19), 100-edge tree"
      (Staged.stage (fun () -> ignore (Em_core.Baseline_naive.solve cu tree_100)));
    Test.make ~name:"scaling: linear system (CG), 400-node mesh"
      (Staged.stage (fun () -> ignore (Em_core.Baseline_linsys.solve cu mesh)));
    Test.make ~name:"fig7/8 kernel: Blech filter, 10k segments"
      (Staged.stage (fun () -> ignore (Em_core.Blech.filter cu tree_10k)));
    Test.make ~name:"graph kernel: BFS Blech sums, 10k-edge tree"
      (Staged.stage (fun () ->
           ignore (Em_core.Blech_sum.to_all_nodes tree_10k ~reference:0)));
    Test.make ~name:"sensitivity: full gradient, 10k-edge tree"
      (Staged.stage (fun () ->
           ignore (Em_core.Sensitivity.stress_gradient cu tree_10k ~node:0)));
    Test.make ~name:"analytic: Korhonen series peak (2000 terms)"
      (Staged.stage (fun () ->
           ignore
             (Empde.Analytic.peak_stress cu ~length:50e-6 ~j:2e10 ~t:1e7)));
    (let mna_matrix =
       (* Reduced SPD grid matrix, prebuilt. *)
       let b = Numerics.Sparse.Builder.create 400 400 in
       for r = 0 to 19 do
         for c = 0 to 19 do
           let i = (r * 20) + c in
           Numerics.Sparse.Builder.add b i i 4.1;
           if c < 19 then begin
             Numerics.Sparse.Builder.add b i (i + 1) (-1.);
             Numerics.Sparse.Builder.add b (i + 1) i (-1.)
           end;
           if r < 19 then begin
             Numerics.Sparse.Builder.add b i (i + 20) (-1.);
             Numerics.Sparse.Builder.add b (i + 20) i (-1.)
           end
         done
       done;
       Numerics.Sparse.Builder.to_csr b
     in
     let rhs = Array.init 400 (fun i -> sin (float_of_int i)) in
     Test.make ~name:"numerics: LDL^T factorize+solve, 400-node grid"
       (Staged.stage (fun () ->
            ignore
              (Numerics.Cholesky.solve
                 (Numerics.Cholesky.factorize mna_matrix)
                 rhs))));
  ]

let run (_ : B_util.config) =
  B_util.heading "Bechamel micro-benchmarks (monotonic clock, ns/run)";
  let grouped = Test.make_grouped ~name:"blech" ~fmt:"%s %s" (tests ()) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances grouped in
  let results =
    Analyze.merge ols instances
      (List.map (fun instance -> Analyze.all ols instance raw) instances)
  in
  let table = Emflow.Report.create [ "benchmark"; "time/run" ] in
  Hashtbl.iter
    (fun _measure by_test ->
      let rows =
        Hashtbl.fold
          (fun name ols_result acc ->
            let est =
              match Analyze.OLS.estimates ols_result with
              | Some (x :: _) -> x
              | _ -> Float.nan
            in
            (name, est) :: acc)
          by_test []
        |> List.sort compare
      in
      List.iter
        (fun (name, ns) ->
          Emflow.Report.add_row table
            [ name; Emflow.Report.seconds_cell (ns *. 1e-9) ])
        rows)
    results;
  Emflow.Report.print table

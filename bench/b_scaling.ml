(* E7: runtime scaling of the linear-time test against the slow exact
   baselines — the paper's "few minutes vs over an hour" comparison
   against Sun et al. [19]. Workloads are random multi-segment trees with
   random currents (trees impose no cycle-consistency constraint). *)

module St = Em_core.Structure
module Cc = Em_core.Compact
module Ss = Em_core.Steady_state
module Naive = Em_core.Baseline_naive
module Linsys = Em_core.Baseline_linsys
module U = Em_core.Units
module M = Em_core.Material
module Rp = Emflow.Report
module J = Emflow.Json_out
module Rng = Numerics.Rng

let cu = M.cu_dac21

let tree_of_size n seed =
  let rng = Rng.create seed in
  St.random_tree rng ~num_nodes:(n + 1) (fun _ ->
      St.segment
        ~length:(U.um (Rng.uniform rng 2. 80.))
        ~width:(U.um (Rng.uniform rng 0.2 2.))
        ~j:(Rng.uniform rng (-5e10) 5e10)
        ())

(* Best-of-[reps] wall time: the steady state of each solve, not one
   cold run's GC luck. *)
let best_of reps f =
  let result, t0 = B_util.wall f in
  let best = ref t0 in
  for _ = 2 to reps do
    let _, t = B_util.wall f in
    if t < !best then best := t
  done;
  (result, !best)

let run cfg =
  B_util.heading
    "Runtime scaling: linear-time test vs naive Eq.(19) vs linear system";
  let sizes =
    if cfg.B_util.full then [ 1_000; 3_000; 10_000; 30_000; 100_000; 300_000; 1_000_000 ]
    else [ 1_000; 3_000; 10_000; 30_000; 100_000; 300_000 ]
  in
  let naive_cap = if cfg.B_util.full then 30_000 else 10_000 in
  let linsys_cap = if cfg.B_util.full then 300_000 else 100_000 in
  let reps = 3 in
  (* Sub-millisecond rows are dominated by timer/GC noise at 3 reps;
     best-of-15 stabilizes them at negligible extra cost. *)
  let reps_for n = if n <= 30_000 then 15 else reps in
  let ws = Ss.Workspace.create () in
  let table =
    Rp.create
      [
        "edges"; "convert"; "columnar"; "seg/s (col.)"; "naive O(VE)";
        "lin. system (CG)";
      ]
  in
  let rows = ref [] in
  let throughput = Hashtbl.create 8 in
  List.iter
    (fun n ->
      let s = tree_of_size n 17L in
      let c, t_convert = best_of (reps_for n) (fun () -> Cc.of_structure s) in
      let csol, t_compact =
        best_of (reps_for n) (fun () -> Ss.solve_compact ~ws cu c)
      in
      (* The workspace's buffers are reused by the next solve. *)
      let stress = Array.copy csol.Ss.node_stress in
      let segs_per_s = float_of_int n /. t_compact in
      Hashtbl.replace throughput n segs_per_s;
      let naive =
        if n <= naive_cap then begin
          let sol', t = B_util.wall (fun () -> Naive.solve cu s) in
          assert (
            Numerics.Stats.max_rel_error sol'.Ss.node_stress stress < 1e-6);
          Some t
        end
        else None
      in
      let linsys =
        if n <= linsys_cap then begin
          let sol', t = B_util.wall (fun () -> Linsys.solve ~tol:1e-12 cu s) in
          assert (
            Numerics.Stats.max_rel_error sol'.Ss.node_stress stress < 1e-3);
          Some t
        end
        else None
      in
      let opt_cell = function Some t -> Rp.seconds_cell t | None -> "(skipped)" in
      Rp.add_row table
        [
          Rp.int_cell n;
          Rp.seconds_cell t_convert;
          Rp.seconds_cell t_compact;
          Printf.sprintf "%.2e" segs_per_s;
          opt_cell naive;
          opt_cell linsys;
        ];
      let opt_json = function Some t -> J.Float t | None -> J.Null in
      rows :=
        J.Obj
          [
            ("edges", J.Int n);
            ( "stages",
              J.List
                [
                  J.Obj [ ("name", J.String "convert"); ("wall_s", J.Float t_convert) ];
                  J.Obj
                    [ ("name", J.String "solve_columnar"); ("wall_s", J.Float t_compact) ];
                ] );
            ("convert_s", J.Float t_convert);
            ("columnar_s", J.Float t_compact);
            ("columnar_segments_per_s", J.Float segs_per_s);
            ("naive_s", opt_json naive);
            ("linsys_s", opt_json linsys);
          ]
        :: !rows)
    sizes;
  Rp.print table;
  (* Cache cliff: columnar throughput at 3k edges over that at 30k
     (lower is better, 1.0 = no cliff). 30k nodes no longer fit in L2,
     so this ratio tracks how well the columnar solve holds throughput
     once the working set spills. *)
  let cliff =
    match
      ( Hashtbl.find_opt throughput 3_000,
        Hashtbl.find_opt throughput 30_000 )
    with
    | Some a, Some b when b > 0. -> Some (a /. b)
    | _ -> None
  in
  (match cliff with
  | Some r -> B_util.note "Columnar throughput cliff (3k/30k): %.2fx." r
  | None -> ());
  B_util.ensure_out_dir cfg;
  let json_path = B_util.out_path cfg "BENCH_scaling.json" in
  let oc = open_out json_path in
  J.to_channel oc
    (J.Obj
       ([
          ("bench", J.String "scaling");
          ("full", J.Bool cfg.B_util.full);
          ("reps", J.Int reps);
        ]
       @ (match cliff with
         | Some r -> [ ("columnar_throughput_cliff_ratio", J.Float r) ]
         | None -> [])
       @ [ ("rows", J.List (List.rev !rows)) ]));
  output_char oc '\n';
  close_out oc;
  B_util.note "Per-size timings written to %s." json_path;
  B_util.note
    "The naive per-node evaluation of Eq. (19) grows superlinearly (the";
  B_util.note
    "regime of [19]'s per-structure closed forms, >1 h on IBM grids per the";
  B_util.note
    "paper); the linear-time method stays proportional to |E|. Its stresses";
  B_util.note
    "are asserted against both independent baselines where they run."

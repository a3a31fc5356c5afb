(* Ablation: the max-path jl heuristic of refs [12,13] run side-by-side
   with the traditional filter against the exact test — quantifying the
   claim (paper Sec. I, citing [15]) that thresholding the largest path
   jl sum is incorrect. *)

module Gg = Pdn.Grid_gen
module Op = Pdn.Openpdn
module Ir = Pdn.Irdrop
module Flow = Emflow.Em_flow
module Cl = Em_core.Classify
module Rp = Emflow.Report

let add_rows table name (r : Flow.result) =
  let c = r.Flow.counts in
  Rp.add_row table
    [
      name; "traditional Blech"; Rp.int_cell c.Cl.tp; Rp.int_cell c.Cl.tn;
      Rp.int_cell c.Cl.fp; Rp.int_cell c.Cl.fn; Rp.pct_cell (Cl.accuracy c);
    ];
  match r.Flow.maxpath_counts with
  | None -> ()
  | Some mc ->
    Rp.add_row table
      [
        name; "max-path jl [12,13]"; Rp.int_cell mc.Cl.tp; Rp.int_cell mc.Cl.tn;
        Rp.int_cell mc.Cl.fp; Rp.int_cell mc.Cl.fn; Rp.pct_cell (Cl.accuracy mc);
      ]

let add_jmax_row table name grid =
  let sol = Spice.Mna.solve grid.Pdn.Grid_gen.netlist in
  let structures = Emflow.Extract.extract_compact ~tech:grid.Pdn.Grid_gen.tech sol in
  let c =
    Emflow.Jmax.compare_against_exact ~tech:grid.Pdn.Grid_gen.tech structures
  in
  Rp.add_row table
    [
      name; "j-limit (Black-style)"; Rp.int_cell c.Cl.tp; Rp.int_cell c.Cl.tn;
      Rp.int_cell c.Cl.fp; Rp.int_cell c.Cl.fn; Rp.pct_cell (Cl.accuracy c);
    ]

let run cfg =
  B_util.heading
    "Ablation: per-segment filters (Blech, max-path, j-limit) vs exact";
  let table =
    Rp.create [ "workload"; "filter"; "TP"; "TN"; "FP"; "FN"; "accuracy" ]
  in
  (* IBM-like grid. *)
  let spec = Gg.ibm_preset ~scale:(B_util.ibm_scale cfg Gg.Pg1) Gg.Pg1 in
  let grid = Gg.generate spec in
  add_rows table "ibmpg1-like" (Flow.run ~with_maxpath:true grid);
  add_jmax_row table "ibmpg1-like" grid;
  (* One OpenROAD-style circuit. *)
  let c = List.find (fun c -> c.Op.node = Op.N45) Op.table3_circuits in
  let g = Op.synthesize_circuit c in
  let scaled, _ =
    Ir.scale_to_ir ~metric:Ir.Mean g ~target:(B_util.table3_ir_target c)
  in
  add_rows table
    (Printf.sprintf "%s/45nm" c.Op.circuit_name)
    (Flow.run ~with_maxpath:true scaled);
  add_jmax_row table (Printf.sprintf "%s/45nm" c.Op.circuit_name) scaled;
  Rp.print table;
  B_util.note
    "The heuristic ignores mass conservation, so it both clears mortal";
  B_util.note
    "segments and flags immortal ones in patterns uncorrelated with the";
  B_util.note "exact stress. Positive = deemed immortal, truth = exact test.";
  print_newline ();
  (* Design-choice ablation: the load-tap pitch controls how finely the
     rails are segmented, which is exactly what breaks the traditional
     filter (short segments, accumulated Blech sums). *)
  Printf.printf
    "Tap-pitch ablation (dynamic_node/45nm, fixed mean-IR operating point):\n";
  let tap_table =
    Rp.create
      [ "tap pitch"; "E"; "TP"; "TN"; "FP"; "FN"; "FP rate" ]
  in
  let c = List.find (fun c -> c.Op.node = Op.N45) Op.table3_circuits in
  List.iter
    (fun tap_um ->
      let spec =
        { (Op.circuit_spec c) with Op.bottom_tap_pitch = Some (tap_um *. 1e-6) }
      in
      let g = Op.synthesize spec in
      let scaled, _ =
        Ir.scale_to_ir ~metric:Ir.Mean g ~target:(B_util.table3_ir_target c)
      in
      let r = Flow.run scaled in
      let x = r.Flow.counts in
      Rp.add_row tap_table
        [
          Printf.sprintf "%.0f um" tap_um;
          Rp.int_cell (Cl.total x);
          Rp.int_cell x.Cl.tp;
          Rp.int_cell x.Cl.tn;
          Rp.int_cell x.Cl.fp;
          Rp.int_cell x.Cl.fn;
          Rp.pct_cell (Cl.false_positive_rate x);
        ])
    [ 40.; 20.; 10.; 5. ];
  Rp.print tap_table;
  B_util.note
    "Finer taps shorten segments: each one passes the jl filter more";
  B_util.note
    "easily while the accumulated stress stays, so the Blech FP count is";
  B_util.note "a direct function of rail segmentation."

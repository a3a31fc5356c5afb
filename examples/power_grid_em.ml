(* Power-grid EM screening end-to-end (Table II in miniature):

   1. synthesize an IBM-style multi-layer Vdd/Vss grid,
   2. solve its DC operating point and scale loads to a target IR drop,
   3. extract per-layer EM structures,
   4. compare the traditional Blech filter against the exact test,
   5. list the most endangered structures.

   Run with: dune exec examples/power_grid_em.exe *)

module Gg = Pdn.Grid_gen
module Ir = Pdn.Irdrop
module Flow = Emflow.Em_flow
module Ex = Emflow.Extract
module Rp = Emflow.Report
module N = Spice.Netlist
module M = Em_core.Material
module U = Em_core.Units
module Im = Em_core.Immortality
module Cl = Em_core.Classify

let () =
  let spec = Gg.ibm_preset ~scale:0.2 Gg.Pg1 in
  Format.printf "Technology:@.%a@.@." Pdn.Tech.pp spec.Gg.tech;
  let grid = Gg.generate spec in
  let stats = N.stats grid.Gg.netlist in
  Format.printf
    "Synthesized grid: %d nodes, %d resistors (%d wires + %d vias), %d pads, \
     %d loads@."
    stats.N.nodes stats.N.resistors grid.Gg.num_wires grid.Gg.num_vias
    grid.Gg.num_pads grid.Gg.num_loads;

  (* IR-drop scaling: EM stress scales with the currents, so the target
     drop directly controls how aggressive the grid is. *)
  let target = 0.04 in
  let scaled, analysis = Ir.scale_to_ir grid ~target in
  Format.printf
    "IR drop after scaling: worst Vdd %.2f mV, worst Vss %.2f mV, mean %.2f mV@.@."
    (analysis.Ir.worst_vdd_drop *. 1e3)
    (analysis.Ir.worst_vss_rise *. 1e3)
    (analysis.Ir.mean_drop *. 1e3);

  (* Full flow: solve, extract, classify. *)
  let v =
    Flow.analyze_deck ~with_maxpath:true ~tech:scaled.Gg.tech
      (Flow.of_netlist scaled.Gg.netlist)
  in
  let r = v.Flow.result in
  Format.printf "%a@.@." Flow.pp_summary r;

  let c = r.Flow.counts in
  let table = Rp.create [ "filter"; "TP"; "TN"; "FP"; "FN"; "accuracy" ] in
  Rp.add_row table
    [
      "traditional Blech"; Rp.int_cell c.Cl.tp; Rp.int_cell c.Cl.tn;
      Rp.int_cell c.Cl.fp; Rp.int_cell c.Cl.fn; Rp.pct_cell (Cl.accuracy c);
    ];
  (match r.Flow.maxpath_counts with
  | Some mc ->
    Rp.add_row table
      [
        "max-path jl [12,13]"; Rp.int_cell mc.Cl.tp; Rp.int_cell mc.Cl.tn;
        Rp.int_cell mc.Cl.fp; Rp.int_cell mc.Cl.fn; Rp.pct_cell (Cl.accuracy mc);
      ]
  | None -> ());
  Rp.print table;

  (* Rank structures by stress margin to find the most endangered nets. *)
  let structures = Array.of_list v.Flow.compacts in
  Format.printf "@.Most endangered structures (smallest stress margin):@.";
  List.iteri
    (fun rank i ->
      if rank < 5 then begin
        let cs = structures.(i) and st = r.Flow.structure_stats.(i) in
        Format.printf
          "  M%d component, %3d segments: peak %.2f MPa (margin %+.2f MPa) at %s@."
          cs.Ex.cs_layer_level st.Flow.st_segments
          (U.pa_to_mpa st.Flow.st_max_stress)
          (U.pa_to_mpa st.Flow.st_margin)
          (Ex.node_name cs st.Flow.st_peak_node)
      end)
    (Flow.ranking r);

  (* And the repair price for everything mortal. *)
  let plan = Emflow.Fixer.plan_of_result v.Flow.compacts r in
  Format.printf
    "@.Fixing all %d mortal structures by uniform widening costs %.1f \
     um^2 of metal.@."
    plan.Emflow.Fixer.mortal_structures
    (plan.Emflow.Fixer.total_extra_area *. 1e12)

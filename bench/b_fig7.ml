(* E4 (Fig. 7): current density vs length scatter for the ibmpg6-like
   grid, with traditional-Blech correctness markers and the critical
   contour. *)

module Gg = Pdn.Grid_gen
module Flow = Emflow.Em_flow
module Sc = Emflow.Scatter
module M = Em_core.Material

let run cfg =
  B_util.heading "Fig. 7: inaccuracy of the traditional Blech filter (ibmpg6-like)";
  let scale = B_util.ibm_scale cfg Gg.Pg6 in
  let spec = Gg.ibm_preset ~scale Gg.Pg6 in
  let grid = Gg.generate spec in
  let v =
    Flow.analyze_deck ~tech:grid.Gg.tech (Flow.of_netlist grid.Gg.netlist)
  in
  let points = Sc.of_result v.Flow.compacts v.Flow.result in
  print_string (Sc.ascii ~jl_crit:(M.jl_crit M.cu_dac21) points);
  print_newline ();
  B_util.note "%s" (Sc.summary points);
  B_util.ensure_out_dir cfg;
  let path = B_util.out_path cfg "fig7_ibmpg6_scatter.csv" in
  Sc.write_csv path points;
  B_util.note "series written to %s" path;
  let svg_path = B_util.out_path cfg "fig7_ibmpg6_scatter.svg" in
  let oc = open_out svg_path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc
        (Emflow.Svg.scatter
           {
             Emflow.Svg.width = 760;
             height = 460;
             title = "Fig. 7: ibmpg6-like, Blech correctness";
             x_label = "segment length (um, log)";
             y_label = "|j| (A/m^2, log)";
             jl_crit = Some (M.jl_crit M.cu_dac21);
           }
           points));
  B_util.note "figure written to %s" svg_path

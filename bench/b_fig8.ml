(* E6 (Fig. 8): current density vs length scatter for the jpeg/28nm
   OpenROAD-style grid at (jl)_crit = 0.27 A/um. *)

module Op = Pdn.Openpdn
module Ir = Pdn.Irdrop
module Gg = Pdn.Grid_gen
module Flow = Emflow.Em_flow
module Sc = Emflow.Scatter
module M = Em_core.Material

let run cfg =
  B_util.heading "Fig. 8: inaccuracy of the traditional Blech filter (jpeg/28nm)";
  let circuit =
    List.find
      (fun c -> c.Op.circuit_name = "jpeg" && c.Op.node = Op.N28)
      Op.table3_circuits
  in
  let grid = Op.synthesize_circuit circuit in
  let scaled, _ =
    Ir.scale_to_ir ~metric:Ir.Mean grid ~target:(B_util.table3_ir_target circuit)
  in
  let v =
    Flow.analyze_deck ~tech:scaled.Gg.tech (Flow.of_netlist scaled.Gg.netlist)
  in
  let points = Sc.of_result v.Flow.compacts v.Flow.result in
  print_string (Sc.ascii ~jl_crit:(M.jl_crit M.cu_dac21) points);
  print_newline ();
  B_util.note "%s" (Sc.summary points);
  B_util.note
    "Regular PDN structure shows as vertical stripes of equal lengths,";
  B_util.note "as in the paper's figure.";
  B_util.ensure_out_dir cfg;
  let path = B_util.out_path cfg "fig8_jpeg_28nm_scatter.csv" in
  Sc.write_csv path points;
  B_util.note "series written to %s" path;
  let svg_path = B_util.out_path cfg "fig8_jpeg_28nm_scatter.svg" in
  let oc = open_out svg_path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc
        (Emflow.Svg.scatter
           {
             Emflow.Svg.width = 760;
             height = 460;
             title = "Fig. 8: jpeg/28nm, Blech correctness";
             x_label = "segment length (um, log)";
             y_label = "|j| (A/m^2, log)";
             jl_crit = Some (M.jl_crit M.cu_dac21);
           }
           points));
  B_util.note "figure written to %s" svg_path

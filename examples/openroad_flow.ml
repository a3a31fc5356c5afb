(* OpenROAD-style flow (Table III in miniature): template-based PDN
   synthesis for one of the paper's circuits, current scaling to the
   paper's 5 mV IR-drop operating point, and EM filter comparison with
   the Fig. 8 scatter.

   Run with: dune exec examples/openroad_flow.exe [circuit]
   where [circuit] is one of gcd/aes/jpeg (28nm circuits; default gcd). *)

module Op = Pdn.Openpdn
module Gg = Pdn.Grid_gen
module Ir = Pdn.Irdrop
module Flow = Emflow.Em_flow
module Sc = Emflow.Scatter
module N = Spice.Netlist
module M = Em_core.Material
module Cl = Em_core.Classify

let () =
  let wanted = if Array.length Sys.argv > 1 then Sys.argv.(1) else "gcd" in
  let circuit =
    match
      List.find_opt
        (fun c -> c.Op.circuit_name = wanted && c.Op.node = Op.N28)
        Op.table3_circuits
    with
    | Some c -> c
    | None ->
      Format.eprintf "unknown 28nm circuit %s; using gcd@." wanted;
      List.hd Op.table3_circuits
  in
  Format.printf "Circuit %s @ 28nm: die %.0f x %.0f um, paper |E| = %d@."
    circuit.Op.circuit_name (circuit.Op.die *. 1e6) (circuit.Op.die *. 1e6)
    circuit.Op.paper_edges;

  let spec = Op.circuit_spec circuit in
  Format.printf "PDN templates: %s@."
    (String.concat ", "
       (Array.to_list
          (Array.map
             (fun t -> Printf.sprintf "%s (%.1fx pitch)" t.Op.name t.Op.pitch_multiplier)
             spec.Op.templates)));
  let grid = Op.synthesize spec in
  let stats = N.stats grid.Gg.netlist in
  Format.printf "Synthesized: %d resistors (paper %d), %d pads, %d loads@."
    stats.N.resistors circuit.Op.paper_edges grid.Gg.num_pads grid.Gg.num_loads;

  (* The paper's operating point: currents scaled for a 5 mV IR drop. *)
  let scaled, analysis = Ir.scale_to_ir grid ~target:5e-3 in
  Format.printf "IR drop scaled to %.2f mV (mean %.3f mV)@.@."
    (analysis.Ir.worst *. 1e3)
    (analysis.Ir.mean_drop *. 1e3);

  let v =
    Flow.analyze_deck ~tech:scaled.Gg.tech (Flow.of_netlist scaled.Gg.netlist)
  in
  let r = v.Flow.result in
  let c = r.Flow.counts in
  Format.printf "Blech vs exact on %d segments: TP=%d TN=%d FP=%d FN=%d@.@."
    r.Flow.num_segments c.Cl.tp c.Cl.tn c.Cl.fp c.Cl.fn;

  let points = Sc.of_result v.Flow.compacts r in
  Format.printf "%s@.@." (Sc.summary points);
  print_string
    (Sc.ascii ~jl_crit:(M.jl_crit M.cu_dac21) points);
  (* Drop the raw series next to the binary for plotting. *)
  let csv = Printf.sprintf "fig8_%s_28nm.csv" circuit.Op.circuit_name in
  Sc.write_csv csv points;
  Format.printf "@.scatter series written to %s@." csv

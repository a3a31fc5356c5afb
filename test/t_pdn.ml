open T_helpers
module T = Pdn.Tech
module Fp = Pdn.Floorplan
module Gg = Pdn.Grid_gen
module Op = Pdn.Openpdn
module Ir = Pdn.Irdrop
module N = Spice.Netlist
module Rng = Numerics.Rng

let um = 1e-6

(* ---------------------------------------------------------------- *)
(* Tech                                                              *)

let test_tech_presets () =
  List.iter
    (fun tech ->
      Alcotest.(check bool)
        (tech.T.name ^ " has >= 3 layers")
        true
        (Array.length tech.T.layers >= 3);
      Alcotest.(check bool) "positive via" true (tech.T.via_resistance > 0.);
      Alcotest.(check bool) "positive supply" true (tech.T.supply_voltage > 0.);
      (* Directions alternate. *)
      Array.iteri
        (fun i (l : T.layer) ->
          if i > 0 then
            Alcotest.(check bool) "alternating" true
              (l.T.direction <> tech.T.layers.(i - 1).T.direction))
        tech.T.layers)
    [ T.ibm_like; T.n28; T.nangate45 ]

let test_tech_resistance () =
  let layer = T.bottom T.ibm_like in
  (* R = rho * l / (w * t). *)
  let expect =
    layer.T.resistivity *. (100. *. um)
    /. (layer.T.width *. layer.T.thickness)
  in
  check_close ~rtol:1e-12 "wire resistance" expect
    (T.wire_resistance layer ~length:(100. *. um));
  check_close ~rtol:1e-12 "sheet resistance"
    (layer.T.resistivity /. layer.T.thickness)
    (T.sheet_resistance layer)

let test_tech_guards () =
  check_raises_invalid "layer_at range" (fun () ->
      ignore (T.layer_at T.n28 99))

(* ---------------------------------------------------------------- *)
(* Floorplan                                                         *)

let test_floorplan_normalization () =
  let fp =
    Fp.make ~width:(1000. *. um) ~height:(1000. *. um) ~total_current:2.
      [
        { Fp.cx = 200. *. um; cy = 200. *. um; radius = 100. *. um; weight = 3. };
        { Fp.cx = 800. *. um; cy = 800. *. um; radius = 100. *. um; weight = 1. };
      ]
  in
  (* Demand is higher at the heavier hotspot. *)
  let d1 = Fp.demand_at fp ~x:(200. *. um) ~y:(200. *. um) in
  let d2 = Fp.demand_at fp ~x:(800. *. um) ~y:(800. *. um) in
  let dfar = Fp.demand_at fp ~x:(500. *. um) ~y:(50. *. um) in
  Alcotest.(check bool) "heavier hotspot dominates" true (d1 > d2);
  Alcotest.(check bool) "hotspots beat background" true (d2 > dfar);
  Alcotest.(check bool) "background positive" true (dfar > 0.)

let test_floorplan_sample_weights () =
  let rng = Rng.create 5L in
  let fp =
    Fp.random rng ~width:(500. *. um) ~height:(500. *. um) ~total_current:3. ()
  in
  let points =
    Array.init 50 (fun i ->
        (float_of_int (i mod 10) *. 50. *. um, float_of_int (i / 10) *. 100. *. um))
  in
  let w = Fp.sample_weights fp points in
  check_close ~rtol:1e-9 "weights sum to total" 3. (Array.fold_left ( +. ) 0. w);
  Array.iter (fun x -> Alcotest.(check bool) "nonnegative" true (x >= 0.)) w

let test_floorplan_guards () =
  check_raises_invalid "bad die" (fun () ->
      ignore (Fp.make ~width:0. ~height:1. ~total_current:1. []));
  check_raises_invalid "no hotspots, partial uniform" (fun () ->
      ignore (Fp.make ~width:1. ~height:1. ~total_current:1. []));
  (* Fully uniform floorplan without hotspots is fine. *)
  let fp = Fp.make ~uniform_fraction:1. ~width:1. ~height:1. ~total_current:1. [] in
  check_close ~rtol:1e-9 "uniform density" 1. (Fp.demand_at fp ~x:0.5 ~y:0.5)

(* ---------------------------------------------------------------- *)
(* Grid generation                                                   *)

let small_spec =
  {
    Gg.tech = T.ibm_like;
    die_width = 2e-3;
    die_height = 2e-3;
    stripe_counts = [| 24; 18; 10; 6 |];
    pad_every = 4;
    load_fraction = 0.4;
    current_per_net = 0.5;
    bottom_tap_pitch = None;
    voltage_domains = 1;
    seed = 7L;
  }

let test_grid_generation_counts () =
  let g = Gg.generate small_spec in
  let s = N.stats g.Gg.netlist in
  Alcotest.(check bool) "has resistors" true (s.N.resistors > 100);
  Alcotest.(check int) "wires+vias = resistors" s.N.resistors
    (g.Gg.num_wires + g.Gg.num_vias);
  Alcotest.(check int) "loads = current sources" s.N.current_sources g.Gg.num_loads;
  Alcotest.(check int) "pads = voltage sources" s.N.voltage_sources g.Gg.num_pads;
  Alcotest.(check bool) "has pads" true (g.Gg.num_pads > 0);
  Alcotest.(check bool) "has loads" true (g.Gg.num_loads > 0)

let test_grid_estimate_accuracy () =
  let g = Gg.generate small_spec in
  let actual = g.Gg.num_wires + g.Gg.num_vias in
  let est = Gg.estimate_edges small_spec in
  let err =
    Float.abs (float_of_int (est - actual)) /. float_of_int actual
  in
  Alcotest.(check bool)
    (Printf.sprintf "estimate within 12%% (est %d, actual %d)" est actual)
    true (err < 0.12)

let test_grid_determinism () =
  let a = Gg.generate small_spec and b = Gg.generate small_spec in
  Alcotest.(check string) "same netlist" (N.to_string a.Gg.netlist)
    (N.to_string b.Gg.netlist)

let test_grid_nets_disjoint () =
  (* No resistor may bridge Vdd and Vss. *)
  let g = Gg.generate small_spec in
  let net = g.Gg.netlist in
  for e = 0 to N.num_elements net - 1 do
    if N.kind net e = N.Resistor then
      match
        ( Hashtbl.find_opt g.Gg.node_net (N.node_name net net.N.pos.(e)),
          Hashtbl.find_opt g.Gg.node_net (N.node_name net net.N.neg.(e)) )
      with
      | Some a, Some b -> Alcotest.(check bool) "same net" true (a = b)
      | _ -> ()
  done

let test_grid_solvable () =
  let g = Gg.generate small_spec in
  let sol = Spice.Mna.solve g.Gg.netlist in
  let supply = g.Gg.tech.T.supply_voltage in
  (* All node voltages must lie within [0 - eps, supply + eps]. *)
  Array.iteri
    (fun i v ->
      if Spice.Ibm_format.decode (N.node_name g.Gg.netlist i) <> None then
        Alcotest.(check bool)
          (Printf.sprintf "node %d voltage in range (%.6f)" i v)
          true
          (v >= -1e-9 && v <= supply +. 1e-9))
    sol.Spice.Mna.voltages

let test_grid_ibm_presets_edges () =
  (* Scaled-down presets still track the paper's |E| proportions. *)
  let e1 = Gg.estimate_edges (Gg.ibm_preset ~scale:0.25 Gg.Pg1) in
  let e2 = Gg.estimate_edges (Gg.ibm_preset ~scale:0.25 Gg.Pg2) in
  Alcotest.(check bool) "pg2 > 3x pg1" true (e2 > 3 * e1);
  (* Full-scale estimates match Table II's |E| within 10%. *)
  List.iter
    (fun size ->
      let est = Gg.estimate_edges (Gg.ibm_preset size) in
      let target = Gg.ibm_paper_edges size in
      let err = Float.abs (float_of_int (est - target)) /. float_of_int target in
      Alcotest.(check bool)
        (Printf.sprintf "%s: est %d vs paper %d" (Gg.ibm_size_name size) est target)
        true (err < 0.10))
    [ Gg.Pg1; Gg.Pg2; Gg.Pg3; Gg.Pg6 ]

let test_grid_guards () =
  check_raises_invalid "bad load fraction" (fun () ->
      ignore (Gg.generate { small_spec with Gg.load_fraction = 1.5 }));
  check_raises_invalid "bad pad_every" (fun () ->
      ignore (Gg.generate { small_spec with Gg.pad_every = 0 }));
  check_raises_invalid "scale_spec guard" (fun () ->
      ignore (Gg.scale_spec small_spec 0.))

(* ---------------------------------------------------------------- *)
(* Openpdn                                                           *)

let op_spec =
  {
    Op.tech = T.nangate45;
    die_width = 200. *. um;
    die_height = 200. *. um;
    regions = 2;
    templates = Op.default_templates;
    pad_every = 3;
    load_fraction = 0.5;
    current_per_net = 0.01;
    bottom_tap_pitch = Some (2. *. um);
    seed = 99L;
  }

let test_openpdn_templates_by_demand () =
  let rng = Rng.create 1L in
  let fp =
    Fp.make ~width:op_spec.Op.die_width ~height:op_spec.Op.die_height
      ~total_current:0.01
      [
        {
          Fp.cx = 50. *. um;
          cy = 50. *. um;
          radius = 30. *. um;
          weight = 1.;
        };
      ]
  in
  ignore rng;
  let assignment = Op.assign_templates op_spec fp in
  Alcotest.(check int) "4 regions" 4 (Array.length assignment);
  (* Region (0,0) holds the hotspot: densest template (index 0). *)
  Alcotest.(check int) "hot region densest" 0 assignment.(0);
  (* The opposite corner gets the sparsest. *)
  Alcotest.(check int) "cold region sparsest"
    (Array.length Op.default_templates - 1)
    assignment.(3)

let test_openpdn_synthesizes () =
  let g = Op.synthesize op_spec in
  let s = N.stats g.Gg.netlist in
  Alcotest.(check bool) "nontrivial" true (s.N.resistors > 200);
  Alcotest.(check bool) "has pads" true (g.Gg.num_pads > 0);
  (* And it must be solvable. *)
  let sol = Spice.Mna.solve g.Gg.netlist in
  Alcotest.(check bool) "converged" true
    (sol.Spice.Mna.residual < 1e-6)

let test_openpdn_denser_template_more_edges () =
  let dense_only = [| { Op.name = "dense"; pitch_multiplier = 0.5 } |] in
  let sparse_only = [| { Op.name = "sparse"; pitch_multiplier = 2.0 } |] in
  let gd = Op.synthesize { op_spec with Op.templates = dense_only } in
  let gs = Op.synthesize { op_spec with Op.templates = sparse_only } in
  Alcotest.(check bool) "dense grid has more wires" true
    (gd.Gg.num_wires > gs.Gg.num_wires)

let test_openpdn_circuit_list () =
  Alcotest.(check int) "8 circuits" 8 (List.length Op.table3_circuits);
  let c28 =
    List.filter (fun c -> c.Op.node = Op.N28) Op.table3_circuits
  in
  Alcotest.(check int) "3 at 28nm" 3 (List.length c28)

let test_openpdn_gcd_scale () =
  (* The smallest circuit must land within 2x of its paper edge count. *)
  let gcd = List.hd Op.table3_circuits in
  let g = Op.synthesize_circuit gcd in
  let edges = g.Gg.num_wires + g.Gg.num_vias in
  let ratio = float_of_int edges /. float_of_int gcd.Op.paper_edges in
  Alcotest.(check bool)
    (Printf.sprintf "gcd edges %d vs paper %d" edges gcd.Op.paper_edges)
    true
    (ratio > 0.8 && ratio < 1.25)

(* ---------------------------------------------------------------- *)
(* IR drop                                                           *)

let test_irdrop_analyze () =
  let g = Gg.generate small_spec in
  let a = Ir.analyze g in
  Alcotest.(check bool) "positive vdd drop" true (a.Ir.worst_vdd_drop > 0.);
  Alcotest.(check bool) "positive vss rise" true (a.Ir.worst_vss_rise > 0.);
  Alcotest.(check bool) "worst is max" true
    (a.Ir.worst >= a.Ir.worst_vdd_drop && a.Ir.worst >= a.Ir.worst_vss_rise);
  Alcotest.(check bool) "mean below worst" true (a.Ir.mean_drop <= a.Ir.worst)

let test_irdrop_scaling_linear () =
  let g = Gg.generate small_spec in
  let a1 = Ir.analyze g in
  let doubled =
    { g with Gg.netlist = Ir.scale_loads g.Gg.netlist 2. }
  in
  let a2 = Ir.analyze doubled in
  check_close ~rtol:1e-6 "drop linear in loads" (2. *. a1.Ir.worst) a2.Ir.worst

let test_irdrop_scale_to_target () =
  let g = Gg.generate small_spec in
  let target = 5e-3 in
  let _scaled, a = Ir.scale_to_ir g ~target in
  check_close ~rtol:1e-4 "worst = 5mV" target a.Ir.worst


let test_voltage_domains () =
  let spec3 = { small_spec with Gg.voltage_domains = 3; seed = 19L } in
  let g = Gg.generate spec3 in
  (* Three distinct Vdd pad voltages appear (1.8, 1.62, 1.44). *)
  let voltages = Hashtbl.create 8 in
  let net = g.Gg.netlist in
  Array.iteri
    (fun e volts ->
      if N.kind net e = N.Voltage_source && volts > 0. then
        Hashtbl.replace voltages (Printf.sprintf "%.3f" volts) ())
    net.N.values;
  Alcotest.(check int) "three Vdd levels" 3 (Hashtbl.length voltages);
  (* Still solvable, and Vdd nodes never exceed their domain supply. *)
  let sol = Spice.Mna.solve g.Gg.netlist in
  Hashtbl.iter
    (fun name net ->
      match (net, Spice.Mna.node_voltage sol name) with
      | Gg.Vdd, Some v ->
        Alcotest.(check bool)
          (Printf.sprintf "%s below its supply" name)
          true
          (v <= g.Gg.vdd_supply_of name +. 1e-9)
      | _ -> ())
    g.Gg.node_net;
  (* Domains are electrically disjoint: no wire crosses the band
     boundary (all same-layer resistor endpoints share a band). *)
  let die_w_nm = int_of_float (spec3.Gg.die_width /. 1e-9) in
  let band = die_w_nm / 3 in
  for e = 0 to N.num_elements net - 1 do
    if N.kind net e = N.Resistor then
      match
        ( Spice.Ibm_format.decode (N.node_name net net.N.pos.(e)),
          Spice.Ibm_format.decode (N.node_name net net.N.neg.(e)) )
      with
      | Some a, Some b ->
        let band_of (c : Spice.Ibm_format.coords) =
          min 2 (c.Spice.Ibm_format.x / band)
        in
        Alcotest.(check bool) "no cross-band wires" true (band_of a = band_of b)
      | _ -> ()
  done

let suites =
  [
    ( "pdn.tech",
      [
        case "presets well-formed" test_tech_presets;
        case "resistance math" test_tech_resistance;
        case "guards" test_tech_guards;
      ] );
    ( "pdn.floorplan",
      [
        case "hotspot demand" test_floorplan_normalization;
        case "sample weights" test_floorplan_sample_weights;
        case "guards" test_floorplan_guards;
      ] );
    ( "pdn.grid_gen",
      [
        case "counts consistent" test_grid_generation_counts;
        case "edge estimate" test_grid_estimate_accuracy;
        case "deterministic by seed" test_grid_determinism;
        case "nets stay disjoint" test_grid_nets_disjoint;
        case "solvable, voltages in range" test_grid_solvable;
        case "ibm presets match Table II |E|" test_grid_ibm_presets_edges;
        case "voltage domains" test_voltage_domains;
        case "guards" test_grid_guards;
      ] );
    ( "pdn.openpdn",
      [
        case "templates follow demand" test_openpdn_templates_by_demand;
        case "synthesizes solvable grids" test_openpdn_synthesizes;
        case "denser template => more wires" test_openpdn_denser_template_more_edges;
        case "Table III circuit list" test_openpdn_circuit_list;
        case "gcd lands near paper scale" test_openpdn_gcd_scale;
      ] );
    ( "pdn.irdrop",
      [
        case "analyze" test_irdrop_analyze;
        case "linearity" test_irdrop_scaling_linear;
        case "scale to 5mV" test_irdrop_scale_to_target;
      ] );
  ]

module N = Spice.Netlist
module Mna = Spice.Mna

type analysis = {
  solution : Mna.solution;
  worst_vdd_drop : float;
  worst_vss_rise : float;
  worst : float;
  mean_drop : float;
}

let analyze (grid : Grid_gen.generated) =
  let sol = Mna.solve grid.Grid_gen.netlist in
  (* Index node names once. *)
  let index = Hashtbl.create (N.num_nodes grid.Grid_gen.netlist) in
  Array.iteri
    (fun i name -> Hashtbl.replace index name i)
    grid.Grid_gen.netlist.N.node_names;
  let worst_vdd = ref 0. and worst_vss = ref 0. in
  let sum = ref 0. and count = ref 0 in
  Hashtbl.iter
    (fun name net ->
      match Hashtbl.find_opt index name with
      | None -> ()
      | Some i ->
        let v = sol.Mna.voltages.(i) in
        let drop =
          match net with
          | Grid_gen.Vdd -> grid.Grid_gen.vdd_supply_of name -. v
          | Grid_gen.Vss -> v
        in
        (match net with
        | Grid_gen.Vdd -> worst_vdd := Float.max !worst_vdd drop
        | Grid_gen.Vss -> worst_vss := Float.max !worst_vss drop);
        sum := !sum +. drop;
        incr count)
    grid.Grid_gen.node_net;
  {
    solution = sol;
    worst_vdd_drop = !worst_vdd;
    worst_vss_rise = !worst_vss;
    worst = Float.max !worst_vdd !worst_vss;
    mean_drop = (if !count = 0 then 0. else !sum /. float_of_int !count);
  }

let scale_loads net factor =
  let builder = N.Builder.create ~title:net.N.title () in
  Array.iter
    (fun e ->
      match e with
      | N.Resistor { name; pos; neg; ohms } ->
        N.Builder.add_resistor builder ~name (N.node_name net pos)
          (N.node_name net neg) ohms
      | N.Current_source { name; pos; neg; amps } ->
        N.Builder.add_current_source builder ~name (N.node_name net pos)
          (N.node_name net neg) (amps *. factor)
      | N.Voltage_source { name; pos; neg; volts } ->
        N.Builder.add_voltage_source builder ~name (N.node_name net pos)
          (N.node_name net neg) volts)
    net.N.elements;
  N.Builder.finish builder

type metric = Worst | Mean

let scale_to_ir ?(metric = Worst) grid ~target =
  if target <= 0. then invalid_arg "Irdrop.scale_to_ir: non-positive target";
  let first = analyze grid in
  let reading a = match metric with Worst -> a.worst | Mean -> a.mean_drop in
  if reading first <= 0. then
    invalid_arg "Irdrop.scale_to_ir: grid draws no current";
  let factor = target /. reading first in
  let scaled =
    { grid with Grid_gen.netlist = scale_loads grid.Grid_gen.netlist factor }
  in
  (scaled, analyze scaled)

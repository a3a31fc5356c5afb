module N = Spice.Netlist
module Mna = Spice.Mna

type analysis = {
  worst_vdd_drop : float;
  worst_vss_rise : float;
  worst : float;
  mean_drop : float;
}

let analyze (grid : Grid_gen.generated) =
  let volts = (Mna.solve grid.Grid_gen.netlist).Mna.voltages in
  let worst_vdd = ref 0. and worst_vss = ref 0. in
  let sum = ref 0. and count = ref 0 in
  let drop worst d =
    worst := Float.max !worst d;
    sum := !sum +. d;
    incr count
  in
  Array.iteri
    (fun v net ->
      match net with
      | Some Grid_gen.Vdd -> drop worst_vdd (grid.Grid_gen.vdd_supply_of v -. volts.(v))
      | Some Grid_gen.Vss -> drop worst_vss volts.(v)
      | None -> ())
    grid.Grid_gen.node_net;
  {
    worst_vdd_drop = !worst_vdd;
    worst_vss_rise = !worst_vss;
    worst = Float.max !worst_vdd !worst_vss;
    mean_drop = (if !count = 0 then 0. else !sum /. float_of_int !count);
  }

let scale_loads net factor =
  N.with_values net
    (Array.mapi
       (fun e v -> if N.kind net e = N.Current_source then v *. factor else v)
       net.N.values)

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

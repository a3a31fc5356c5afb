module M = Em_core.Material
module St = Em_core.Structure
module Im = Em_core.Immortality
module Sens = Em_core.Sensitivity
module Ss = Em_core.Steady_state

type fix = {
  index : int;
  layer : int;
  segments : int;
  max_stress : float;
  widen : float;
  extra_area : float;
}

type plan = {
  fixes : fix list;
  total_extra_area : float;
  mortal_structures : int;
  immortal_structures : int;
}

let footprint (s : St.t) =
  let acc = ref 0. in
  for k = 0 to St.num_segments s - 1 do
    acc := !acc +. (s.St.width.(k) *. s.St.length.(k))
  done;
  !acc

(* Mortal structures costliest first; [fixes] come in reverse input
   order, and the stable sort keeps that order among equal costs. *)
let of_fixes fixes ~mortal ~immortal =
  let fixes = List.sort (fun a b -> compare b.extra_area a.extra_area) fixes in
  {
    fixes;
    total_extra_area = List.fold_left (fun a f -> a +. f.extra_area) 0. fixes;
    mortal_structures = mortal;
    immortal_structures = immortal;
  }

let plan ?(material = M.cu_dac21) ?(safety = 1.1) structures =
  if safety < 1. then invalid_arg "Fixer.plan: safety < 1";
  let fixes = ref [] in
  let mortal = ref 0 and immortal = ref 0 in
  List.iteri
    (fun index (es : Extract.em_structure) ->
      let s = es.Extract.structure in
      let report = Im.check material s in
      if report.Im.structure_immortal then incr immortal
      else begin
        incr mortal;
        let widen = safety *. Sens.width_slack material s in
        let extra_area = (widen -. 1.) *. footprint s in
        fixes :=
          {
            index;
            layer = es.Extract.layer_level;
            segments = St.num_segments s;
            max_stress = report.Im.max_stress;
            widen;
            extra_area;
          }
          :: !fixes
      end)
    structures;
  of_fixes !fixes ~mortal:!mortal ~immortal:!immortal

let plan_of_result ?(material = M.cu_dac21) ?(safety = 1.1) compacts
    (r : Em_flow.result) =
  if safety < 1. then invalid_arg "Fixer.plan_of_result: safety < 1";
  let threshold = M.effective_critical_stress material in
  let fixes = ref [] in
  let mortal = ref 0 and immortal = ref 0 in
  List.iteri
    (fun i (cs : Extract.compact_structure) ->
      let st = r.Em_flow.structure_stats.(i) in
      if not st.Em_flow.st_ok then ()
      else if st.Em_flow.st_immortal then incr immortal
      else begin
        (* [Sensitivity.width_slack] of the flow's own peak stress. *)
        let slack =
          if threshold <= 0. then Float.infinity
          else Float.max 0. (st.Em_flow.st_max_stress /. threshold)
        in
        let widen = safety *. slack in
        fixes :=
          {
            index = !mortal + !immortal;
            layer = cs.Extract.cs_layer_level;
            segments = st.Em_flow.st_segments;
            max_stress = st.Em_flow.st_max_stress;
            widen;
            extra_area = (widen -. 1.) *. footprint cs.Extract.compact;
          }
          :: !fixes;
        incr mortal
      end)
    compacts;
  of_fixes !fixes ~mortal:!mortal ~immortal:!immortal

let apply_widening c alpha =
  if alpha <= 0. then invalid_arg "Fixer.apply_widening";
  St.with_geometry c
    ~width:(Array.map (fun w -> w *. alpha) c.St.width)
    ~height:c.St.height
    ~j:(Array.map (fun j -> j /. alpha) c.St.j)

let verify ?(material = M.cu_dac21) compacts plan =
  let arr = Array.of_list compacts in
  let threshold = M.effective_critical_stress material in
  List.for_all
    (fun f ->
      let c = apply_widening arr.(f.index).Extract.compact f.widen in
      fst (Ss.max_stress (Ss.solve material c)) < threshold)
    plan.fixes

module N = Spice.Netlist

let apply_to_netlist (grid : Pdn.Grid_gen.generated) compacts plan =
  let arr = Array.of_list compacts in
  (* Per-element resistance scale. *)
  let scale : (int, float) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun f ->
      Array.iter
        (fun elem -> Hashtbl.replace scale elem (1. /. f.widen))
        arr.(f.index).Extract.cs_element_ids)
    plan.fixes;
  let net = grid.Pdn.Grid_gen.netlist in
  let values =
    Array.mapi
      (fun e v ->
        match Hashtbl.find_opt scale e with Some f -> v *. f | None -> v)
      net.N.values
  in
  { grid with Pdn.Grid_gen.netlist = N.with_values net values }

let iterate ?(material = M.cu_dac21) ?safety ?(max_rounds = 5) grid =
  let rec loop (grid : Pdn.Grid_gen.generated) plans rounds =
    let v =
      Em_flow.analyze_deck ~material ~tech:grid.Pdn.Grid_gen.tech
        (Em_flow.of_netlist grid.Pdn.Grid_gen.netlist)
    in
    let r = v.Em_flow.result in
    let p = plan_of_result ~material ?safety v.Em_flow.compacts r in
    let analyzed =
      List.filteri (fun i _ -> r.Em_flow.structure_stats.(i).Em_flow.st_ok)
        v.Em_flow.compacts
    in
    if p.fixes = [] || rounds >= max_rounds then (grid, List.rev (p :: plans))
    else loop (apply_to_netlist grid analyzed p) (p :: plans) (rounds + 1)
  in
  loop grid [] 0

let to_table plan =
  let t =
    Report.create
      [ "layer"; "segments"; "peak MPa"; "widen"; "extra area (um^2)" ]
  in
  List.iter
    (fun f ->
      Report.add_row t
        [
          Printf.sprintf "M%d" f.layer;
          Report.int_cell f.segments;
          Printf.sprintf "%.1f" (f.max_stress *. 1e-6);
          Printf.sprintf "%.2fx" f.widen;
          Printf.sprintf "%.1f" (f.extra_area *. 1e12);
        ])
    plan.fixes;
  t

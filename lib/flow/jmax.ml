module St = Em_core.Structure
module Im = Em_core.Immortality
module Cl = Em_core.Classify

let limit_of tech level =
  let found = ref None in
  Array.iter
    (fun (l : Pdn.Tech.layer) ->
      if l.Pdn.Tech.level = level then found := Some l.Pdn.Tech.j_dc_limit)
    tech.Pdn.Tech.layers;
  !found

let filter ~tech (cs : Extract.compact_structure) =
  let s = cs.Extract.compact in
  match limit_of tech cs.Extract.cs_layer_level with
  | None -> Array.make (St.num_segments s) false
  | Some limit ->
    Array.init (St.num_segments s) (fun k ->
        Float.abs s.St.j.(k) <= limit)

let compare_against_exact ?(material = Em_core.Material.cu_dac21) ~tech
    structures =
  List.fold_left
    (fun counts (cs : Extract.compact_structure) ->
      let s = cs.Extract.compact in
      let report = Im.check material s in
      let pass = filter ~tech cs in
      let counts = ref counts in
      for k = 0 to St.num_segments s - 1 do
        counts :=
          Cl.add_pair !counts ~predicted_immortal:pass.(k)
            ~actual_immortal:report.Im.segment_immortal.(k)
      done;
      !counts)
    Cl.empty structures

type report = {
  solution : Steady_state.solution;
  threshold : float;
  max_stress : float;
  max_node : int;
  structure_immortal : bool;
  segment_immortal : bool array;
  node_immortal : bool array;
}

let of_solution material (s : Structure.t) solution =
  let threshold = Material.effective_critical_stress material in
  let max_stress, max_node = Steady_state.max_stress solution in
  let node_immortal =
    Array.map
      (fun sigma -> Float.is_nan sigma || sigma < threshold)
      solution.Steady_state.node_stress
  in
  let segment_immortal =
    Array.init (Structure.num_segments s) (fun k ->
        node_immortal.(s.Structure.tail.(k)) && node_immortal.(s.Structure.head.(k)))
  in
  {
    solution;
    threshold;
    max_stress;
    max_node;
    structure_immortal = max_stress < threshold;
    segment_immortal;
    node_immortal;
  }

let check ?reference material s =
  of_solution material s (Steady_state.solve ?reference material s)

let margin r = r.threshold -. r.max_stress

let pp ppf r =
  let immortal_segments =
    Array.fold_left (fun n b -> if b then n + 1 else n) 0 r.segment_immortal
  in
  Format.fprintf ppf
    "@[<v>%s: max stress %.3f MPa at node %d (threshold %.3f MPa, margin \
     %+.3f MPa)@,%d/%d segments immortal@]"
    (if r.structure_immortal then "IMMORTAL" else "MORTAL")
    (Units.pa_to_mpa r.max_stress) r.max_node
    (Units.pa_to_mpa r.threshold)
    (Units.pa_to_mpa (margin r))
    immortal_segments
    (Array.length r.segment_immortal)

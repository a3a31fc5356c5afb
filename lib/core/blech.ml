let product (s : Structure.t) k = Float.abs s.Structure.j.(k) *. s.Structure.length.(k)

let segment_immortal material s k = product s k <= Material.jl_crit material

let filter material s =
  Array.init (Structure.num_segments s) (segment_immortal material s)

let count_immortal material s =
  Array.fold_left
    (fun acc immortal -> if immortal then acc + 1 else acc)
    0 (filter material s)

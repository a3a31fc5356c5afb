module St = Em_core.Structure

type t = {
  structure : St.t;
  num_unknowns : int;
  points_per_segment : int array;
  interior_offset : int array;
  dx : float array;
  control_volume : float array;
}

let discretize ?(target_dx = 0.5e-6) ?(min_cells = 4) (s : St.t) =
  if target_dx <= 0. then invalid_arg "Mesh1d.discretize: target_dx <= 0";
  if min_cells < 1 then invalid_arg "Mesh1d.discretize: min_cells < 1";
  let n_nodes = St.num_nodes s in
  let m = St.num_segments s in
  let points_per_segment = Array.make m 0 in
  let interior_offset = Array.make m 0 in
  let dx = Array.make m 0. in
  let next = ref n_nodes in
  for k = 0 to m - 1 do
    let length = s.St.length.(k) in
    let cells = max min_cells (int_of_float (Float.round (length /. target_dx))) in
    points_per_segment.(k) <- cells - 1;
    interior_offset.(k) <- !next;
    next := !next + (cells - 1);
    dx.(k) <- length /. float_of_int cells
  done;
  let control_volume = Array.make !next 0. in
  for k = 0 to m - 1 do
    let tail = s.St.tail.(k) and head = s.St.head.(k) in
    let cells = points_per_segment.(k) + 1 in
    let half = s.St.width.(k) *. s.St.height.(k) *. dx.(k) /. 2. in
    control_volume.(tail) <- control_volume.(tail) +. half;
    control_volume.(head) <- control_volume.(head) +. half;
    for i = 0 to cells - 2 do
      control_volume.(interior_offset.(k) + i) <-
        control_volume.(interior_offset.(k) + i) +. (2. *. half)
    done
  done;
  {
    structure = s;
    num_unknowns = !next;
    points_per_segment;
    interior_offset;
    dx;
    control_volume;
  }

let num_cells t ~seg = t.points_per_segment.(seg) + 1

let point t ~seg ~idx =
  let cells = num_cells t ~seg in
  if idx < 0 || idx > cells then invalid_arg "Mesh1d.point: idx out of range";
  if idx = 0 then t.structure.St.tail.(seg)
  else if idx = cells then t.structure.St.head.(seg)
  else t.interior_offset.(seg) + idx - 1

let position t ~seg ~idx = float_of_int idx *. t.dx.(seg)

let total_volume t = Array.fold_left ( +. ) 0. t.control_volume

let interpolate t u ~seg ~x =
  if x < 0. || x > t.structure.St.length.(seg) then
    invalid_arg "Mesh1d.interpolate: x outside the segment";
  let cells = num_cells t ~seg in
  let pos = x /. t.dx.(seg) in
  let i = min (cells - 1) (int_of_float (Float.floor pos)) in
  let frac = pos -. float_of_int i in
  let a = u.(point t ~seg ~idx:i) and b = u.(point t ~seg ~idx:(i + 1)) in
  (a *. (1. -. frac)) +. (b *. frac)

let node_values t u =
  Array.init (St.num_nodes t.structure) (fun v -> u.(v))

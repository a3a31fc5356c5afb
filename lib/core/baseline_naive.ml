(* Walk parent pointers from [node] to the root, accumulating the signed
   jl sum; O(depth) per call, deliberately memoless. *)
let blech_by_walking (s : Structure.t) (tree : Traversal.tree) node =
  let b = ref 0. in
  let v = ref node in
  while tree.Traversal.parent_edge.(!v) >= 0 do
    let edge_id = tree.Traversal.parent_edge.(!v) in
    let parent = tree.Traversal.parent_node.(!v) in
    let j = s.Structure.j.(edge_id) in
    let jhat = if s.Structure.tail.(edge_id) = parent then j else -.j in
    b := !b +. (jhat *. s.Structure.length.(edge_id));
    v := parent
  done;
  !b

let solve ?reference material (s : Structure.t) =
  if not (Structure.is_connected s) then
    invalid_arg "Baseline_naive.solve: disconnected structure";
  let n = Structure.num_nodes s in
  let reference =
    match reference with
    | Some r ->
      if r < 0 || r >= n then
        invalid_arg "Baseline_naive.solve: reference out of range";
      r
    | None -> Structure.default_reference s
  in
  let beta = Material.beta material in
  let tree = Traversal.bfs s ~root:reference in
  let m = Structure.num_segments s in
  (* Eq. (19), recomputed from scratch for every node: the A and Q sums
     below are (intentionally) inside the per-node loop. *)
  let node_stress = Array.make n Float.nan in
  let blech_sum = Array.make n Float.nan in
  let last_volume = ref 0. and last_q = ref 0. in
  for i = 0 to n - 1 do
    let volume = ref 0. and q = ref 0. in
    for k = 0 to m - 1 do
      let wh = s.Structure.width.(k) *. s.Structure.height.(k) in
      let l = s.Structure.length.(k) in
      let j = s.Structure.j.(k) in
      let b_tail = blech_by_walking s tree s.Structure.tail.(k) in
      volume := !volume +. (wh *. l);
      q := !q +. (wh *. ((j *. l *. l /. 2.) +. (b_tail *. l)))
    done;
    let b_i = blech_by_walking s tree i in
    blech_sum.(i) <- b_i;
    node_stress.(i) <- beta *. ((!q /. !volume) -. b_i);
    last_volume := !volume;
    last_q := !q
  done;
  {
    Steady_state.reference;
    node_stress;
    blech_sum;
    volume = !last_volume;
    q = !last_q;
    beta;
  }

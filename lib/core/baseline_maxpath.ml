let blech_sums s = Blech_sum.to_all_nodes s ~reference:0

let max_path_jl s =
  let b = blech_sums s in
  let lo, hi =
    Array.fold_left
      (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
      (b.(0), b.(0)) b
  in
  hi -. lo

let structure_immortal material s =
  max_path_jl s <= Material.jl_crit material

(* Per-edge extreme path sums through each spanning-tree edge: for the
   tree edge (parent, child), one path end lies in the subtree of child
   and the other outside it, so the extreme |B_b - B_a| through the edge
   combines subtree extremes with rest-of-tree extremes. Both are
   computed in linear time over the BFS tree. *)
let segment_immortal material s =
  if not (Structure.is_connected s) then
    invalid_arg "Baseline_maxpath.segment_immortal: disconnected structure";
  let n = Structure.num_nodes s in
  let b = blech_sums s in
  let tree = Traversal.bfs s ~root:0 in
  let order = tree.Traversal.order in
  let parent = tree.Traversal.parent_node in
  (* Subtree extremes by reverse-BFS (children before parents). *)
  let sub_max = Array.copy b and sub_min = Array.copy b in
  for idx = Array.length order - 1 downto 1 do
    let v = order.(idx) in
    let p = parent.(v) in
    sub_max.(p) <- Float.max sub_max.(p) sub_max.(v);
    sub_min.(p) <- Float.min sub_min.(p) sub_min.(v)
  done;
  (* Rest-of-tree extremes (complement of the subtree) top-down. A node's
     complement combines its parent's complement, the parent's own B, and
     the subtrees of its siblings; sibling aggregation uses prefix/suffix
     scans over each parent's child list. *)
  let children = Array.make n [] in
  for idx = Array.length order - 1 downto 1 do
    let v = order.(idx) in
    children.(parent.(v)) <- v :: children.(parent.(v))
  done;
  let out_max = Array.make n Float.neg_infinity in
  let out_min = Array.make n Float.infinity in
  Array.iter
    (fun p ->
      let kids = Array.of_list children.(p) in
      let k = Array.length kids in
      if k > 0 then begin
        let pre_max = Array.make (k + 1) Float.neg_infinity in
        let pre_min = Array.make (k + 1) Float.infinity in
        let suf_max = Array.make (k + 1) Float.neg_infinity in
        let suf_min = Array.make (k + 1) Float.infinity in
        for i = 0 to k - 1 do
          pre_max.(i + 1) <- Float.max pre_max.(i) sub_max.(kids.(i));
          pre_min.(i + 1) <- Float.min pre_min.(i) sub_min.(kids.(i))
        done;
        for i = k - 1 downto 0 do
          suf_max.(i) <- Float.max suf_max.(i + 1) sub_max.(kids.(i));
          suf_min.(i) <- Float.min suf_min.(i + 1) sub_min.(kids.(i))
        done;
        Array.iteri
          (fun i c ->
            let sib_max = Float.max pre_max.(i) suf_max.(i + 1) in
            let sib_min = Float.min pre_min.(i) suf_min.(i + 1) in
            out_max.(c) <- Float.max (Float.max out_max.(p) b.(p)) sib_max;
            out_min.(c) <- Float.min (Float.min out_min.(p) b.(p)) sib_min)
          kids
      end)
    order;
  let jl_crit = Material.jl_crit material in
  let whole = max_path_jl s in
  Array.init (Structure.num_segments s) (fun e ->
      (* Identify the child endpoint when e is a tree edge. *)
      let tail = s.Structure.tail.(e) and head = s.Structure.head.(e) in
      let child =
        if tree.Traversal.parent_edge.(head) = e then Some head
        else if tree.Traversal.parent_edge.(tail) = e then Some tail
        else None
      in
      match child with
      | Some c ->
        let worst =
          Float.max
            (sub_max.(c) -. out_min.(c))
            (out_max.(c) -. sub_min.(c))
        in
        worst <= jl_crit
      | None ->
        (* Chord of the mesh: fall back to the structure-level screen. *)
        whole <= jl_crit)

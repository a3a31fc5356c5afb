(* Blech sum to every reached node of [tree]: one fold over the tree
   edges, parents before children. *)
let of_tree s (tree : Traversal.tree) =
  let g = Structure.graph s in
  let b = Array.make (Structure.num_nodes s) 0. in
  ignore
    (Traversal.fold_tree_edges tree ~init:() ~f:(fun () ~node ~parent ~edge_id ->
         let seg = Structure.seg s edge_id in
         let jhat =
           if Ugraph.tail g edge_id = parent then seg.Structure.current_density
           else -.seg.Structure.current_density
         in
         b.(node) <- b.(parent) +. (jhat *. seg.Structure.length)));
  b

let to_all_nodes s ~reference =
  if not (Structure.is_connected s) then
    invalid_arg "Blech_sum.to_all_nodes: disconnected structure";
  if reference < 0 || reference >= Structure.num_nodes s then
    invalid_arg "Blech_sum.to_all_nodes: reference out of range";
  of_tree s (Traversal.bfs (Structure.graph s) ~root:reference)

type violation =
  | Disconnected
  | Cycle_mismatch of { chord : int; mismatch : float; scale : float }

let validate ?(cycle_rtol = 1e-6) s =
  if not (Structure.is_connected s) then Error [ Disconnected ]
  else begin
    let g = Structure.graph s in
    let tree = Traversal.bfs g ~root:0 in
    let b = of_tree s tree in
    let m = Structure.num_segments s in
    let jl_scale = ref 0. in
    for k = 0 to m - 1 do
      jl_scale := Float.max !jl_scale (Float.abs (Structure.jl (Structure.seg s k)))
    done;
    let parent_edge = tree.Traversal.parent_edge in
    let violations = ref [] in
    for k = m - 1 downto 0 do
      let tail = Ugraph.tail g k and head = Ugraph.head g k in
      (* A chord is an edge that discovered neither endpoint. Around its
         fundamental cycle, Theorem 1 requires B(tail) + j*l = B(head). *)
      if parent_edge.(tail) <> k && parent_edge.(head) <> k then begin
        let mismatch =
          Float.abs (b.(tail) +. Structure.jl (Structure.seg s k) -. b.(head))
        in
        if mismatch > cycle_rtol *. Float.max !jl_scale 1e-30 then
          violations :=
            Cycle_mismatch { chord = k; mismatch; scale = !jl_scale }
            :: !violations
      end
    done;
    match !violations with [] -> Ok () | vs -> Error vs
  end

(* Blech sum to every reached node of [tree]: one fold over the tree
   edges, parents before children. *)
let of_tree (s : Structure.t) (tree : Traversal.tree) =
  let b = Array.make (Structure.num_nodes s) 0. in
  ignore
    (Traversal.fold_tree_edges tree ~init:() ~f:(fun () ~node ~parent ~edge_id ->
         let j = s.Structure.j.(edge_id) in
         let jhat = if s.Structure.tail.(edge_id) = parent then j else -.j in
         b.(node) <- b.(parent) +. (jhat *. s.Structure.length.(edge_id))));
  b

let to_all_nodes s ~reference =
  if not (Structure.is_connected s) then
    invalid_arg "Blech_sum.to_all_nodes: disconnected structure";
  if reference < 0 || reference >= Structure.num_nodes s then
    invalid_arg "Blech_sum.to_all_nodes: reference out of range";
  of_tree s (Traversal.bfs s ~root:reference)

type violation =
  | Disconnected
  | Cycle_mismatch of { chord : int; mismatch : float; scale : float }

let validate ?(cycle_rtol = 1e-6) (s : Structure.t) =
  if not (Structure.is_connected s) then Error [ Disconnected ]
  else begin
    let tree = Traversal.bfs s ~root:0 in
    let b = of_tree s tree in
    let m = Structure.num_segments s in
    let jl k = s.Structure.j.(k) *. s.Structure.length.(k) in
    let jl_scale = ref 0. in
    for k = 0 to m - 1 do
      jl_scale := Float.max !jl_scale (Float.abs (jl k))
    done;
    let parent_edge = tree.Traversal.parent_edge in
    let violations = ref [] in
    for k = m - 1 downto 0 do
      let tail = s.Structure.tail.(k) and head = s.Structure.head.(k) in
      (* A chord is an edge that discovered neither endpoint. Around its
         fundamental cycle, Theorem 1 requires B(tail) + j*l = B(head). *)
      if parent_edge.(tail) <> k && parent_edge.(head) <> k then begin
        let mismatch = Float.abs (b.(tail) +. jl k -. b.(head)) in
        if mismatch > cycle_rtol *. Float.max !jl_scale 1e-30 then
          violations :=
            Cycle_mismatch { chord = k; mismatch; scale = !jl_scale }
            :: !violations
      end
    done;
    match !violations with [] -> Ok () | vs -> Error vs
  end

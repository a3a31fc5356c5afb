type tree = {
  root : int;
  order : int array;
  parent_node : int array;
  parent_edge : int array;
  reached : bool array;
}

let bfs (s : Structure.t) ~root =
  let n = s.Structure.num_nodes in
  if root < 0 || root >= n then invalid_arg "Traversal: root out of range";
  let parent_node = Array.make n (-1) and parent_edge = Array.make n (-1) in
  let reached = Array.make n false and queue = Array.make n 0 in
  reached.(root) <- true;
  queue.(0) <- root;
  let qhead = ref 0 and qtail = ref 1 in
  while !qhead < !qtail do
    let v = queue.(!qhead) in
    incr qhead;
    for slot = s.Structure.offsets.(v) to s.Structure.offsets.(v + 1) - 1 do
      let u = s.Structure.adj_nbr.(slot) in
      if not reached.(u) then begin
        reached.(u) <- true;
        parent_node.(u) <- v;
        parent_edge.(u) <- s.Structure.adj_edge.(slot);
        queue.(!qtail) <- u;
        incr qtail
      end
    done
  done;
  (* The queue holds every reached node exactly once, in visit order. *)
  let order = if !qtail = n then queue else Array.sub queue 0 !qtail in
  { root; order; parent_node; parent_edge; reached }

let fold_tree_edges t ~init ~f =
  Array.fold_left
    (fun acc node ->
      if node = t.root then acc
      else
        f acc ~node ~parent:t.parent_node.(node) ~edge_id:t.parent_edge.(node))
    init t.order

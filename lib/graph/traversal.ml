type tree = {
  root : int;
  order : int array;
  parent_node : int array;
  parent_edge : int array;
  reached : bool array;
}

let bfs g ~root =
  if root < 0 || root >= Ugraph.num_nodes g then
    invalid_arg "Traversal: root out of range";
  let n = Ugraph.num_nodes g in
  let parent_node = Array.make n (-1) and parent_edge = Array.make n (-1) in
  let reached = Array.make n false and queue = Array.make n 0 in
  reached.(root) <- true;
  queue.(0) <- root;
  let qhead = ref 0 and qtail = ref 1 in
  while !qhead < !qtail do
    let v = queue.(!qhead) in
    incr qhead;
    Ugraph.iter_incident g v (fun ~edge_id ~neighbor ->
        if not reached.(neighbor) then begin
          reached.(neighbor) <- true;
          parent_node.(neighbor) <- v;
          parent_edge.(neighbor) <- edge_id;
          queue.(!qtail) <- neighbor;
          incr qtail
        end)
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

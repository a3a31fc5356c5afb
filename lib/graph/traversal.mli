(** Breadth-first traversal.

    [bfs] produces a [tree] record: a visit order, and for every reached
    node the edge and node through which it was first discovered. This
    is the "standard traversal" of the paper's §IV step 1, from which
    Blech sums are accumulated; on a mesh its parent edges form the
    spanning tree of Theorem 1 and the remaining edges are the chords. *)

type tree = {
  root : int;
  order : int array;        (** visited nodes, root first *)
  parent_node : int array;  (** per node; [-1] for root and unreached *)
  parent_edge : int array;  (** per node; [-1] for root and unreached *)
  reached : bool array;
}

val bfs : _ Ugraph.t -> root:int -> tree
(** Raises [Invalid_argument] when [root] is out of range. Neighbors are
    visited in {!Ugraph.iter_incident} (edge-id) order. *)

val fold_tree_edges :
  tree -> init:'acc -> f:('acc -> node:int -> parent:int -> edge_id:int -> 'acc) -> 'acc
(** Fold over reached non-root nodes in visit order: each step sees the
    node, its BFS parent, and the connecting edge. Prefix property: a
    parent is always presented before its children. *)

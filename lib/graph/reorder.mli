(** Cache-aware node ordering over a raw CSR adjacency.

    At power-grid scale the steady-state BFS walks nodes in discovery
    order while the CSR rows live in construction order; when the two
    disagree (random attachment, interleaved stripes) every frontier
    expansion is a cache miss and the columnar solver falls off a
    locality cliff. Relabeling the nodes so that memory order matches
    traversal order restores streaming access.

    The ordering operates on the bare CSR arrays
    ([offsets]/[neighbors], as exposed by {!Ugraph} and
    [Em_core.Compact]) so it can serve the boxed and the columnar
    representations alike. An ordering is returned as [order] with
    [order.(new_id) = old_id]; {!inverse} turns it into the
    [new_of_old] map used to translate results back to original ids.

    Disconnected graphs are handled by restarting from the
    lowest-numbered unvisited node, so the result is always a total
    permutation of [0 .. num_nodes - 1]. *)

val bfs_order :
  num_nodes:int -> offsets:int array -> neighbors:int array -> root:int ->
  int array
(** Breadth-first discovery order from [root], scanning each node's CSR
    slots in ascending position — exactly the visit order of
    [Steady_state.solve_compact] started at [root]. Relabeling a
    connected graph by this order and rebuilding the CSR with the same
    edge-order counting sort makes a subsequent BFS from the new root 0
    replay the identical sequence of discoveries (and hence of
    floating-point operations): the permuted solve is bit-identical to
    the unpermuted one, meshes included. Raises [Invalid_argument] when
    [root] is out of range. *)

val inverse : int array -> int array
(** [inverse order] maps old id -> new id ([inverse.(order.(i)) = i]).
    Raises [Invalid_argument] if [order] is not a permutation. *)

val is_permutation : int array -> bool
(** Whether the array is a bijection on [0 .. length - 1]. *)

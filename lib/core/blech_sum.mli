(** Blech sums (paper Eq. (13)): signed [sum of j*l] along tree paths.

    For a connected structure, [to_all_nodes] returns [B_i] for every node
    with respect to a reference node, computed by one fold over a
    {!Traversal.bfs} spanning tree. When the structure's currents are
    cycle-consistent (see {!validate}) the sums are path-independent, and
    [B(u -> v) = B_v - B_u] for any pair. *)

val to_all_nodes : Structure.t -> reference:int -> float array
(** Raises [Invalid_argument] when the structure is disconnected or the
    reference is out of range. A/m. *)

(** {1 Validation} *)

type violation =
  | Disconnected
  | Cycle_mismatch of { chord : int; mismatch : float; scale : float }
      (** A fundamental cycle whose signed jl sum does not cancel: the
          prescribed currents cannot come from any node-voltage assignment
          (Theorem 1's premise fails) and node stresses would depend on
          the spanning tree. [mismatch] is the absolute jl residual
          (A/m), [scale] the largest |jl| in the structure. *)

val validate : ?cycle_rtol:float -> Structure.t -> (unit, violation list) result
(** Checks connectivity and (for meshes) cycle consistency of the current
    densities within relative tolerance [cycle_rtol] (default 1e-6): the
    Blech sums over the BFS tree rooted at node 0 must satisfy
    [B(tail) + j*l = B(head)] across every chord (an edge that is no
    node's BFS parent edge). Violations are listed in chord id order. *)

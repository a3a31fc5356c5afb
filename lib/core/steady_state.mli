(** Linear-time steady-state EM stress analysis (paper §III-IV).

    For a connected structure, the steady-state stress at node [i] is

    {v sigma^i = beta * (Q / A - B_i) v}

    where [B_i] is the signed Blech sum of [j*l] along the spanning-tree
    path from the reference node to [i],
    [A = sum_k w_k h_k l_k], and
    [Q = sum_k w_k h_k (jhat_k l_k^2 / 2 + B_{tail(k)} l_k)].

    Everything is computed in a single BFS pass plus one sweep over the
    segment columns of a {!Structure.t}: O(|V| + |E|) time, O(|V|)
    space. {!solve} is the one entry point; the oracles
    ({!Baseline_naive}, {!Baseline_linsys}, the PDE layer) read the
    same structure with their own arithmetic. Meshes are handled
    through a spanning tree (Theorem 1); chord segments still
    contribute to [A] and [Q]. The solution is independent of the
    reference node and of the spanning tree whenever the prescribed
    currents are cycle-consistent (which {!Blech_sum.validate}
    checks). *)

exception Degenerate of string
(** Raised by the solvers when the normalization [Q / A] is not finite —
    in practice when the total volume [A] underflows to 0 (all segment
    volumes vanish, e.g. degenerate geometry from a damaged extraction)
    or [Q] overflows. Without this check the whole stress vector would
    silently be [nan] and misclassify. The flow layer catches it and
    records a per-structure {!Diag.t}. *)

type solution = {
  reference : int;             (** reference node [v_1] *)
  node_stress : float array;   (** [sigma^i], Pa, indexed by node *)
  blech_sum : float array;     (** [B_i], A/m, indexed by node *)
  volume : float;              (** [A], m^3 *)
  q : float;                   (** [Q], A*m^2 *)
  beta : float;                (** Pa/(A/m), copied from the material *)
}

(** Scratch buffers for {!solve}: BFS queue, reached flags, and the
    Blech-sum / stress result columns. Reusing one workspace across a
    scan over many structures drops the per-structure allocation of the
    columnar path to (near) zero when consecutive structures share a node
    count, and to two exact-size float arrays otherwise. *)
module Workspace : sig
  type t

  val create : unit -> t
end

(** A recorded BFS discovery sequence. {!solve}'s traversal
    order depends only on the topology (the CSR slot order), never on
    the geometry columns, so the schedule can be captured once per
    structure and replayed against many perturbed geometries — the
    Monte-Carlo variation engine replays it once per sample. Replaying
    event [i] as
    [b.(node i) = b.(parent i) +. sign i *. j.(edge i) *. l.(edge i)]
    reproduces the solver's Blech sums bit-for-bit for any geometry
    sharing the topology (see {!Structure.with_geometry}). *)
module Schedule : sig
  type t = {
    reference : int;
    node : int array;   (** discovered node, in discovery order *)
    parent : int array; (** the node it was discovered from *)
    edge : int array;   (** the discovering segment *)
    sign : float array; (** [+1.] when [parent] is the segment's tail *)
  }

  val reference : t -> int

  val make : ?reference:int -> Structure.t -> t
  (** Raises [Invalid_argument] when the structure is disconnected or
      [reference] is out of range — the same conditions on which
      {!solve} rejects. The arrays have length
      [num_nodes - 1]. *)
end

val solve :
  ?reference:int -> ?ws:Workspace.t -> Material.t -> Structure.t -> solution
(** The steady-state solver: the Blech sums are accumulated during the
    BFS itself and the [A]/[Q] sweep streams the flat segment columns,
    so the whole algorithm runs allocation-free on a warm workspace.
    The default reference is {!Structure.default_reference}.

    Raises [Invalid_argument] if the structure is disconnected or
    [reference] is out of range, and {!Degenerate} when [Q / A] is not
    finite.

    With [?ws], [node_stress] and [blech_sum] in the returned solution
    alias workspace buffers and are overwritten by the next [solve]
    through the same workspace — copy them if they must outlive it. *)

val max_stress : solution -> float * int
(** Largest node stress and the node attaining it. *)

val min_stress : solution -> float * int

(** Multi-segment interconnect structures (paper §II-A), stored as
    columns.

    A structure is an undirected multigraph whose edges are wire
    segments, nodes [0 .. num_nodes - 1]. Segment [k] runs from
    [tail.(k)] to [head.(k)]: the direction is only the reference for
    its signed current density, positive along the direction of
    {e electron} flow (the paper's and Korhonen's convention). Parallel
    segments are allowed, self-loops are not.

    Every per-segment quantity is a flat column — [length]/[width]/
    [height]/[wh]/[j] float arrays, [tail]/[head] int arrays — plus the
    CSR adjacency ([offsets]/[adj_edge]/[adj_nbr]), so the O(|E|)
    steady-state algorithm ({!Steady_state.solve}) and the oracles
    stream contiguous unboxed memory. Section IV needs nothing else: the
    edge list and one BFS. The flow extracts this record straight from
    the MNA solution; the builders below make the paper's topologies
    (lines, Ts, trees, meshes) for tests, examples and benches.

    Values are immutable: do not mutate a column. *)

type t = {
  num_nodes : int;
  tail : int array;     (** per segment: reference-direction source *)
  head : int array;     (** per segment: reference-direction target *)
  length : float array; (** m, > 0 *)
  width : float array;  (** m, > 0 *)
  height : float array; (** m, > 0 *)
  wh : float array;     (** precomputed cross-section [width *. height], m^2 *)
  j : float array;      (** signed current density along the reference, A/m^2 *)
  offsets : int array;  (** CSR: length [num_nodes + 1] *)
  adj_edge : int array; (** CSR: segment id per incidence slot *)
  adj_nbr : int array;  (** CSR: neighbor per incidence slot *)
}
(** Incidence slot [s], [offsets.(v) <= s < offsets.(v + 1)], joins
    node [v] through segment [adj_edge.(s)] to node [adj_nbr.(s)]. A
    node's slots list its segments in ascending id order (a segment's
    tail slot is filled before its head slot), which fixes every BFS
    order in the library. *)

val num_nodes : t -> int

val num_segments : t -> int

val make :
  num_nodes:int ->
  tail:int array ->
  head:int array ->
  length:float array ->
  width:float array ->
  height:float array ->
  j:float array ->
  t
(** Builds the CSR adjacency. Raises [Invalid_argument] on an empty
    segment list, mismatched column lengths, a negative node count, an
    endpoint out of range, a self-loop, non-positive geometry or a
    non-finite current (the bad segment named by its index). The input
    arrays become owned columns: do not mutate them afterwards. *)

(** Streaming construction: the extraction appends segments as they
    arrive (validating each eagerly, with {!make}'s checks and
    messages) and counts node degrees as it goes, so {!Builder.finish}
    assembles the CSR in a single fill pass. The result is exactly the
    structure {!make} would build from the same columns. *)
module Builder : sig
  type structure = t

  type t

  val create : ?expected_segments:int -> unit -> t
  (** Pre-size the columns when the segment count is known (component
      sizes from the extraction's counting sort) to avoid growth
      copies; growing past the estimate is still fine. *)

  val add_segment :
    t ->
    tail:int -> head:int ->
    length:float -> width:float -> height:float -> j:float ->
    unit
  (** Append one segment. Raises [Invalid_argument] immediately on
      non-positive geometry, non-finite current, a negative endpoint or
      a self-loop — the bad segment is named by its index, exactly as
      {!make} would. *)

  val segment_count : t -> int

  val finish : t -> num_nodes:int -> structure
  (** Range-check the endpoints against [num_nodes] and assemble the
      CSR. The builder must not be reused afterwards. *)
end

val with_geometry :
  t -> width:float array -> height:float array -> j:float array -> t
(** Same topology, new geometry: the result shares [tail]/[head]/
    [length] and the CSR with the input and carries the given
    [width]/[height]/[j] columns ([wh] is recomputed). The new columns
    pass {!make}'s per-segment guards. This makes a geometric
    perturbation — one Monte-Carlo sample — O(segments) with no
    adjacency rebuild. The input arrays become owned columns. *)

val with_current_densities : t -> float array -> t
(** Replace every segment's current density (indexed by segment id). *)

val with_duty_cycles : t -> float array -> t
(** Signal-wire EM uses the time-averaged current: scale each segment's
    current density by its duty factor in [0, 1] (1 = the DC power-grid
    case, 0 = a perfectly recovering bidirectional net). Raises
    [Invalid_argument] on factors outside [0, 1] or length mismatch. *)

val default_reference : t -> int
(** Lowest-numbered terminus (degree-1 node), or node 0 when there is
    none: the default reference of {!Steady_state.solve} and of the
    oracles. *)

val volume : t -> float
(** [sum_k wh_k l_k], the paper's normalization constant [A] (m^3). *)

val is_connected : t -> bool
(** True for at most one node or a single connected component; an
    isolated node makes a structure disconnected. *)

val kcl_imbalance : t -> int -> float
(** Net current flowing into a node (A): positive means more current
    arrives than leaves. Zero at every internal node of an electrically
    consistent structure with injections only at termini/vias. *)

val pp : Format.formatter -> t -> unit
(** A header line, then one line per segment with its endpoints,
    geometry (um) and current density. *)

(** {1 Topology builders}

    All builders use SI units and reference directions flowing from
    lower- to higher-numbered nodes unless stated otherwise. *)

type segment
(** One segment's geometry and current density, the builders' input;
    the built structure keeps columns only. *)

val segment :
  ?height:float -> length:float -> width:float -> j:float -> unit -> segment
(** [height] defaults to 2e-7 m (200 nm), a typical intermediate-layer
    Cu thickness. Heights are uniform within a layer, so most callers
    never vary it. *)

val of_segments : num_nodes:int -> (int * int * segment) array -> t
(** [of_segments ~num_nodes segs]: segment [k] runs from the first to
    the second node, with {!make}'s checks. *)

val line : segment list -> t
(** Multi-segment straight line: node 0 - seg 0 - node 1 - seg 1 - ... *)

val single : segment -> t
(** A two-node, one-segment wire (the classical Blech test structure). *)

val star : center_degree:int -> (int -> segment) -> t
(** [star ~center_degree f] has node 0 in the centre and spokes
    [f 0 .. f (d-1)] with reference directions pointing outward. *)

val grid_mesh :
  rows:int -> cols:int -> (horizontal:bool -> int -> int -> segment) -> t
(** [grid_mesh ~rows ~cols f] is a full 2-D mesh on [rows * cols] nodes
    (node [(r, c)] has index [r * cols + c]); [f ~horizontal r c] gives
    the segment leaving node [(r, c)] rightward (horizontal) or downward.
    Reference directions point right and down. *)

val random_tree : Numerics.Rng.t -> num_nodes:int -> (int -> segment) -> t
(** Uniform random attachment tree: node [i] (i >= 1) attaches to a
    uniformly chosen earlier node through segment [f (i - 1)]. *)

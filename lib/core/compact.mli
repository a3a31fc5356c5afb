(** Structure-of-arrays interconnect representation (the columnar core).

    {!Structure.t} boxes a 4-field record per segment behind a boxed
    graph; at power-grid scale the pointer chasing and per-record
    allocation dominate the O(|E|) steady-state algorithm's constant
    factor. [Compact] stores the same information as flat parallel
    columns — [length]/[width]/[height]/[wh]/[j] float arrays,
    [tail]/[head] int arrays — plus the CSR adjacency
    ([offsets]/[adj_edge]/[adj_nbr]), so {!Steady_state.solve_compact}
    streams through contiguous unboxed memory.

    Conversions to and from {!Structure.t} are lossless (every geometry
    and current value is copied bit-for-bit) and preserve segment ids,
    node ids, and adjacency order. [Compact.t] is the only input of the
    steady-state solver ({!Steady_state.solve} converts); the baselines
    and the PDE layer keep consuming [Structure.t] and, being
    independent algorithms, guard the solver's correctness. *)

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
(** Validates endpoints and geometry like {!Structure.make} (positive
    geometry, finite currents, no self-loops, at least one segment) and
    builds the CSR adjacency. The input arrays become owned columns: do
    not mutate them afterwards. *)

(** Streaming construction: the fused extraction path appends segments
    as they arrive (validating each eagerly, with the same checks and
    messages as {!make}) and counts node degrees incrementally, so
    {!Builder.finish} assembles the CSR in a single fill pass instead
    of [make]'s revalidate-then-count-then-fill sequence. The result is
    exactly the compact {!make} would build from the same columns —
    same validation, same CSR slot order (edge-id order, tail before
    head). *)
module Builder : sig
  type compact = t

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

  val finish : t -> num_nodes:int -> compact
  (** Range-check the endpoints against [num_nodes] and assemble the
      CSR. The builder must not be reused afterwards (the finished
      compact owns its columns when no growth occurred). *)
end

val with_geometry :
  t -> width:float array -> height:float array -> j:float array -> t
(** Same topology, new geometry: the returned compact shares
    [tail]/[head]/[length] and the CSR with the input and carries the
    given [width]/[height]/[j] columns ([wh] is recomputed). The new
    columns pass the same per-segment guards as {!make} (positive
    geometry, finite current; violations are reported with [make]'s
    messages). This makes geometric perturbations of one structure —
    the Monte-Carlo variation oracle — O(segments) with no adjacency
    rebuild. The input arrays become owned columns: do not mutate them
    afterwards. *)

val of_structure : Structure.t -> t
(** Columnarize; shares the graph's CSR arrays (no adjacency rebuild). *)

val to_structure : t -> Structure.t
(** Boxed view for baselines / the PDE layer. Lossless inverse of
    {!of_structure} up to representation. *)

val degree : t -> int -> int

val default_reference : t -> int
(** Lowest-numbered terminus (degree-1 node), or node 0 when there is
    none: the default reference of {!Steady_state.solve_compact}. *)

val volume : t -> float
(** [sum_k wh_k l_k], the paper's normalization constant [A] (m^3). *)

val total_length : t -> float

val is_connected : t -> bool

(** Multi-segment interconnect structures (paper §II-A).

    A structure is an undirected graph whose edges are wire segments. Each
    segment has a length, width, and height (m) and a current density
    (A/m^2) signed relative to the edge's reference direction; following
    the paper (and Korhonen), positive current density is the direction of
    {e electron} flow along the reference direction.

    Structures are cheap immutable values; builders for the common
    topologies used throughout the paper (lines, Ts, trees, meshes) live
    here so tests, examples, and benches share one vocabulary. *)

type segment = {
  length : float;          (** m, > 0 *)
  width : float;           (** m, > 0 *)
  height : float;          (** m, > 0 *)
  current_density : float; (** A/m^2, signed along the reference direction *)
}

val segment :
  ?height:float -> length:float -> width:float -> j:float -> unit -> segment
(** Convenience constructor; [height] defaults to 2e-7 m (200 nm), a
    typical intermediate-layer Cu thickness. Heights are uniform within a
    layer, so most callers never vary it. *)

type t

val make : num_nodes:int -> (int * int * segment) array -> t
(** [make ~num_nodes segs] builds a structure; segment [k] runs from the
    first to the second node with the reference direction so oriented.
    Raises [Invalid_argument] on bad node ids, self loops, empty segment
    lists, or non-positive geometry. *)

val graph : t -> segment Ugraph.t

val num_nodes : t -> int

val num_segments : t -> int

val seg : t -> int -> segment

val endpoints : t -> int -> int * int
(** [(tail, head)] of a segment's reference direction. *)

val volume : t -> float
(** [sum_k w_k h_k l_k], the paper's normalization constant [A] (m^3). *)

val cross_section : segment -> float
(** [w * h] (m^2). *)

val jl : segment -> float
(** Signed Blech product [j * l] (A/m). *)

val total_length : t -> float

val is_connected : t -> bool

val is_tree : t -> bool
(** Connected and acyclic. *)

val with_current_densities : t -> float array -> t
(** Replace every segment's current density (indexed by segment id). *)

val with_duty_cycles : t -> float array -> t
(** Signal-wire EM uses the time-averaged current: scale each segment's
    current density by its duty factor in [0, 1] (1 = the DC power-grid
    case, 0 = a perfectly recovering bidirectional net). Raises
    [Invalid_argument] on factors outside [0, 1] or length mismatch. *)

val current : t -> int -> float
(** Electrical current through a segment, [j * w * h] (A), signed along
    the reference direction. *)

val kcl_imbalance : t -> int -> float
(** Net current flowing into a node (A): positive means more current
    arrives than leaves. Zero at every internal node of an electrically
    consistent structure with injections only at termini/vias. *)

val pp : Format.formatter -> t -> unit

(** {1 Topology builders}

    All builders use SI units and reference directions flowing from lower-
    to higher-numbered nodes unless stated otherwise. *)

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

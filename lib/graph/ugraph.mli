(** Undirected multigraphs with attributed, reference-directed edges.

    Nodes are the integers [0 .. num_nodes - 1]. Every edge [e] carries a
    {e reference direction} from [tail e] to [head e] (paper §II-A): the
    direction is only a sign convention for per-edge quantities (current
    density), not a connectivity restriction. Parallel edges are allowed;
    self-loops are rejected since a zero-length wire loop is meaningless.

    The structure is immutable after construction; adjacency is
    precomputed into a CSR (compressed sparse row) layout —
    [offsets]/[neighbors]/[edge_ids] flat int arrays — so traversals are
    O(|V| + |E|), touch contiguous memory, and {!iter_incident} allocates
    nothing. *)

type 'a t

type edge = {
  id : int;    (** index in [0 .. num_edges - 1] *)
  tail : int;  (** reference-direction source node *)
  head : int;  (** reference-direction target node *)
}

val create : num_nodes:int -> (int * int * 'a) array -> 'a t
(** [create ~num_nodes edges] builds a graph whose [i]-th edge runs from
    the first to the second component with the given attribute. Raises
    [Invalid_argument] on out-of-range endpoints or self-loops. *)

val num_nodes : _ t -> int

val num_edges : _ t -> int

val edge : _ t -> int -> edge
(** Materializes the edge record on demand (the endpoints live in flat
    arrays); hot paths should prefer {!tail}/{!head}. *)

val tail : _ t -> int -> int
(** Reference-direction source node of an edge, without boxing. *)

val head : _ t -> int -> int
(** Reference-direction target node of an edge, without boxing. *)

val attr : 'a t -> int -> 'a

val mapi_attr : (edge -> 'a -> 'b) -> 'a t -> 'b t

val iter_incident : _ t -> int -> (edge_id:int -> neighbor:int -> unit) -> unit
(** Allocation-free iteration over the CSR incidence range of [v], in
    edge-id order. *)

(** {1 Raw CSR access}

    The internal adjacency arrays, exposed so columnar consumers (e.g.
    [Em_core.Compact]) can share them without copying. All three are the
    graph's own storage: treat as read-only. Incidence slot [k] for
    [offsets.(v) <= k < offsets.(v+1)] holds edge [csr_edges.(k)] towards
    neighbor [csr_neighbors.(k)]. *)

val csr_offsets : _ t -> int array
(** Length [num_nodes + 1]. *)

val csr_edges : _ t -> int array
(** Length [2 * num_edges]. *)

val csr_neighbors : _ t -> int array
(** Length [2 * num_edges]. *)

val fold_edges : (edge -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc

val termini : _ t -> int list
(** Nodes of degree 1 (paper's terminus nodes), ascending. *)

val is_connected : _ t -> bool
(** True for graphs with at most one node or a single connected component.
    Isolated nodes make a graph disconnected. *)

val pp : (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit

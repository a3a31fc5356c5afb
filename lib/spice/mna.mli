(** DC operating point of a power-grid netlist (nodal analysis).

    The solver handles the element mix of the IBM benchmarks and of our
    synthetic grids:
    - resistors stamp the conductance Laplacian; {e zero-ohm} resistors
      short their endpoints (merged through a union-find before
      assembly);
    - current sources stamp the right-hand side;
    - voltage sources must (possibly transitively through shorts and
      other sources) pin their nodes against ground, as pads do; a source
      floating between two otherwise-unpinned nodes is rejected as
      unsupported rather than silently mis-solved;
    - a connected group of free nodes with no conductive path to a
      pinned node reads 0 V when nothing drives it, and is rejected
      when a current source does.

    One direct path: two passes over the elements build the reduced
    free-node CSR matrix (count each row, stamp, then sort and merge each
    short row in place), and {!Numerics.Cholesky} factors it as LDL^T
    under an approximate minimum degree ordering and solves. *)

type solution = {
  netlist : Netlist.t;
  voltages : float array;  (** per node, V *)
  cg_iterations : int;     (** always 0: the solve is direct *)
  residual : float;        (** relative residual [|b - A v|_2 / |b|_2] *)
  free_nodes : int;        (** rows of the reduced system *)
  fill : int;              (** nonzeros of the L factor *)
}

exception Unsupported of string
(** Raised for floating voltage sources, a grid with no pinned node, a
    driven floating subnetwork, or a conductance matrix that is not
    positive definite (e.g. a non-finite conductance). *)

val max_residual : float
(** [1e-9]: a relative residual above this means the node voltages, and
    so the currents fed to the EM check, cannot be trusted. *)

type system = {
  matrix : Numerics.Sparse.t;
      (** symmetric conductance matrix over the free rows; every row
          holds its diagonal *)
  rhs : Numerics.Vector.t;  (** injected currents, plus pinned neighbours *)
  row_of_node : int array;  (** per node: its row, or [-1] when pinned *)
  fixed : float array;      (** per node: the pinned voltage, else 0 *)
  blocks : int array;
      (** row boundaries of the independent blocks: block [b] is rows
          [\[blocks.(b), blocks.(b+1))], and no entry of the matrix
          joins two blocks. [blocks.(0) = 0]; the last is the row
          count. *)
}

val assemble : Netlist.t -> system
(** The reduced system {!solve} factors. Rows are the free
    representatives of merged shorts. Representatives joined through
    positive resistors form a block (one per net: VDD, GND, …); rows
    are numbered block by block, blocks in the order of their first
    node and node order inside a block, so the matrix is block
    diagonal with contiguous blocks. A block with no conductance to a
    pinned node floats: undriven, its rows are identity rows.
    Raises like {!solve}. *)

val solve : ?jobs:int -> Netlist.t -> solution
(** Factors and solves each block on its own, the largest first, on
    [jobs] domains ({!Numerics.Parallel.map}'s default when omitted).
    Each block's ordering and factor depend on that block alone, so
    the voltages are bit-identical at every [jobs]. When tracing, each
    block is a [spice.mna.block] span with its rows, nnz(L) and
    ordering and factor seconds; the [mna_free_nodes],
    [mna_factor_nnz] and [mna_blocks] gauges record the last solve.
    Raises {!Unsupported}; [Invalid_argument] on an empty netlist. *)

val resistor_current : solution -> int -> float
(** [resistor_current sol e]: conventional current through element [e]
    (which must be a [Resistor]), positive from [pos] to [neg]; A.
    Zero-ohm shorts report 0 (their current is not observable from node
    voltages). *)

val node_voltage : solution -> string -> float option

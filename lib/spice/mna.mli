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
    short row in place). Each net (block) then loses its series chains:
    a row with exactly two neighbours (about 80% of a power grid's rows)
    is eliminated exactly by Gaussian elimination along its chain, which
    leaves the chain's two end rows a diagonal term, a right-hand side
    term and one equivalent coupling. {!Numerics.Cholesky} factors the
    remaining rows (built by the same count, stamp and merge code) as
    LDL^T under an approximate minimum degree ordering and solves; the
    chain voltages follow by back-substitution along each chain. *)

type solution = {
  netlist : Netlist.t;
  voltages : float array;  (** per node, V *)
  cg_iterations : int;     (** always 0: the solve is direct *)
  residual : float;        (** relative residual [|b - A v|_2 / |b|_2] *)
  free_nodes : int;        (** rows of the free-node system *)
  fill : int;
      (** nonzeros of the L factors, which cover only the rows left
          after the series chains are eliminated *)
  nets : int;              (** independent blocks of the system *)
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
(** Solves each block on its own, the largest first, on [jobs]
    domains ({!Numerics.Parallel.map}'s default when omitted): it
    eliminates the block's series chains, factors the rows left, and
    back-substitutes the chains. A block whose rows all have two
    neighbours is a ring, and keeps its first row. Each block's
    reduction, ordering and factor depend on that block alone, so the
    voltages are bit-identical at every [jobs]. The [residual] is taken
    over the whole assembled matrix, so it checks the reduction too.
    When tracing, each block is a [spice.mna.block] span with its rows,
    [reduced_rows] (the rows factored), nnz(L) and ordering and factor
    seconds. [free_nodes], [fill], [nets] and [residual] are the
    [mna] object of [emcheck analyze --json].
    A pivot that is not positive and finite, in a chain or in the
    reduced factor, is {!Unsupported} naming the node of its row.
    Raises {!Unsupported}; [Invalid_argument] on an empty netlist. *)

val resistor_current : solution -> int -> float
(** [resistor_current sol e]: conventional current through element [e]
    (which must be a [Resistor]), positive from [pos] to [neg]; A.
    Zero-ohm shorts report 0 (their current is not observable from node
    voltages). *)

val node_voltage : solution -> string -> float option

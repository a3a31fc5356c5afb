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
}

val assemble : Netlist.t -> system
(** The reduced system {!solve} factors. Rows are the free
    representatives of merged shorts, in node order. Raises like
    {!solve}. *)

val solve : Netlist.t -> solution
(** Raises {!Unsupported}; [Invalid_argument] on an empty netlist. *)

val resistor_current : solution -> int -> float
(** [resistor_current sol e]: conventional current through element [e]
    (which must be a [Resistor]), positive from [pos] to [neg]; A.
    Zero-ohm shorts report 0 (their current is not observable from node
    voltages). *)

val node_voltage : solution -> string -> float option

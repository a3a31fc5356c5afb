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

    One direct path, one task per net. A serial pass over the elements
    merges shorts, propagates pinned voltages, joins the free
    representatives into nets (VDD, GND, …) and counting-sorts the
    elements by net; no matrix spans the deck. Each net then assembles
    its own free-node CSR rows from its elements, in element order
    (count each row, stamp, then sort and merge each short row in
    place), and loses its series chains: a row with exactly two neighbours (about 80% of
    a power grid's rows) is eliminated exactly by Gaussian elimination
    along its chain, which leaves the chain's two end rows a diagonal
    term, a right-hand side term and one equivalent coupling.
    {!Numerics.Cholesky} factors the remaining rows (built by the same
    count, stamp and merge code) as LDL^T under an approximate minimum
    degree ordering and solves; the chain voltages follow by
    back-substitution along each chain. The residual is Kirchhoff's
    current law checked element by element: per row, what the sources
    inject less what the resistors carry away at the solved voltages
    (see {!residual}). *)

type solution = {
  netlist : Netlist.t;
  voltages : float array;  (** per node, V *)
  cg_iterations : int;     (** always 0: the solve is direct *)
  residual : float;        (** relative residual [|b - A v|_2 / |b|_2] *)
  free_nodes : int;        (** rows of the free-node system *)
  fill : int;
      (** nonzeros of the L factors, which cover only the rows left
          after the series chains are eliminated *)
  nets : int;
      (** nets: groups of free nodes joined through positive resistors,
          each an independent block of the system *)
  net_of_node : int array;
      (** per node: its net, in [\[0, nets)], or [-1] when pinned *)
}

exception Unsupported of string
(** Raised for floating voltage sources, a grid with no pinned node, a
    driven floating subnetwork, or a conductance matrix that is not
    positive definite (e.g. a non-finite conductance). *)

val max_residual : float
(** [1e-9]: a relative residual above this means the node voltages, and
    so the currents fed to the EM check, cannot be trusted. *)

val solve : ?jobs:int -> Netlist.t -> solution
(** Runs each net as one task, the largest first, on [jobs] domains
    ({!Numerics.Parallel.map}'s default when omitted). A net's rows are
    its free representatives in node order; a net whose rows all have
    two neighbours is a ring, and keeps its first row. Each net's rows,
    reduction, ordering and factor depend on that net alone, so the
    voltages are bit-identical at every [jobs]. [residual] is
    {!residual} of the solved voltages. When tracing, each net is a
    [spice.mna.block] span with its rows, [reduced_rows] (the rows
    factored), nnz(L) and ordering and factor seconds. [free_nodes],
    [fill], [nets] and [residual] are the [mna] object of
    [emcheck analyze --json]. A pivot that is not positive and finite,
    in a chain or in the reduced factor, is {!Unsupported} naming the
    node of its row. Raises {!Unsupported}; [Invalid_argument] on an
    empty netlist. *)

val residual : Netlist.t -> float array -> float
(** [residual net voltages]: the relative KCL residual
    [|b - A v|_2 / |b|_2] of per-node [voltages] (the absolute norm
    when [b = 0]), computed from the elements with no matrix: each row
    (a group of shorted free nodes) gets what its current sources
    inject less what its resistors carry away; [b] is what the sources
    and the resistors to pinned nodes inject. Pinned nodes read the
    voltage the deck's sources pin them to, whatever [voltages] says.
    Raises like {!solve}, and [Invalid_argument] unless there is one
    voltage per node. *)

val resistor_current : solution -> int -> float
(** [resistor_current sol e]: conventional current through element [e]
    (which must be a [Resistor]), positive from [pos] to [neg]; A.
    Zero-ohm shorts report 0 (their current is not observable from node
    voltages). *)

val node_voltage : solution -> string -> float option

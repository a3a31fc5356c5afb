(** EM structure extraction from a solved power grid.

    Cu dual-damascene barrier/capping layers block atomic flux through
    vias (paper §V), so EM is analyzed {e per layer}: the intra-layer
    resistor subgraph of each metal layer splits into connected
    components, each becoming one {!Em_core.Structure.t}. Geometry comes
    from the IBM-format node coordinates plus the technology's layer
    thickness and resistivity; the width is inferred from each resistor
    ([w = rho l / (R h)], which reproduces the tech width on as-generated
    grids and tracks repairs that rescale resistances). The current
    density of a segment follows Eq. (11)'s electron-flow convention,
    [j = I_electron(tail->head) / (w h) = (v_head - v_tail) / (R w h)]. *)

type em_structure = {
  layer_level : int;            (** metal level the structure lives on *)
  structure : Em_core.Structure.t;
  node_names : string array;    (** per structure node: netlist name *)
  element_ids : int array;      (** per segment: netlist element index *)
}

val extract : tech:Pdn.Tech.t -> Spice.Mna.solution -> em_structure list
(** The reference extraction: an independent, straightforward
    implementation that the extraction-equivalence tests compare
    {!extract_compact} against. Production callers use
    {!extract_compact} (plus {!boxed_view} where they need boxed
    structures).

    Skips resistors that are vias (endpoints on different layers), shorts
    (zero ohms), or touch non-geometric nodes (pads/package). Components
    with fewer than two nodes are dropped. *)

val total_segments : em_structure list -> int

type compact_structure = {
  cs_layer_level : int;             (** metal level the structure lives on *)
  compact : Em_core.Compact.t;
  cs_node_names : string array;     (** per structure node: netlist name *)
  cs_element_ids : int array;       (** per segment: netlist element index *)
}

val extract_compact :
  tech:Pdn.Tech.t -> Spice.Mna.solution -> compact_structure list
(** {!extract}, but streaming resistors from the MNA solution directly
    into columnar {!Em_core.Compact.t} structures: one interning pass
    over flat wire buffers, a counting sort by connected component, and
    no intermediate per-wire records or [Structure.t] boxes. Applies the
    same filters and geometry/current formulas as {!extract} and yields
    the same per-component node numbering and segment order (segments
    ascending by netlist element, nodes by first appearance), so the two
    paths produce identical segment multisets; only the order of the
    returned list may differ. *)

val total_compact_segments : compact_structure list -> int

val boxed_view : compact_structure -> em_structure
(** Boxed {!em_structure} view of a fused-path structure (same node
    ids, names, segment order and element ids), for ancillary consumers
    that still read {!Em_core.Structure.t} — reports and repair
    planning, not the verdict hot path. *)

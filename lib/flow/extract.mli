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

type compact_structure = {
  cs_layer_level : int;             (** metal level the structure lives on *)
  compact : Em_core.Compact.t;
  cs_netlist : Spice.Netlist.t;     (** the netlist it was extracted from *)
  cs_nodes : int array;             (** per structure node: netlist node id *)
  cs_element_ids : int array;       (** per segment: netlist element index *)
}

val node_name : compact_structure -> int -> string
(** Structure node [i]'s netlist name, formatted on demand. *)

val extract_compact :
  tech:Pdn.Tech.t -> Spice.Mna.solution -> compact_structure list
(** Wires counting-sorted by metal level, then per level one
    interning pass, a counting sort by connected component, and no
    per-wire records or [Structure.t] boxes. Geometry comes from the coordinates the
    netlist decoded once ({!Spice.Netlist.t.coords}). Skips resistors
    that are vias (endpoints on different layers), shorts (zero ohms),
    or touch non-geometric nodes (pads/package). Segments are ascending
    by netlist element, nodes numbered by first appearance. The tests
    compare it with an independent boxed reference. *)

val total_compact_segments : compact_structure list -> int

val boxed_view : compact_structure -> em_structure
(** Boxed {!em_structure} view of a fused-path structure (same node
    ids, names, segment order and element ids), for the boxed oracles
    the tests and benches compare against; nothing in the library or
    the CLI reads it. *)

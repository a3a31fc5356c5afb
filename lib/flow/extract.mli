(** EM structure extraction from a solved power grid.

    Cu dual-damascene barrier/capping layers block atomic flux through
    vias (paper §V), so EM is analyzed {e per layer}: the intra-layer
    resistor subgraph of each metal layer splits into connected
    components, each becoming one columnar {!Em_core.Structure.t},
    built straight from the MNA solution. Geometry comes
    from the IBM-format node coordinates plus the technology's layer
    thickness and resistivity; the width is inferred from each resistor
    ([w = rho l / (R h)], which reproduces the tech width on as-generated
    grids and tracks repairs that rescale resistances). The current
    density of a segment follows Eq. (11)'s electron-flow convention,
    [j = I_electron(tail->head) / (w h) = (v_head - v_tail) / (R w h)]. *)

type compact_structure = {
  cs_layer_level : int;             (** metal level the structure lives on *)
  compact : Em_core.Structure.t;
  cs_netlist : Spice.Netlist.t;     (** the netlist it was extracted from *)
  cs_nodes : int array;             (** per structure node: netlist node id *)
  cs_element_ids : int array;       (** per segment: netlist element index *)
}

val node_name : compact_structure -> int -> string
(** Structure node [i]'s netlist name, formatted on demand. *)

val extract_compact :
  ?jobs:int -> tech:Pdn.Tech.t -> Spice.Mna.solution -> compact_structure list
(** One serial pass sorts the wires by metal level and by group: the
    solve's nets ({!Spice.Mna.solution.net_of_node}), joined where
    wires meet at a pinned pad, so every structure lies in one group.
    Each group is one task on [jobs] domains ({!Numerics.Parallel.map}'s
    default when omitted), the largest first: per level, an interning
    pass, a union-find and a counting sort by component, with no
    per-wire records. Geometry comes from {!Spice.Netlist.t.coords}.
    Skips vias (endpoints on different layers), shorts (zero ohms) and
    resistors touching non-geometric nodes (pads/package). Structures
    come by level, then by where the component's union-find root first
    appears among the level's wires (element order, tail before head),
    which depends on the component's own wires alone: the list is the
    same at any [jobs]. Segments ascend by element; nodes are numbered
    by first appearance. The tests compare it with a reference built
    from per-wire records. *)

val total_compact_segments : compact_structure list -> int

(** {1 Named view}

    Kept only for [bench/e2e/replay.ml], which reads these names, until
    the benchmark times the CLI's own stages (ROADMAP item 1); the
    library and the CLI read {!compact_structure}. *)

type em_structure = {
  layer_level : int;            (** metal level the structure lives on *)
  structure : Em_core.Structure.t;
  node_names : string array;    (** per structure node: netlist name *)
  element_ids : int array;      (** per segment: netlist element index *)
}

val boxed_view : compact_structure -> em_structure
(** The structure with its node names spelled out: [structure] and
    [element_ids] are the compact's own arrays, shared, not copied. *)

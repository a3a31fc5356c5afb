(** Synthetic power-grid synthesis.

    The generic mesher {!of_stripes} turns a {e stripe plan} — a set of
    power stripes with layer, net, perpendicular coordinate and extent —
    into an IBM-benchmark-style netlist: wire resistors along each stripe
    between crossings, via resistors at same-net crossings of adjacent
    layers, voltage-source pads on the top layer, and floorplan-weighted
    current loads on pad-connected bottom-layer nodes. Every node is
    interned by its layer level and nanometre coordinates
    ({!Spice.Netlist.Builder.node_at}); the deck names it
    [n<level>_<x>_<y>] ({!Spice.Ibm_format}), so EM extraction can
    recover the full geometry from the netlist alone. Element names are
    the builder's automatic ones.

    {!generate} builds full-die interleaved Vdd/Vss stripe plans (the
    IBM-benchmark-like workloads of Table II); {!Openpdn} builds
    region-templated plans (the OpenROAD-flow workloads of Table III) on
    top of the same mesher. *)

type net = Vdd | Vss

type stripe = {
  layer_pos : int; (** index into the tech's layer stack *)
  net : net;
  coord_nm : int;  (** perpendicular position *)
  lo_nm : int;     (** extent start along the stripe direction *)
  hi_nm : int;     (** extent end; must exceed [lo_nm] *)
}

type generated = {
  netlist : Spice.Netlist.t;
  tech : Tech.t;
  node_net : net option array;
      (** by node id: the net of every geometric node, [None] for ground *)
  vdd_supply_of : int -> float;
      (** nominal supply of a Vdd-net node, by id (varies across voltage
          domains; constant on single-domain grids) *)
  num_wires : int;
  num_vias : int;
  num_pads : int;
  num_loads : int;
}

val of_stripes :
  ?bottom_taps_nm:int ->
  ?supply_at:(x_nm:int -> y_nm:int -> float) ->
  tech:Tech.t ->
  stripes:stripe array ->
  pad_every:int ->
  floorplan:Floorplan.t ->
  load_fraction:float ->
  rng:Numerics.Rng.t ->
  current_per_net:float ->
  unit ->
  generated
(** [pad_every] places a pad at every k-th node of each top-layer stripe
    (k >= 1; each non-empty top stripe gets at least one pad).
    [load_fraction] of the pad-connected bottom-layer nodes of each net
    receive loads whose sizes follow the floorplan demand and sum to
    [current_per_net].

    [bottom_taps_nm > 0] adds {e load taps} along every bottom-layer
    stripe at that pitch: plain rail nodes between via crossings, where
    standard cells tap the rail in a real design. Taps subdivide rails
    into many short segments whose currents accumulate towards the vias —
    the regime where the traditional Blech filter breaks down (short
    segments pass [jl] while their Blech sums pile up). Default 0 (off).

    [supply_at] gives the Vdd pad voltage at a pad's coordinates
    (default: the tech's supply everywhere); Vss pads are always pinned
    to 0 V.

    Elements come in a fixed order (vias, wires stripe by stripe, pads,
    Vdd loads, Vss loads) and each interns its second node before its
    first, as {!Spice.Netlist}'s numbering rule has it: the netlist is
    the one the deck scanner reads back from its deck.

    Raises [Invalid_argument] on empty or degenerate stripe plans and on
    negative coordinates. *)

(** {1 Full-die (IBM-like) plans} *)

type spec = {
  tech : Tech.t;
  die_width : float;        (** m *)
  die_height : float;       (** m *)
  stripe_counts : int array; (** per layer: total stripes, nets interleaved *)
  pad_every : int;
  load_fraction : float;
  current_per_net : float;  (** A *)
  bottom_tap_pitch : float option; (** load-tap pitch on the bottom layer, m *)
  voltage_domains : int;
      (** >= 1: vertical bands with electrically disjoint grids and
          stepped supplies (the IBM benchmarks' multi-domain structure) *)
  seed : int64;
}

val generate : spec -> generated

val estimate_edges : spec -> int
(** Closed-form resistor-count estimate (wires + vias) of {!generate};
    within a few percent, used to scale workloads to paper sizes. *)

type ibm_size = Pg1 | Pg2 | Pg3 | Pg6

val ibm_preset : ?scale:float -> ibm_size -> spec
(** Specs sized to the IBM benchmark edge counts of Table II
    (29.7k / 125.7k / 835k / 1.65M resistors at [scale = 1.]); [scale]
    shrinks or grows stripe counts for faster or larger runs. *)

val ibm_size_name : ibm_size -> string

val ibm_paper_edges : ibm_size -> int
(** The |E| column of Table II for the corresponding real benchmark. *)

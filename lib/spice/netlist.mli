(** Power-grid netlists: the SPICE subset used by the IBM power grid
    benchmarks (resistors, DC current loads, DC voltage pads).

    Node "0" is ground by convention. Sign conventions follow SPICE: a
    current source [I n+ n- x] drives [x] amperes of conventional current
    from [n+] through itself to [n-] (i.e. it {e sinks} [x] A from the
    circuit at [n+]); a voltage source [V n+ n- x] fixes
    [v(n+) - v(n-) = x].

    Layout: columns, no record per element. Element [e] is the kind byte
    [kinds.[e]] (['R'], ['I'] or ['V']) between nodes [pos.(e)] and
    [neg.(e)], with value [values.(e)] (ohms, amperes or volts). Names are
    slices of one arena string: element [e]'s ends at [name_end.(e)] and
    starts where element [e - 1]'s ends; it becomes a [string] only
    through {!element_name}. A node with a canonical name
    ({!Ibm_format.canonical}: [n<layer>_<x>_<y>]) is stored as its
    coordinates alone and {!node_name} formats it back; any other name
    (["0"], ["n01_2_3"], ["X12"]) is a slice of a node arena, as element
    names are. [n1_2_3] and [n01_2_3] are two nodes; node names are not
    empty.

    Numbering: node ids are dense, by first appearance, each element
    introducing its {e second} node before its first. {!Builder} and the
    deck scanner ({!Parser}) both follow this rule. *)

type kind = Resistor | Current_source | Voltage_source

type t = private {
  title : string;
  coords : int array;
      (** node [v]'s IBM layer, x, y at [3v .. 3v + 2] ({!Ibm_format.decode});
          the layer is {!no_layer} for a name without geometry *)
  index : int array;  (** the interning table behind {!find_node} *)
  node_end : int array;
      (** node [v]'s name ends at [node_end.(v)] in [node_arena] and
          starts where node [v - 1]'s ends; empty for a canonical name *)
  node_arena : string;
  kinds : Bytes.t;
  pos : int array;
  neg : int array;
  values : float array;
  name_arena : string;
  name_end : int array;
  ground : int option; (** index of node "0" when present *)
}

val no_layer : int
(** [min_int]. *)

val num_nodes : t -> int

val num_elements : t -> int

val node_name : t -> int -> string
(** The name as the deck spelled it; a canonical one is formatted from
    its coordinates. *)

val find_node : t -> string -> int option
(** O(1): one probe of the interning table. *)

val kind : t -> int -> kind

val element_name : t -> int -> string

val with_values : t -> float array -> t
(** The same netlist and node ids with a new value column. Raises
    [Invalid_argument] on a length mismatch or a negative resistance. *)

(** {1 Construction} *)

module Builder : sig
  type netlist := t

  type t

  val create : ?title:string -> ?elements:int -> ?nodes:int -> unit -> t
  (** Room first for [elements] elements (default 0) and [nodes] nodes
      (default [elements]); both grow as needed. *)

  val node : t -> string -> int
  (** Intern a node name (idempotent). *)

  val intern : t -> string -> int -> int -> int
  (** [intern b s off len]: {!node} of [s.[off .. off + len - 1]],
      decoded in place; allocates nothing for a canonical name, and for
      another only when it is new. Raises [Invalid_argument] when the
      slice is empty or not inside [s]. *)

  val node_at : t -> layer:int -> x:int -> y:int -> int
  (** {!node} of the canonical name [n<layer>_<x>_<y>], from its
      coordinates: no name is formatted or read. Raises
      [Invalid_argument] when a coordinate is negative or longer than 18
      digits (a name {!Ibm_format.canonical} does not accept). *)

  val add :
    t -> kind -> string -> off:int -> len:int -> pos:int -> neg:int -> float -> unit
  (** An element named [s.[off .. off + len - 1]] between interned nodes;
      an empty name ([len = 0]) takes the next automatic one, [R<n>],
      [I<n>] or [V<n>] by kind, [n] counting the builder's unnamed
      elements from 1. Raises [Invalid_argument] when [pos] or [neg] is
      not an interned node id, on a negative resistance, or when the
      slice is not inside [s]. *)

  val add_resistor : t -> ?name:string -> string -> string -> float -> unit
  (** [add_resistor b n1 n2 ohms]: {!add} between [node b n1] and
      [node b n2], [n2] interned first; without [name] (or with [""]) the
      element is named automatically. Negative resistance is rejected,
      zero is allowed (short, merged during analysis). *)

  val add_current_source : t -> ?name:string -> string -> string -> float -> unit

  val add_voltage_source : t -> ?name:string -> string -> string -> float -> unit

  val num_nodes : t -> int
  (** Nodes interned so far (ids are dense in [0 .. num_nodes - 1]). *)

  val finish : t -> netlist
  (** The netlist takes over the builder's storage; adding to the builder
      afterwards raises [Invalid_argument]. *)

  val merge : ?jobs:int -> t array -> netlist
  (** The netlist of a deck's consecutive line ranges, one builder each
      (filled on its own domain), passed in order: the one a single
      builder would have made of the whole deck, with the same
      {!find_node} answers (the table may hold colliding names in
      another order). A later range's new nodes take the next ids in its
      local order of first appearance. Its nodes are looked up on [jobs]
      domains (default 1), and its columns copied once. Takes over every
      builder's storage as {!finish} does; [merge [| b |]] is
      [finish b]. Raises [Invalid_argument] on no builder or a finished
      one. *)
end

(** {1 Statistics and output} *)

type stats = {
  nodes : int;
  resistors : int;
  current_sources : int;
  voltage_sources : int;
}

val stats : t -> stats

val pp_stats : Format.formatter -> t -> unit

val output : out_channel -> t -> unit
(** Write in IBM-power-grid-benchmark SPICE style ([.op] / [.end]
    trailer), values as [%.10g] prints them; {!Parser.parse_string}
    inverts it. The text streams to the channel in 64 KiB chunks, so
    the formatted deck is never held whole. *)

val to_string : t -> string
(** The bytes {!output} writes. *)

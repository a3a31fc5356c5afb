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
    through {!element_name}. Node names are interned once, their IBM
    coordinates decoded beside them.

    Numbering: node ids are dense, by first appearance, each element
    introducing its {e second} node before its first. {!Builder} and the
    deck scanner ({!Parser}) both follow this rule. *)

type kind = Resistor | Current_source | Voltage_source

type t = private {
  title : string;
  node_names : string array;
  coords : int array;
      (** node [v]'s IBM layer, x, y at [3v .. 3v + 2] ({!Ibm_format});
          the layer is {!no_layer} for a name without geometry *)
  index : int array;  (** the interning table behind {!find_node} *)
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

val find_node : t -> string -> int option
(** O(1): one probe of the interning table. *)

val kind : t -> int -> kind

val element_name : t -> int -> string

val name_hash : t -> int -> int
(** A hash of element [e]'s name, read in place. *)

val same_name : t -> int -> int -> bool
(** Whether two elements share a name, compared in place. *)

val with_values : t -> float array -> t
(** The same netlist and node ids with a new value column. Raises
    [Invalid_argument] on a length mismatch or a negative resistance. *)

(** {1 Construction} *)

module Builder : sig
  type netlist := t

  type t

  val create : ?title:string -> unit -> t

  val reserve : t -> elements:int -> nodes:int -> unit
  (** Make room for that many elements and nodes in all. *)

  val node : t -> string -> int
  (** Intern a node name (idempotent). *)

  val intern : t -> string -> int -> int -> int
  (** [intern b s off len]: {!node} of [s.[off .. off + len - 1]];
      allocates only for a new node. Raises [Invalid_argument] when the
      slice is not inside [s]. *)

  val add :
    t -> kind -> string -> off:int -> len:int -> pos:int -> neg:int -> float -> unit
  (** An element named [s.[off .. off + len - 1]] between interned nodes.
      Raises [Invalid_argument] when [pos] or [neg] is not an interned
      node id, on a negative resistance, or when the slice is not inside
      [s]. *)

  val add_resistor : t -> ?name:string -> string -> string -> float -> unit
  (** [add_resistor b n1 n2 ohms]; negative resistance is rejected, zero
      is allowed (short, merged during analysis). *)

  val add_current_source : t -> ?name:string -> string -> string -> float -> unit

  val add_voltage_source : t -> ?name:string -> string -> string -> float -> unit

  val num_nodes : t -> int
  (** Nodes interned so far (ids are dense in [0 .. num_nodes - 1]). *)

  val finish : t -> netlist
  (** The netlist takes over the builder's storage; adding to the builder
      afterwards raises [Invalid_argument]. *)
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
    trailer); {!Parser.parse_string} inverts it. *)

val to_string : t -> string

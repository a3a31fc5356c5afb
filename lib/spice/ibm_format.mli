(** IBM power-grid-benchmark node naming:
    [n<layer>_<x>_<y>] with integer coordinates (benchmark distance
    units; we generate coordinates in nanometres), ground ["0"].
    Other names (pad/package nodes like ["X12"]) carry no geometry.
    Names are decoded here; {!Netlist.node_name} formats a canonical one
    from its coordinates. *)

type coords = { layer : int; x : int; y : int }

val canonical : string -> int -> int -> int array -> bool
(** [canonical s off len parts]: whether [s.[off .. off + len - 1]] is
    the canonical form of its coordinates, [n] then three parts of 1 to
    18 plain digits without a leading zero; if so its layer, x and y are
    in [parts.(0 .. 2)]. Allocates nothing. Raises [Invalid_argument]
    when the slice is not inside [s]. *)

val decode : string -> coords option
(** [None] for ground and non-geometric names. Parts other than plain
    digits read as [int_of_string_opt] reads them (["n01_2_3"] and
    ["n+1_2_3"] decode as ["n1_2_3"] does). *)

val is_ground : string -> bool

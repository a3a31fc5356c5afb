(** The traditional (single-segment) Blech criterion (paper Eq. (7)).

    [|j| * l <= (jl)_crit] deems a segment immortal. This is exact for an
    isolated two-terminal segment with blocking boundaries and is the
    industry-standard first-stage filter the paper shows to be unreliable
    on multi-segment structures; it is implemented here as the baseline
    against which {!Immortality} is compared in Tables II/III. *)

val product : Structure.t -> int -> float
(** [product s k]: segment [k]'s [|j| * l], A/m. *)

val segment_immortal : Material.t -> Structure.t -> int -> bool
(** [product s k <= Material.jl_crit m]. *)

val filter : Material.t -> Structure.t -> bool array
(** Per-segment traditional-Blech verdicts ([true] = immortal). *)

val count_immortal : Material.t -> Structure.t -> int

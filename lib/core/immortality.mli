(** The paper's generalized immortality test (Theorem 2).

    A structure is immortal when its largest steady-state node stress is
    below the (thermally offset) critical stress; a {e segment} is
    immortal when neither of its end nodes exceeds the threshold, since by
    Corollary 2 a segment's stress extremes occur at its end points, and a
    void nucleates where tensile stress reaches [sigma_crit]. *)

type report = {
  solution : Steady_state.solution;
  threshold : float;            (** sigma_crit - sigma_T, Pa *)
  max_stress : float;           (** Pa *)
  max_node : int;
  structure_immortal : bool;
  segment_immortal : bool array; (** per segment *)
  node_immortal : bool array;    (** per node *)
}

val of_solution : Material.t -> Structure.t -> Steady_state.solution -> report

val check : ?reference:int -> Material.t -> Structure.t -> report
(** Solve + classify a connected structure. *)

val margin : report -> float
(** [threshold - max_stress]: positive iff immortal; the "distance to
    mortality" in Pa, useful for ranking fixes. *)

val pp : Format.formatter -> report -> unit

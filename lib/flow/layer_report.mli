(** Per-metal-layer breakdown of an EM analysis: where the stress and the
    filter errors live in the stack. Upper layers carry long, fat, hot
    wires (classical Blech territory); lower layers carry the short
    tapped rails whose accumulated Blech sums the traditional filter
    cannot see — this table makes that split visible. *)

type layer_stats = {
  level : int;                (** metal level *)
  structures : int;
  segments : int;
  total_length : float;       (** m *)
  max_abs_j : float;          (** A/m^2 *)
  max_jl : float;             (** A/m *)
  max_stress : float;         (** Pa; nan when the layer is empty *)
  mortal_segments : int;      (** by the exact test *)
  counts : Em_core.Classify.counts; (** Blech vs exact, this layer only *)
}

val of_result :
  Extract.compact_structure list -> Em_flow.result -> layer_stats list
(** The breakdown of a finished run over the given structures: lengths
    and current densities from the compact columns, verdicts from the
    run's verdict bits, peak stresses from its structure stats. No
    structure is solved again; fault-isolated structures are left out.
    Ascending by level. *)

val analyze :
  ?material:Em_core.Material.t -> Extract.em_structure list -> layer_stats list
(** The same breakdown by solving every boxed structure again
    ({!Em_core.Immortality.check} and {!Em_core.Blech.filter}): the
    reference {!of_result} is tested against. Ascending by level. *)

val to_table : layer_stats list -> Report.t

val pp : Format.formatter -> layer_stats list -> unit

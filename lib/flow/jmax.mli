(** The classical current-density-limit filter: the Black-equation-based
    sign-off the paper's §I describes as the traditional second stage
    ("a comparison of the current density through these wires against a
    global limit, set by the semi-empirical Black's equation").

    A segment passes when [|j| <= j_dc_limit] of its metal layer. Like
    the traditional Blech filter, it is a per-segment test blind to the
    structure's stress coupling; running it against the exact analysis
    quantifies a second industry-standard screen. *)

val filter : tech:Pdn.Tech.t -> Extract.compact_structure -> bool array
(** Per-segment verdict ([true] = within the layer's limit). Segments on
    levels absent from the tech (cannot happen for extracted structures)
    fail closed. *)

val compare_against_exact :
  ?material:Em_core.Material.t ->
  tech:Pdn.Tech.t ->
  Extract.compact_structure list ->
  Em_core.Classify.counts
(** Confusion matrix with the exact test as truth and "within the j
    limit" as the positive (immortal) prediction. *)

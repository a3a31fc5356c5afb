(** EM fixing: turn the exact immortality analysis into repair plans.

    For every mortal structure the cheapest uniform fixes are computed
    from the linearity of the steady-state stress (see
    {!Em_core.Sensitivity}):
    - widening every segment of the structure by a factor [alpha]
      divides all current densities — hence all stresses — by [alpha]
      at fixed currents;
    - equivalently, the currents through the structure may be reduced
      (rerouting/load balancing) by the same factor.

    The plan reports the widening factor with a safety margin and the
    metal-area cost, giving the overdesign price of each fix — and, by
    comparison with what the traditional Blech filter would have
    flagged, the overdesign the paper attributes to false negatives. *)

type fix = {
  index : int;             (** position in the input structure list *)
  layer : int;             (** metal level *)
  segments : int;
  max_stress : float;      (** Pa, before fixing *)
  widen : float;           (** uniform widening factor, > 1 *)
  extra_area : float;      (** (widen - 1) * sum(w*l), m^2 *)
}

type plan = {
  fixes : fix list;            (** mortal structures only, costliest first *)
  total_extra_area : float;    (** m^2 *)
  mortal_structures : int;
  immortal_structures : int;
}

val plan :
  ?material:Em_core.Material.t -> ?safety:float ->
  Extract.em_structure list -> plan
(** [safety] (default 1.1) multiplies the minimum widening factor.
    Solves every structure again: the reference {!plan_of_result} is
    tested against. It takes the named view, {!Extract.em_structure},
    and goes with it. *)

val plan_of_result :
  ?material:Em_core.Material.t -> ?safety:float ->
  Extract.compact_structure list -> Em_flow.result -> plan
(** The same plan from a finished run of the same structures: each
    mortal structure's widening is [safety] times its peak stress over
    the critical stress (at least 0), its footprint sums width times
    length over the compact columns. Nothing is solved again. Structures
    the run fault-isolated are left out, and [index] counts the others
    only, so it indexes the list of analyzed structures. *)

val apply_widening : Em_core.Structure.t -> float -> Em_core.Structure.t
(** Widen every segment by the factor at fixed currents (widths scale up,
    current densities scale down, {!Em_core.Structure.with_geometry});
    used to verify plans. *)

val verify :
  ?material:Em_core.Material.t -> Extract.compact_structure list -> plan ->
  bool
(** True when applying every fix makes its structure immortal: the peak
    of {!Em_core.Steady_state.solve} on the widened structure
    lies below the effective critical stress. The list is the one the
    plan indexes. *)

val to_table : plan -> Report.t

(** {1 Grid-level repair loop}

    Widening a structure changes its resistances, which redistributes
    currents across the whole grid — a single pass is therefore not
    guaranteed to converge. [iterate] closes the loop: solve, extract,
    plan, apply, repeat until no mortal structures remain (or the round
    budget runs out). *)

val iterate :
  ?material:Em_core.Material.t -> ?safety:float -> ?max_rounds:int ->
  Pdn.Grid_gen.generated -> Pdn.Grid_gen.generated * plan list
(** Each round is {!Em_flow.analyze_deck} plus {!plan_of_result}.
    Returns the repaired grid and the plan applied in each round
    ([max_rounds] defaults to 5; the final plan in the list may still
    contain fixes if the budget ran out — an empty final plan means the
    grid is clean). *)

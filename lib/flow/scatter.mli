(** Scatter data for Figs. 7 and 8: current density vs segment length,
    with traditional-Blech correctness markers and the
    [j l = (jl)_crit] frontier. *)

type point = {
  length_um : float;
  j : float;          (** signed electron current density, A/m^2 *)
  correct : bool;     (** traditional Blech agreed with the exact test *)
}

val of_result : Extract.compact_structure list -> Em_flow.result -> point array
(** One point per segment of the run's successfully analyzed structures
    (batch order): length and current density from the compacts the run
    analyzed, correctness from its verdict bits. *)

val summary : point array -> string
(** One-line counts: total / correct / incorrect. *)

val ascii :
  ?width:int -> ?height:int -> jl_crit:float -> point array -> string
(** Log-log density plot of |j| vs length: ['.'] cells hold only
    correctly-filtered segments, ['x'] only misfiltered ones, ['#'] both;
    ['+'] marks the critical contour [|j| l = (jl)_crit] where the cell
    is empty. [jl_crit] in A/m. Defaults: 72x24 cells. *)

val to_csv : point array -> string
(** Header [length_um,j_A_per_m2,correct] followed by one row per point. *)

val write_csv : string -> point array -> unit
(** [write_csv path points]. *)

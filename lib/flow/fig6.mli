(** The three validation structures of the paper's Fig. 6.

    The paper specifies every current density and 1 um segment widths;
    the segment lengths are "shown in the figure" as a colour plot and
    are not recoverable from the text, so this module fixes documented
    stand-in lengths of the same tens-of-microns scale (see DESIGN.md,
    substitution notes). The mesh's lengths are chosen to make the
    prescribed currents cycle-consistent (a requirement Theorem 1 imposes
    on any physical current assignment). *)

val tree : Em_core.Structure.t
(** Six segments, seven nodes;
    j = (-1, 5, -4, 2, 4, 2) x 1e10 A/m^2. *)

val mesh : Em_core.Structure.t
(** A four-segment cycle; |j| = (1, 1.5, 2, 3) x 1e10 A/m^2 with lengths
    making the loop sum vanish. *)

val all : (string * Em_core.Structure.t) list
(** [("T", ...); ("tree", ...); ("mesh", ...)]. *)

(** Runtime numerical auditing of steady-state solutions.

    The audit checks a solution against the physics it must satisfy,
    independently of how the solver computed it: per-segment flux
    balance [sigma_head - sigma_tail + beta j l = 0] (Lemma 1), the
    mass-conservation integral (Lemma 3), and per-node current balance
    from the CSR. The first two are tolerance-gated — they hold up to
    rounding and, on meshes, up to the cycle consistency of the
    prescribed currents. The KCL balance is informational only, because
    on a real power grid interior nodes legitimately carry via currents
    out of the structure's plane. (The solver's arithmetic contract —
    Blech sums that replay {!Steady_state.Schedule} bit for bit, and
    stresses equal to [beta * (Q/A - B_i)] — is a tier-1 property, not a
    runtime check.)

    Each audit record also carries the immortality {e margin} (signed
    slack [sigma_th - max sigma], absolute and relative) with a per-
    segment attribution of the critical Blech path — the tree path from
    the reference to the most stressed node, each step contributing
    [-beta * sign * j * l] to the peak stress — so every verdict can be
    explained and ranked. *)

(** One step of the critical Blech path, in root-to-peak order. *)
type contribution = {
  ct_seg : int;     (** segment id within the structure *)
  ct_parent : int;  (** node the step starts from *)
  ct_node : int;    (** node the step discovers *)
  ct_delta : float;
      (** [sigma(ct_node) - sigma(ct_parent) = -beta * sign * j * l], Pa *)
}

type residuals = {
  flux_rel : float;
      (** tolerance-gated: worst per-segment relative flux residual
          [|sigma_head - sigma_tail + beta j l|]; on mesh chords this
          measures cycle consistency of the prescribed currents *)
  mass_rel : float;
      (** tolerance-gated: Lemma 3 conservation integral, normalized by
          [A * max |sigma|] *)
  kcl_interior_rel : float;
      (** informational: worst relative current imbalance over interior
          (degree >= 2) nodes; nonzero wherever vias tap the structure *)
}

type t = {
  au_index : int;        (** structure position in the analyzed batch *)
  au_layer : int;        (** metal level *)
  au_nodes : int;
  au_segments : int;
  au_threshold : float;  (** effective critical stress, Pa *)
  au_max_stress : float; (** Pa *)
  au_max_node : int;
  au_margin : float;     (** [threshold - max_stress], positive iff immortal *)
  au_rel_margin : float; (** [margin / threshold] *)
  au_immortal : bool;
  au_residuals : residuals;
  au_path : contribution array;
      (** the whole critical path, reference to [au_max_node] *)
  au_top : contribution array;
      (** top-k path steps by [|ct_delta|] (largest first) *)
}

val default_tol : float
(** [1e-9]: relative gate for [flux_rel] / [mass_rel]. *)

val default_top_k : int
(** [5]. *)

val check :
  ?index:int ->
  ?layer:int ->
  ?top_k:int ->
  Material.t ->
  Structure.t ->
  Steady_state.solution ->
  t
(** Audit one solution against the structure it was solved from. Reads
    the solution's arrays but never writes them; safe to call while they
    alias a workspace, as long as it runs before the next solve. Raises
    [Invalid_argument] if the structure is disconnected (no schedule)
    and treats non-finite stresses like the flow does — they surface as
    large residuals, never as exceptions. *)

val worst_residual : t -> float
(** Max of the tolerance-gated residuals [flux_rel] and [mass_rel] —
    the value aggregated into the [em_audit_residual] histogram. *)

val violations : tol:float -> t -> (string * float) list
(** Residuals out of bounds: [flux_rel] / [mass_rel] above [tol]. The
    KCL balance never appears here (informational). Empty on a healthy
    structure. *)

val violation_diag : strict:bool -> tol:float -> t -> Diag.t option
(** A [Structure]-sourced diagnostic (code ["audit-residual"]) naming
    the out-of-bounds residuals — a warning, or an error when
    [strict]. [None] when {!violations} is empty. *)

(** Run-wide aggregate of one batch's audit records. *)
type summary = {
  su_audited : int;         (** records present *)
  su_violations : int;      (** records with a nonempty {!violations} set *)
  su_worst_residual : float;
      (** max {!worst_residual} ([Float.max], so a NaN wins); [0.] when
          nothing was audited *)
  su_min_margin : float;    (** Pa; [infinity] when nothing was audited *)
  su_min_rel_margin : float;
  su_min_margin_index : int;  (** [au_index] of the first minimum; [-1] if none *)
}

val summarize : tol:float -> t option array -> summary
(** Fold a batch's records ([None] slots skipped) in array order. The
    CLI's audit line and the [--json] [audit] object both read it. *)

val pp : Format.formatter -> t -> unit

(** IR-drop analysis and load scaling (the role PDNSim plays in the
    paper's §V-C flow).

    [analyze] solves the DC operating point and reports the worst supply
    drop: [supply - v] over Vdd-net nodes and [v - 0] over Vss-net nodes.
    [scale_to_ir] rescales every load current by one global factor so the
    worst drop hits a target — the paper scales currents "to provide an
    IR drop of 5 mV". With ideal pads the node voltages are affine in the
    loads, so a single linear correction is exact (verified by a second
    solve). *)

type analysis = {
  worst_vdd_drop : float;  (** V *)
  worst_vss_rise : float;  (** V *)
  worst : float;           (** max of the two *)
  mean_drop : float;       (** mean over both nets' nodes *)
}

val analyze : Grid_gen.generated -> analysis
(** One DC solve; the drops are read over {!Grid_gen.generated.node_net}
    in node-id order. *)

val scale_loads : Spice.Netlist.t -> float -> Spice.Netlist.t
(** Multiply every current source by the factor. *)

type metric = Worst | Mean
(** Which drop statistic [scale_to_ir] pins to the target. [Worst] is the
    classical sign-off number. [Mean] is provided because a worst-case
    5 mV budget caps the within-layer stress spread at
    [(Z* e / Omega) * 5 mV ~ 68 MPa] regardless of geometry, which is
    inconsistent with the paper's Fig. 8 showing segments with
    [j l ~ 1 A/um] (a >20 mV drop across a single segment); scaling the
    mean to 5 mV reproduces the paper's current-density ranges. *)

val scale_to_ir :
  ?metric:metric -> Grid_gen.generated -> target:float ->
  Grid_gen.generated * analysis
(** Returns the rescaled grid and its (re-solved) analysis; [metric]
    defaults to [Worst]. Raises [Invalid_argument] when the unscaled grid
    draws no current at all. *)

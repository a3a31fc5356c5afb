(** Interconnect material models and EM-relevant derived constants.

    The derived quantities follow the paper's §II-B:
    - [beta = Z* e rho / Omega] (Pa per A/m, so that [beta * j * l] is a
      stress),
    - [kappa = D_a B Omega / (k T)] with [D_a = D0 exp (-Ea / kT)] (the
      stress "diffusivity" in the Korhonen equation),
    - [(jl)_crit = 2 (sigma_crit - sigma_t) / beta], the single-segment
      critical Blech product implied by the steady-state solution of an
      isolated blocked segment (max end stress [beta j l / 2]).

    With the paper's §V-A copper parameters, [jl_crit] evaluates to
    0.268 A/um — the "0.27 A/um" used in the paper's §V-C. *)

type t = {
  name : string;
  resistivity : float;          (** rho, Ohm*m *)
  bulk_modulus : float;         (** B, Pa *)
  atomic_volume : float;        (** Omega, m^3 *)
  d0 : float;                   (** diffusion prefactor, m^2/s *)
  activation_energy : float;    (** Ea, J *)
  effective_charge : float;     (** Z*, dimensionless *)
  critical_stress : float;      (** sigma_crit, Pa *)
  temperature : float;          (** T, K *)
  thermal_stress : float;       (** sigma_T, Pa; offsets the critical stress *)
}

val cu_dac21 : t
(** Copper dual-damascene parameters from the paper's §V-A:
    rho = 2.25e-8 Ohm*m, B = 28 GPa, Omega = 1.18e-29 m^3, D0 = 1.3e-9
    m^2/s, Ea = 0.8 eV, Z* = 1, sigma_crit = 41 MPa, T = 378 K, and
    sigma_T = 0 (the paper folds CTE stress into the critical-stress
    offset; see {!effective_critical_stress}). *)

val with_temperature : t -> float -> t
(** Same material at a different operating temperature. *)

val with_thermal_stress : t -> float -> t

val beta : t -> float
(** Pa/(A/m). *)

val diffusivity : t -> float
(** D_a = D0 exp(-Ea / kT), m^2/s. *)

val kappa : t -> float
(** m^2/s. *)

val effective_critical_stress : t -> float
(** sigma_crit - sigma_T, the threshold node stresses are compared to. *)

val jl_crit : t -> float
(** Critical Blech product for a single blocked segment, A/m. *)

val pp : Format.formatter -> t -> unit

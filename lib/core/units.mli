(** Unit helpers. All library-internal quantities are SI (m, A/m^2, Pa, s,
    K); these conversions keep user-facing code readable. *)

val boltzmann : float
(** k, J/K. *)

val electron_charge : float
(** e, C. *)

val ev : float
(** One electron-volt in joules. *)

(** {1 Length} *)

val nm : float -> float
val um : float -> float
val mm : float -> float
val m_to_um : float -> float

(** {1 Stress} *)

val mpa : float -> float
val gpa : float -> float
val pa_to_mpa : float -> float
val pa_to_gpa : float -> float

(** {1 Current density and jl products} *)

val ma_per_cm2 : float -> float
(** Mega-amp per square centimetre to A/m^2 (1 MA/cm^2 = 1e10 A/m^2). *)

val a_per_um : float -> float
(** jl products: A/um to A/m. *)

val a_per_m_to_a_per_um : float -> float

(** {1 Time} *)

val hours : float -> float
val days : float -> float
val years : float -> float

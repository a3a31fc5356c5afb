type t = {
  name : string;
  resistivity : float;
  bulk_modulus : float;
  atomic_volume : float;
  d0 : float;
  activation_energy : float;
  effective_charge : float;
  critical_stress : float;
  temperature : float;
  thermal_stress : float;
}

let cu_dac21 =
  {
    name = "Cu (DAC'21 Sec. V-A)";
    resistivity = 2.25e-8;
    bulk_modulus = Units.gpa 28.;
    atomic_volume = 1.18e-29;
    d0 = 1.3e-9;
    activation_energy = 0.8 *. Units.ev;
    effective_charge = 1.;
    critical_stress = Units.mpa 41.;
    temperature = 378.;
    thermal_stress = 0.;
  }

let with_temperature m temperature =
  if temperature <= 0. then invalid_arg "Material.with_temperature";
  { m with temperature }

let with_thermal_stress m thermal_stress = { m with thermal_stress }

let beta m =
  m.effective_charge *. Units.electron_charge *. m.resistivity
  /. m.atomic_volume

let diffusivity m =
  m.d0 *. exp (-.m.activation_energy /. (Units.boltzmann *. m.temperature))

let kappa m =
  diffusivity m *. m.bulk_modulus *. m.atomic_volume
  /. (Units.boltzmann *. m.temperature)

let effective_critical_stress m = m.critical_stress -. m.thermal_stress

let jl_crit m = 2. *. effective_critical_stress m /. beta m

let pp ppf m =
  Format.fprintf ppf
    "@[<v>%s:@,  rho = %.3g Ohm.m, B = %.3g GPa, Omega = %.3g m^3@,\
    \  D0 = %.3g m^2/s, Ea = %.3g eV, Z* = %g@,\
    \  sigma_crit = %.3g MPa, sigma_T = %.3g MPa, T = %g K@,\
    \  beta = %.4g Pa.m/A, kappa = %.4g m^2/s, (jl)_crit = %.4g A/um@]"
    m.name m.resistivity (Units.pa_to_gpa m.bulk_modulus) m.atomic_volume m.d0
    (m.activation_energy /. Units.ev)
    m.effective_charge
    (Units.pa_to_mpa m.critical_stress)
    (Units.pa_to_mpa m.thermal_stress)
    m.temperature (beta m) (kappa m)
    (Units.a_per_m_to_a_per_um (jl_crit m))

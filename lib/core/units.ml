let boltzmann = 1.380649e-23

let electron_charge = 1.602176634e-19

let ev = 1.602176634e-19

let nm x = x *. 1e-9

let um x = x *. 1e-6

let mm x = x *. 1e-3

let m_to_um x = x *. 1e6

let mpa x = x *. 1e6

let gpa x = x *. 1e9

let pa_to_mpa x = x *. 1e-6

let pa_to_gpa x = x *. 1e-9

let ma_per_cm2 x = x *. 1e10

let a_per_um x = x *. 1e6

let a_per_m_to_a_per_um x = x *. 1e-6

let hours x = x *. 3600.

let days x = x *. 86400.

let years x = x *. 86400. *. 365.25

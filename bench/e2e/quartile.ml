(* Quartiles by the "exclusive" method of Python's
   [statistics.quantiles (data, n=4)], so a spread printed here is the
   one an external checker recomputes from the same samples. The middle
   quartile equals the median. *)

type t = { q1 : float; median : float; q3 : float; n : int }

let of_samples samples =
  let d = Array.of_list samples in
  Array.sort Float.compare d;
  let n = Array.length d in
  if n = 0 then invalid_arg "Quartile.of_samples: no samples";
  if n = 1 then { q1 = d.(0); median = d.(0); q3 = d.(0); n }
  else begin
    let m = n + 1 in
    let cut i =
      (* Python clamps the rank to 1 .. n-1 and then interpolates, which
         extrapolates past the extremes for very small n. *)
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.
    in
    { q1 = cut 1; median = cut 2; q3 = cut 3; n }
  end

(* Inter-quartile distance as a share of the median. *)
let spread t =
  if t.median = 0. then 0. else (t.q3 -. t.q1) /. Float.abs t.median

(* Quickstart: the paper's running example (Fig. 5 / Table I / Eq. 26).

   Build a two-segment line, run the traditional Blech filter and the
   exact linear-time immortality test, and show where they disagree.

       v1 ---- seg 1 (j1, l1, w1) ---- v2 ---- seg 2 (j2, l2, w2) ---- v3

   Run with: dune exec examples/quickstart.exe *)

module M = Em_core.Material
module U = Em_core.Units
module St = Em_core.Structure
module Ss = Em_core.Steady_state
module Im = Em_core.Immortality
module Bl = Em_core.Blech

let () =
  let cu = M.cu_dac21 in
  Format.printf "Material model:@.%a@.@." M.pp cu;

  (* A two-segment line: a lightly loaded wide segment feeding a
     narrower segment that carries most of the current. Each segment is
     individually below the traditional Blech threshold. *)
  let jl_crit = M.jl_crit cu in
  let l1 = U.um 35. and l2 = U.um 40. in
  let j1 = 0.9 *. jl_crit /. l1 and j2 = 0.9 *. jl_crit /. l2 in
  let line =
    St.line
      [
        St.segment ~length:l1 ~width:(U.um 1.0) ~j:j1 ();
        St.segment ~length:l2 ~width:(U.um 1.0) ~j:j2 ();
      ]
  in
  Format.printf "Structure:@.%a@.@." St.pp line;

  (* Stage 1: the traditional per-segment Blech filter. *)
  Array.iteri
    (fun k immortal ->
      Format.printf
        "traditional Blech, segment %d: jl = %.3f A/um vs %.3f critical -> %s@."
        k
        (U.a_per_m_to_a_per_um (Bl.product line k))
        (U.a_per_m_to_a_per_um jl_crit)
        (if immortal then "immortal" else "potentially mortal"))
    (Bl.filter cu line);

  (* Stage 2: the exact steady-state analysis (Theorem 2). *)
  let sol = Ss.solve cu line in
  Format.printf "@.Steady-state node stresses (exact, O(|E|)):@.";
  Array.iteri
    (fun i sigma ->
      Format.printf "  sigma(v%d) = %+.3f MPa@." (i + 1) (U.pa_to_mpa sigma))
    sol.Ss.node_stress;
  let report = Im.check cu line in
  Format.printf "@.%a@.@." Im.pp report;

  if report.Im.structure_immortal then
    Format.printf
      "NOTE: every segment passed the traditional filter AND the exact test.@."
  else
    Format.printf
      "NOTE: every segment passed the traditional filter, but the exact test@.\
       finds stress %.1f MPa >= %.1f MPa at node %d: the Blech sums of the@.\
       two segments accumulate (false positive of the traditional filter).@."
      (U.pa_to_mpa report.Im.max_stress)
      (U.pa_to_mpa report.Im.threshold)
      report.Im.max_node;

  (* The same wire with the second segment's current reversed: back flow
     cancels the Blech sum and the structure becomes immortal. *)
  let reversed =
    St.with_current_densities line [| j1; -.j2 |]
  in
  let report' = Im.check cu reversed in
  Format.printf "@.Reversing segment 2's current: %s (max %.1f MPa)@."
    (if report'.Im.structure_immortal then "IMMORTAL" else "MORTAL")
    (U.pa_to_mpa report'.Im.max_stress)

(* Runtime numerical auditing. See the .mli for the residual taxonomy
   (tolerance-gated / informational) and DESIGN §10.

   The gated checks are the paper's physics — Lemma 1 per segment and
   Lemma 3 over the structure — so they hold for any correct solver.
   The schedule is built only to walk the critical Blech path. *)

module Ss = Steady_state
module St = Structure

type contribution = {
  ct_seg : int;
  ct_parent : int;
  ct_node : int;
  ct_delta : float;
}

type residuals = {
  flux_rel : float;
  mass_rel : float;
  kcl_interior_rel : float;
}

type t = {
  au_index : int;
  au_layer : int;
  au_nodes : int;
  au_segments : int;
  au_threshold : float;
  au_max_stress : float;
  au_max_node : int;
  au_margin : float;
  au_rel_margin : float;
  au_immortal : bool;
  au_residuals : residuals;
  au_path : contribution array;
  au_top : contribution array;
}

let default_tol = 1e-9

let default_top_k = 5

(* Guard against 0/0 without disturbing exact zeros: a residual of 0
   divided by any positive scale stays 0. *)
let tiny = 1e-300

let rel diff scale = Float.abs diff /. Float.max scale tiny

(* ------------------------------------------------------------------ *)
(* The checks                                                          *)

(* Lemma 1 per segment: sigma(x) = sigma_tail - beta j x, so
   sigma_head - sigma_tail + beta j l = 0 — up to rounding on tree
   segments, and up to the cycle consistency of the currents on mesh
   chords. Worst relative residual over the segments. *)
let flux_residual (c : St.t) (sol : Ss.solution) =
  let m = St.num_segments c in
  let beta = sol.Ss.beta in
  let stress = sol.Ss.node_stress in
  let worst = ref 0. in
  for k = 0 to m - 1 do
    let st = stress.(c.St.tail.(k)) and sh = stress.(c.St.head.(k)) in
    let drop = beta *. c.St.j.(k) *. c.St.length.(k) in
    let scale =
      Float.max (Float.abs drop) (Float.max (Float.abs st) (Float.abs sh))
    in
    worst := Float.max !worst (rel (sh -. st +. drop) scale)
  done;
  !worst

(* Lemma 3: integral of sigma over the structure is 0. Trapezoid per
   segment (exact — sigma is linear in x), normalized by
   [A * max |sigma|]. *)
let mass_residual (c : St.t) (sol : Ss.solution) =
  let m = St.num_segments c in
  let stress = sol.Ss.node_stress in
  let acc = ref 0. and sigma_scale = ref 0. in
  for k = 0 to m - 1 do
    let st = stress.(c.St.tail.(k)) and sh = stress.(c.St.head.(k)) in
    acc := !acc +. (c.St.wh.(k) *. c.St.length.(k) *. (st +. sh) /. 2.);
    sigma_scale :=
      Float.max !sigma_scale (Float.max (Float.abs st) (Float.abs sh))
  done;
  rel !acc (Float.abs sol.Ss.volume *. Float.max !sigma_scale tiny)

(* Per-node current balance from the CSR: sum of signed currents
   [I = j * wh] over the incident slots. Only interior (degree >= 2)
   nodes are scanned, and even they legitimately carry via taps on a
   power grid — informational, never gated. *)
let kcl_residual (c : St.t) =
  let n = St.num_nodes c in
  let offsets = c.St.offsets in
  let worst = ref 0. in
  for v = 0 to n - 1 do
    let lo = offsets.(v) and hi = offsets.(v + 1) in
    if hi - lo >= 2 then begin
      let acc = ref 0. and scale = ref 0. in
      for slot = lo to hi - 1 do
        let e = c.St.adj_edge.(slot) in
        let flow = c.St.j.(e) *. c.St.wh.(e) in
        let signed = if c.St.tail.(e) = v then flow else -.flow in
        acc := !acc +. signed;
        scale := Float.max !scale (Float.abs flow)
      done;
      worst := Float.max !worst (rel !acc !scale)
    end
  done;
  !worst

(* The critical Blech path: tree path from the reference to the most
   stressed node. Each step's contribution to the peak is
   sigma(child) - sigma(parent) = -beta * (b_child - b_parent)
                                = -beta * sign * j * l. *)
let critical_path (sched : Ss.Schedule.t) (c : St.t) ~beta ~max_node =
  let n = St.num_nodes c in
  let pnode = Array.make n (-1) in
  let pedge = Array.make n (-1) in
  let psign = Array.make n 0. in
  let node = sched.Ss.Schedule.node and parent = sched.Ss.Schedule.parent in
  let edge = sched.Ss.Schedule.edge and sign = sched.Ss.Schedule.sign in
  for i = 0 to Array.length node - 1 do
    pnode.(node.(i)) <- parent.(i);
    pedge.(node.(i)) <- edge.(i);
    psign.(node.(i)) <- sign.(i)
  done;
  let steps = ref [] in
  let v = ref max_node in
  while !v <> sched.Ss.Schedule.reference do
    let e = pedge.(!v) in
    steps :=
      {
        ct_seg = e;
        ct_parent = pnode.(!v);
        ct_node = !v;
        ct_delta = -.beta *. psign.(!v) *. c.St.j.(e) *. c.St.length.(e);
      }
      :: !steps;
    v := pnode.(!v)
  done;
  Array.of_list !steps

let top_contributions path k =
  let sorted = Array.copy path in
  Array.sort
    (fun a b ->
      match Float.compare (Float.abs b.ct_delta) (Float.abs a.ct_delta) with
      | 0 -> compare a.ct_seg b.ct_seg
      | c -> c)
    sorted;
  Array.sub sorted 0 (min k (Array.length sorted))

let check ?(index = -1) ?(layer = -1) ?(top_k = default_top_k)
    material (c : St.t) (sol : Ss.solution) =
  if top_k < 0 then invalid_arg "Audit.check: top_k < 0";
  let sched = Ss.Schedule.make ~reference:sol.Ss.reference c in
  let residuals =
    {
      flux_rel = flux_residual c sol;
      mass_rel = mass_residual c sol;
      kcl_interior_rel = kcl_residual c;
    }
  in
  let threshold = Material.effective_critical_stress material in
  let max_stress, max_node = Ss.max_stress sol in
  let margin = threshold -. max_stress in
  let path =
    critical_path sched c ~beta:sol.Ss.beta ~max_node
  in
  {
    au_index = index;
    au_layer = layer;
    au_nodes = St.num_nodes c;
    au_segments = St.num_segments c;
    au_threshold = threshold;
    au_max_stress = max_stress;
    au_max_node = max_node;
    au_margin = margin;
    au_rel_margin = margin /. Float.max (Float.abs threshold) tiny;
    au_immortal = max_stress < threshold;
    au_residuals = residuals;
    au_path = path;
    au_top = top_contributions path top_k;
  }

let worst_residual t =
  Float.max t.au_residuals.flux_rel t.au_residuals.mass_rel

(* NaN-proof gate: [not (r <= bound)] trips on NaN residuals too, so a
   poisoned solution cannot audit clean. *)
let violations ~tol t =
  let r = t.au_residuals in
  let out = ref [] in
  let gate name v bound = if not (v <= bound) then out := (name, v) :: !out in
  gate "mass" r.mass_rel tol;
  gate "flux" r.flux_rel tol;
  !out

let violation_diag ~strict ~tol t =
  match violations ~tol t with
  | [] -> None
  | vs ->
    let detail =
      String.concat ", "
        (List.map (fun (name, v) -> Printf.sprintf "%s=%.3e" name v) vs)
    in
    let severity = if strict then Diag.Error else Diag.Warning in
    Some
      (Diag.make severity
         ~source:(Diag.Structure { index = t.au_index; layer = t.au_layer })
         ~code:"audit-residual"
         (Printf.sprintf
            "numerical audit residual out of bounds (tol %.1e): %s" tol detail))

type summary = {
  su_audited : int;
  su_violations : int;
  su_worst_residual : float;
  su_min_margin : float;
  su_min_rel_margin : float;
  su_min_margin_index : int;
}

let summarize ~tol audits =
  Array.fold_left
    (fun s -> function
      | None -> s
      | Some t ->
        let s =
          {
            s with
            su_audited = s.su_audited + 1;
            su_violations =
              (s.su_violations + if violations ~tol t = [] then 0 else 1);
            su_worst_residual = Float.max s.su_worst_residual (worst_residual t);
          }
        in
        if t.au_margin < s.su_min_margin then
          {
            s with
            su_min_margin = t.au_margin;
            su_min_rel_margin = t.au_rel_margin;
            su_min_margin_index = t.au_index;
          }
        else s)
    {
      su_audited = 0;
      su_violations = 0;
      su_worst_residual = 0.;
      su_min_margin = infinity;
      su_min_rel_margin = infinity;
      su_min_margin_index = -1;
    }
    audits

let pp ppf t =
  let r = t.au_residuals in
  Format.fprintf ppf
    "@[<v>structure %d (M%d): %d nodes, %d segments — %s@,\
     max stress %.3f MPa at node %d, threshold %.3f MPa, margin %+.3f MPa \
     (%.2f%%)@,\
     residuals: flux %.3e, mass %.3e (tol); kcl %.3e (info)@]"
    t.au_index t.au_layer t.au_nodes t.au_segments
    (if t.au_immortal then "immortal" else "MORTAL")
    (t.au_max_stress *. 1e-6)
    t.au_max_node
    (t.au_threshold *. 1e-6)
    (t.au_margin *. 1e-6)
    (100. *. t.au_rel_margin)
    r.flux_rel r.mass_rel r.kcl_interior_rel

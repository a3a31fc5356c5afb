type solution = { voltages : float array; structure : Structure.t }

let solve ?(tol = 1e-12) material (s : Structure.t) ~injections =
  if not (Structure.is_connected s) then
    invalid_arg "Kirchhoff.solve: disconnected structure";
  let n = Structure.num_nodes s in
  if Array.length injections <> n then
    invalid_arg "Kirchhoff.solve: injection vector length mismatch";
  let total = Array.fold_left ( +. ) 0. injections in
  let scale =
    Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 1e-30 injections
  in
  if Float.abs total > 1e-9 *. scale then
    invalid_arg "Kirchhoff.solve: injections do not sum to zero";
  let rho = material.Material.resistivity in
  let m = Structure.num_segments s in
  let builder = Numerics.Sparse.Builder.create ~expected_nnz:(4 * m) n n in
  for k = 0 to m - 1 do
    let cond =
      s.Structure.width.(k) *. s.Structure.height.(k) /. (rho *. s.Structure.length.(k))
    in
    let t = s.Structure.tail.(k) and h = s.Structure.head.(k) in
    Numerics.Sparse.Builder.add builder t t cond;
    Numerics.Sparse.Builder.add builder h h cond;
    Numerics.Sparse.Builder.add builder t h (-.cond);
    Numerics.Sparse.Builder.add builder h t (-.cond)
  done;
  let laplacian = Numerics.Sparse.Builder.to_csr builder in
  (* Electron current out of node v is sum_e g_e (V_other - V_v) = -(G V)_v,
     so KCL with injections reads G V = -inj. *)
  let rhs = Array.map (fun x -> -.x) injections in
  let result = Numerics.Cg.solve_semidefinite ~tol laplacian rhs in
  let v = result.Numerics.Cg.x in
  let js =
    Array.init m (fun k ->
        (v.(s.Structure.head.(k)) -. v.(s.Structure.tail.(k)))
        /. (rho *. s.Structure.length.(k)))
  in
  { voltages = v; structure = Structure.with_current_densities s js }

let injections_of _material s =
  Array.init (Structure.num_nodes s) (fun v -> -.(Structure.kcl_imbalance s v))

let assemble material (s : Structure.t) =
  let n = Structure.num_nodes s in
  let m = Structure.num_segments s in
  let beta = Material.beta material in
  let builder = Numerics.Sparse.Builder.create ~expected_nnz:(4 * m) n n in
  let rhs = Array.make n 0. in
  for k = 0 to m - 1 do
    let t = s.Structure.tail.(k) and h = s.Structure.head.(k) in
    let bjl = beta *. (s.Structure.j.(k) *. s.Structure.length.(k)) in
    (* Normal equations of sigma_h - sigma_t + beta j l = 0. *)
    Numerics.Sparse.Builder.add builder t t 1.;
    Numerics.Sparse.Builder.add builder h h 1.;
    Numerics.Sparse.Builder.add builder t h (-1.);
    Numerics.Sparse.Builder.add builder h t (-1.);
    rhs.(t) <- rhs.(t) +. bjl;
    rhs.(h) <- rhs.(h) -. bjl
  done;
  (Numerics.Sparse.Builder.to_csr builder, rhs)

let mass_weights (s : Structure.t) =
  let c = Array.make (Structure.num_nodes s) 0. in
  for k = 0 to Structure.num_segments s - 1 do
    let half =
      s.Structure.width.(k) *. s.Structure.height.(k) *. s.Structure.length.(k) /. 2.
    in
    let t = s.Structure.tail.(k) and h = s.Structure.head.(k) in
    c.(t) <- c.(t) +. half;
    c.(h) <- c.(h) +. half
  done;
  c

let solve ?(tol = 1e-12) ?max_iter material s =
  if not (Structure.is_connected s) then
    invalid_arg "Baseline_linsys.solve: disconnected structure";
  let laplacian, rhs = assemble material s in
  let weights = mass_weights s in
  let result =
    Numerics.Cg.solve_semidefinite ?max_iter ~tol laplacian rhs ~weights
  in
  let node_stress = result.Numerics.Cg.x in
  let beta = Material.beta material in
  let volume = Structure.volume s in
  (* Recover the interchangeable bookkeeping fields: with the reference at
     the lowest-id terminus, B_i = B_ref + (sigma_ref - sigma_i)/beta and
     B_ref = 0, while Q/A = sigma_ref/beta + B_ref. *)
  let reference = Structure.default_reference s in
  let q_over_a = node_stress.(reference) /. beta in
  let blech_sum = Array.map (fun sigma -> q_over_a -. (sigma /. beta)) node_stress in
  {
    Steady_state.reference;
    node_stress;
    blech_sum;
    volume;
    q = q_over_a *. volume;
    beta;
  }

let residual material (s : Structure.t) sigma =
  let beta = Material.beta material in
  let scale =
    Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 1e-30 sigma
  in
  let worst = ref 0. in
  for k = 0 to Structure.num_segments s - 1 do
    let r =
      sigma.(s.Structure.head.(k)) -. sigma.(s.Structure.tail.(k))
      +. (beta *. (s.Structure.j.(k) *. s.Structure.length.(k)))
    in
    worst := Float.max !worst (Float.abs r /. scale)
  done;
  !worst

module St = Em_core.Structure
module M = Em_core.Material
module Sp = Numerics.Sparse

type t = {
  mesh : Mesh1d.t;
  stiffness : Sp.t;
  drift : Numerics.Vector.t;
  mass : Numerics.Vector.t;
}

let build material mesh =
  let s = mesh.Mesh1d.structure in
  let n = mesh.Mesh1d.num_unknowns in
  let kappa = M.kappa material in
  let beta = M.beta material in
  let expected =
    4 * Array.fold_left (fun acc p -> acc + p + 1) 0 mesh.Mesh1d.points_per_segment
  in
  let builder = Sp.Builder.create ~expected_nnz:expected n n in
  let drift = Array.make n 0. in
  for k = 0 to St.num_segments s - 1 do
    let wh = s.St.width.(k) *. s.St.height.(k) in
    let dx = mesh.Mesh1d.dx.(k) in
    let c = wh *. kappa /. dx in
    let d = wh *. kappa *. beta *. s.St.j.(k) in
    let cells = Mesh1d.num_cells mesh ~seg:k in
    (* One face between consecutive points; the face flux
       G = wh kappa ((sigma_b - sigma_a)/dx + beta j) enters cell [a]
       positively and cell [b] negatively, giving the SPD stiffness
       K = -(flux Jacobian) and rhs b with +d at [a], -d at [b]. *)
    for i = 1 to cells do
      let a = Mesh1d.point mesh ~seg:k ~idx:(i - 1) in
      let b = Mesh1d.point mesh ~seg:k ~idx:i in
      Sp.Builder.add builder a a c;
      Sp.Builder.add builder b b c;
      Sp.Builder.add builder a b (-.c);
      Sp.Builder.add builder b a (-.c);
      drift.(a) <- drift.(a) +. d;
      drift.(b) <- drift.(b) -. d
    done
  done;
  {
    mesh;
    stiffness = Sp.Builder.to_csr builder;
    drift;
    mass = Array.copy mesh.Mesh1d.control_volume;
  }

let residual_norm t sigma =
  let r = Sp.mul_vec t.stiffness sigma in
  let worst = ref 0. in
  for i = 0 to Array.length r - 1 do
    worst := Float.max !worst (Float.abs (t.drift.(i) -. r.(i)))
  done;
  !worst /. Float.max 1e-300 (Numerics.Vector.norm_inf t.drift)

(** Preconditioned conjugate-gradient solver for symmetric
    positive-(semi)definite sparse systems.

    This is the workhorse behind the finite-volume Korhonen solver
    ({!Pde}) and the linear-system baseline for steady-state EM stress,
    and the independent oracle the tests hold the direct power-grid DC
    solve ({!Spice.Mna}) against. A Jacobi (diagonal)
    preconditioner is used by default, which is effective on the
    diagonally-dominant conductance Laplacians these applications produce.

    For singular-but-consistent systems (pure-Neumann problems whose
    nullspace is the constant vector, e.g. steady-state stress), use
    {!solve_semidefinite}, which projects the constant mode out of the
    iterates and returns the zero-mean solution. *)

type result = {
  x : Vector.t;       (** solution iterate *)
  iterations : int;   (** CG iterations performed *)
  residual : float;   (** final |b - A x|_2 / |b|_2 (or absolute if b = 0) *)
  converged : bool;
}

val solve :
  ?x0:Vector.t ->
  ?max_iter:int ->
  ?tol:float ->
  ?precondition:bool ->
  Sparse.t ->
  Vector.t ->
  result
(** [solve a b] solves [a x = b] for SPD [a]. [tol] (default [1e-10]) is
    relative to [|b|_2]; [max_iter] defaults to [10 * n + 100];
    [precondition] (default [true]) enables the Jacobi preconditioner.
    Raises [Invalid_argument] on non-square [a] or mismatched [b]. *)

val solve_semidefinite :
  ?weights:Vector.t ->
  ?max_iter:int ->
  ?tol:float ->
  Sparse.t ->
  Vector.t ->
  result
(** [solve_semidefinite a b] solves the consistent singular system
    [a x = b] whose nullspace is spanned by the constant vector, returning
    the solution with zero weighted mean: [sum_i weights_i x_i = 0]
    (uniform weights by default). The right-hand side is first projected
    onto the range of [a] (its weighted... uniform mean is removed), so
    mildly incompatible [b] from floating-point assembly is tolerated. *)

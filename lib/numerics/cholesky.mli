(** Sparse LDL^T (Cholesky) factorization for symmetric positive-definite
    systems, in the style of Davis' LDL: an up-looking factorization
    driven by the elimination tree, under an approximate minimum degree
    (AMD) preordering that keeps fill low on power-grid conductance
    matrices.

    The ordering follows Davis' [cs_amd] (quotient graph,
    supervariables, element absorption, approximate external degrees)
    and runs in one flat int workspace of [O(nnz(A) + n)] words, which
    is garbage before the factor is allocated. The factor itself takes
    [nnz(L)] ints and floats plus a few [n]-long arrays, and its inner
    loops work on unboxed floats.

    This is the solver behind {!Spice.Mna}, which hands it one net's
    system at a time, after eliminating its series chains; the
    factorization can be reused across right-hand sides. *)

type t

type ordering =
  | Natural  (** factorize in the given order *)
  | Amd      (** approximate minimum degree preordering *)

exception Not_positive_definite of int
(** Raised during factorization with the offending pivot's row (in the
    matrix's own numbering, before the ordering): a pivot that is not
    positive, or not finite.
    Semidefinite systems (grid Laplacians without a ground connection)
    raise this: pin a reference first. *)

val factorize : ?ordering:ordering -> Sparse.t -> t
(** The matrix must be square and symmetric (only entries of the lower
    triangle of each row, i.e. column indices [<= row], are read; the
    caller is trusted on symmetry — use {!Sparse.is_symmetric} in tests).
    Default ordering: [Amd]. Raises [Invalid_argument] on a non-square
    matrix. *)

val solve : t -> Vector.t -> Vector.t
(** Solve [A x = b]; reusable across many [b]. Raises
    [Invalid_argument] when [b]'s length is not the matrix's. *)

val dim : t -> int
(** Rows of the factored matrix. *)

val nnz_l : t -> int
(** Nonzeros of the L factor (excluding the unit diagonal): the fill. *)

val ordering_permutation : t -> int array
(** The row/column permutation used, as [perm.(new_pos) = old_index]. *)

val ordering_seconds : t -> float
(** Wall time the fill-reducing ordering took. *)

val factor_seconds : t -> float
(** Wall time of the symbolic and numeric factorization after it. *)

(** Sparse LDL^T (Cholesky) factorization for symmetric positive-definite
    systems: left-looking and supernodal (after Ng and Peyton, SIAM J.
    Sci. Comput. 1993, and CHOLMOD, ACM TOMS 35(3), 2008), under an
    approximate minimum degree (AMD) preordering that keeps fill low on
    power-grid conductance matrices.

    The ordering follows Davis' [cs_amd] (quotient graph,
    supervariables, element absorption, approximate external degrees)
    and runs in one flat int workspace of [O(nnz(A) + n)] words, which
    is garbage before the factor is allocated.

    The symbolic pass finds the elimination tree, the column counts and
    from them the fundamental supernodes: runs of consecutive columns
    whose structures nest. A supernode keeps one row-index list and one
    dense column-major block of unboxed floats, D on its diagonal. The
    numeric pass scatters A into each block, subtracts each descendant
    supernode's update as a dense product (two target columns per pass)
    through relative row indices, and factors the block's own columns;
    [solve] goes a supernode at a time. On the pg6-0.42 benchmark deck
    (2 vCPUs) one net's factor took about 0.05 s, where the up-looking
    factor it replaced took 0.08 s at [-j 1] and 0.11 s at [-j 2]: two
    up-looking factors running at once slowed each other 2-3x, two
    supernodal ones barely do.

    This is the solver behind {!Spice.Mna}, which hands it one net's
    system at a time, after eliminating its series chains; the
    factorization can be reused across right-hand sides. *)

type t

type ordering =
  | Natural  (** factorize in the given order *)
  | Amd      (** approximate minimum degree preordering *)

exception Not_positive_definite of int
(** Raised during factorization with the offending pivot's row (in the
    matrix's own numbering, before the ordering): the first pivot in
    elimination order that is not positive, or not finite.
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
(** Structural nonzeros of the L factor (excluding the unit diagonal):
    the fill. The explicit zeros of the dense supernode blocks do not
    count. *)

val supernodes : t -> int
(** Supernodes of the factor: maximal runs of consecutive columns that
    share one row structure below their diagonal block. *)

val ordering_permutation : t -> int array
(** The row/column permutation used, as [perm.(new_pos) = old_index]. *)

val ordering_seconds : t -> float
(** Wall time the fill-reducing ordering took. *)

val factor_seconds : t -> float
(** Wall time of the symbolic and numeric factorization after it. *)

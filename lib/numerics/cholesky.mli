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

    A factorization can cover one diagonal block of a larger matrix:
    rows [\[lo, hi)], whose entries all fall in columns [\[lo, hi)].
    It reads those rows in place, with columns offset by [lo], and its
    solve writes that block's slice of a shared solution vector. So the
    independent blocks of a block-diagonal matrix (one per net of a
    power grid) factor on separate domains without copying the matrix;
    {!factorize} and {!solve} without a range are the whole-matrix case
    of the same code.

    This is the solver behind {!Spice.Mna}; the factorization can be
    reused across right-hand sides. *)

type t

type ordering =
  | Natural  (** factorize in the given order *)
  | Amd      (** approximate minimum degree preordering *)

exception Not_positive_definite of int
(** Raised during factorization with the offending pivot's index (in the
    original numbering, so a row of the whole matrix when factoring a
    range): a pivot that is not positive, or not finite.
    Semidefinite systems (grid Laplacians without a ground connection)
    raise this: pin a reference first. *)

val factorize : ?ordering:ordering -> ?range:int * int -> Sparse.t -> t
(** The matrix must be square and symmetric (only entries of the lower
    triangle of each row, i.e. column indices [<= row], are read; the
    caller is trusted on symmetry — use {!Sparse.is_symmetric} in tests).
    Default ordering: [Amd].

    [~range:(lo, hi)] factors the diagonal block of rows and columns
    [\[lo, hi)] alone. Raises [Invalid_argument] when the range is out
    of bounds or an entry of those rows lies outside its columns. *)

val solve_into : t -> Vector.t -> Vector.t -> unit
(** [solve_into f b x] solves the factored block [A_b x_b = b_b]: it
    reads [b.(lo .. hi-1)] and writes [x.(lo .. hi-1)], nothing else.
    Factors of disjoint ranges may fill one [x] concurrently. Raises
    [Invalid_argument] when [b] or [x] is shorter than [hi]. *)

val solve : t -> Vector.t -> Vector.t
(** Solve [A x = b] with the factor of a whole matrix (a range starting
    at row 0 whose length is [b]'s); reusable across many [b]. *)

val dim : t -> int
(** Rows of the factored block. *)

val nnz_l : t -> int
(** Nonzeros of the L factor (excluding the unit diagonal): the fill. *)

val ordering_permutation : t -> int array
(** The row/column permutation used, as [perm.(new_pos) = old_index],
    both counted from the range's first row. *)

val ordering_seconds : t -> float
(** Wall time the fill-reducing ordering took. *)

val factor_seconds : t -> float
(** Wall time of the symbolic and numeric factorization after it. *)

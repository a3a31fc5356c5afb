(** Sparse matrices in compressed sparse row (CSR) form.

    Matrices are assembled through a mutable {!Builder.t} in coordinate
    form; duplicate entries are summed on {!Builder.to_csr}, which is the
    natural fit for finite-volume/MNA assembly where each element stamps
    several overlapping contributions. *)

type t = private {
  nrows : int;
  ncols : int;
  row_ptr : int array;  (** length [nrows + 1] *)
  col_idx : int array;  (** length [nnz], column indices sorted per row *)
  values : float array; (** length [nnz] *)
}

module Builder : sig
  type csr := t

  type t

  val create : ?expected_nnz:int -> int -> int -> t
  (** [create rows cols] is an empty builder. *)

  val add : t -> int -> int -> float -> unit
  (** [add b i j v] accumulates [v] into entry [(i, j)]. Entries equal to
      [0.] are kept so the sparsity pattern is deterministic. *)

  val to_csr : t -> csr
  (** Freeze into CSR form, summing duplicates. The builder remains usable. *)
end

val of_csr :
  ncols:int -> row_ptr:int array -> col_idx:int array -> values:float array -> t
(** Adopt CSR arrays assembled elsewhere, without copying: [nrows] is
    [length row_ptr - 1]. Raises [Invalid_argument] unless [row_ptr]
    starts at 0 and is non-decreasing, both arrays hold exactly
    [row_ptr.(nrows)] entries, and each row's columns are in range and
    strictly increasing. The caller must not mutate the arrays
    afterwards. *)

val nnz : t -> int

val dims : t -> int * int

val get : t -> int -> int -> float
(** [get m i j] is the stored value at [(i, j)] or [0.]; O(log nnz_row). *)

val mul_vec : t -> Vector.t -> Vector.t

val mul_vec_into : t -> Vector.t -> Vector.t -> unit
(** [mul_vec_into m x y] writes [m x] into [y] without allocating. *)

val diagonal : t -> Vector.t
(** The main diagonal (zeros where no entry is stored); requires square. *)

val transpose : t -> t

val scale : float -> t -> t

val add : t -> t -> t
(** Entrywise sum; patterns are merged. *)

val add_diagonal : t -> Vector.t -> t
(** [add_diagonal m d] is [m + diag d]; requires square [m]. *)

val identity : int -> t

val to_dense : t -> Dense.t

val is_symmetric : ?tol:float -> t -> bool
(** True when [|m - m^T|] entries are all within [tol] (default [1e-12])
    relative to the largest magnitude entry. *)

val row_sums : t -> Vector.t

val pp_stats : Format.formatter -> t -> unit
(** One-line summary: dimensions and nnz. *)

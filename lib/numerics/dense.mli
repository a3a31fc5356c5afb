(** Small dense matrices with partial-pivoting LU factorization.

    Intended for small systems (structure-level solves, test oracles, and
    the dense baseline of the steady-state analysis); storage is row-major.
    For large sparse systems use {!Sparse} with {!Cg}. *)

type t

val create : int -> int -> t
(** [create rows cols] is a zero matrix. *)

val identity : int -> t

val of_arrays : float array array -> t
(** Rows must be non-empty and of equal length. *)

val to_arrays : t -> float array array

val rows : t -> int

val cols : t -> int

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val add_to : t -> int -> int -> float -> unit
(** [add_to m i j v] performs [m.(i).(j) <- m.(i).(j) + v]. *)

val copy : t -> t

val transpose : t -> t

val mul : t -> t -> t

val mul_vec : t -> Vector.t -> Vector.t

exception Singular
(** Raised by the solvers when a pivot underflows. *)

val solve : t -> Vector.t -> Vector.t
(** [solve a b] solves [a x = b] for square [a] by LU with partial
    pivoting; [a] is not modified. Raises {!Singular} on (numerically)
    singular input. *)

val solve_least_squares : t -> Vector.t -> Vector.t
(** Minimum-residual solution of an overdetermined system via normal
    equations; used for rank-deficient steady-state oracles in tests. *)

val determinant : t -> float

val pp : Format.formatter -> t -> unit

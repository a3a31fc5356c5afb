(** Dense floating-point vectors.

    A vector is an unboxed [float array]. All binary operations require
    operands of equal length and raise [Invalid_argument] otherwise. The
    [*_into] variants write their result into a caller-supplied destination
    and are used in solver inner loops to avoid allocation. *)

type t = float array

val create : int -> t
(** [create n] is a zero-filled vector of length [n]. *)

val init : int -> (int -> float) -> t
(** [init n f] is [| f 0; ...; f (n-1) |]. *)

val copy : t -> t

val dim : t -> int

val fill : t -> float -> unit

val blit : src:t -> dst:t -> unit
(** [blit ~src ~dst] copies [src] into [dst]. *)

val dot : t -> t -> float
(** Euclidean inner product. *)

val norm2 : t -> float
(** Euclidean norm, [sqrt (dot x x)]. *)

val norm_inf : t -> float
(** Maximum absolute entry; [0.] for the empty vector. *)

val sum : t -> float

val scale : float -> t -> t
(** [scale a x] is a fresh vector [a * x]. *)

val add : t -> t -> t

val sub : t -> t -> t

val axpy : a:float -> x:t -> y:t -> unit
(** [axpy ~a ~x ~y] updates [y <- a*x + y] in place. *)

val xpay : x:t -> a:float -> y:t -> unit
(** [xpay ~x ~a ~y] updates [y <- x + a*y] in place. *)

val max_abs_diff : t -> t -> float
(** [max_abs_diff x y] is [norm_inf (sub x y)] without allocating. *)

val rel_diff : t -> t -> float
(** [rel_diff x y] is [max_abs_diff x y / max 1e-300 (max |x|_inf |y|_inf)];
    a symmetric relative distance suitable for solver cross-validation. *)

val approx_equal : ?rtol:float -> ?atol:float -> t -> t -> bool
(** Entrywise [|x_i - y_i| <= atol + rtol * max (|x_i|, |y_i|)]. Defaults:
    [rtol = 1e-9], [atol = 1e-12]. *)

val pp : Format.formatter -> t -> unit

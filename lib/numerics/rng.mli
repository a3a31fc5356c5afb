(** Deterministic pseudo-random number generation (splitmix64).

    All synthetic workloads (grid synthesis, current maps, random
    structures) draw from this generator so that every experiment is
    reproducible from a printed seed, independent of the OCaml stdlib
    [Random] state.

    Draws allocate nothing: the state is kept unboxed and every
    intermediate stays in registers, so only a [float] or [int64]
    returned across a module boundary is boxed by the caller's
    compiler. Hot loops use {!gaussian_positive_fill}, which stores
    into an array instead.

    The stream is fixed: a given seed yields the same values, bit for
    bit, from every function here, and generated decks and recorded
    references depend on that. The raw words and the uniform draws
    ({!int64}, {!float}, {!int}, {!bool}, {!uniform}, {!exponential},
    {!shuffle}, {!choose}, {!split}) are unchanged since the state was
    a boxed [int64]. The normal draws ({!gaussian},
    {!gaussian_positive}, {!gaussian_positive_fill}) are versioned by
    {!stream_version}: version 2 maps one nonzero uniform through
    {!normal_quantile} per normal; version 1 was Box-Muller, two
    uniforms per normal, and is gone. *)

type t

val create : int64 -> t
(** [create seed] is a fresh generator. Equal seeds give equal streams. *)

val split : t -> t
(** A statistically independent generator derived from (and advancing)
    [t]; used to give each grid layer / region its own stream.
    [split t] is [create (int64 t)], so a seed drawn with {!int64} can
    be turned into the same stream later, on another domain. *)

val int64 : t -> int64
(** Next raw 64-bit value. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. [bound] must be > 0. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be > 0. *)

val bool : t -> bool

val uniform : t -> float -> float -> float
(** [uniform t lo hi] is uniform in [\[lo, hi)]. *)

val normal_quantile : float -> float
(** [normal_quantile p] is the standard normal quantile [Phi^-1 p],
    by Wichura's algorithm AS241 (PPND16), accurate to about 1e-16
    relative. Raises [Invalid_argument] unless [0 < p < 1]. *)

val stream_version : int
(** The version of the normal stream, [2]. It changes whenever the
    normals drawn from a given seed change. *)

val gaussian : t -> mean:float -> stddev:float -> float
(** Normal deviate [mean + stddev * normal_quantile u] of one uniform
    [u] in (0, 1), one raw word per draw ([u = 0] is redrawn). *)

val gaussian_positive : t -> mean:float -> stddev:float -> float
(** Zero-truncated normal deviate: draws from {!gaussian} until the
    result is strictly positive. Unlike clamping, rejection keeps the
    mean of the sampled distribution close to [mean] (the truncation
    bias is [stddev * phi(mean/stddev) / Phi(mean/stddev)], negligible
    for [stddev <~ mean / 3]). The number of draws consumed is variable,
    so interleaved streams must not assume a fixed stride. [mean] must
    be > 0 so termination is (probabilistically) guaranteed. *)

val gaussian_positive_fill :
  t -> mean:float -> stddev:float -> float array -> int -> int -> unit
(** [gaussian_positive_fill t ~mean ~stddev dst off len] stores [len]
    successive {!gaussian_positive} draws into [dst.(off)] ..
    [dst.(off + len - 1)], consuming exactly the same words, without
    allocating. Raises [Invalid_argument] if [mean <= 0] or the range
    is not inside [dst]. *)

val exponential : t -> rate:float -> float

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

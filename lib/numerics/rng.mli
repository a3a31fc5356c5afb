(** Deterministic pseudo-random number generation (splitmix64).

    All synthetic workloads (grid synthesis, current maps, random
    structures) draw from this generator so that every experiment is
    reproducible from a printed seed, independent of the OCaml stdlib
    [Random] state.

    Draws allocate nothing: the state is kept unboxed and every
    intermediate stays in registers, so only a [float] or [int64]
    returned across a module boundary is boxed by the caller's
    compiler. {!gaussian} and {!gaussian_positive} also allocate a
    one-slot array for the normal core to store into. Hot loops use
    {!gaussian_positive_fill}, which stores into the caller's array
    and allocates nothing, slow path included.

    The stream is fixed: a given seed yields the same values, bit for
    bit, from every function here, and generated decks and recorded
    references depend on that. The raw words and the uniform draws
    ({!int64}, {!float}, {!int}, {!bool}, {!uniform}, {!exponential},
    {!shuffle}, {!split}) are unchanged since the state was
    a boxed [int64]. The normal draws ({!gaussian},
    {!gaussian_positive}, {!gaussian_positive_fill}) share one core and
    are versioned by {!stream_version}: version 3 is Doornik's ZIGNOR
    ziggurat, 128 layers, one raw word per try and about 2.8% of tries
    on a slow path that draws more words. Version 2 mapped one uniform
    through the AS241 normal quantile and version 1 was Box-Muller; both
    are gone. *)

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

val stream_version : int
(** The version of the normal stream, [3]. It changes whenever the
    normals drawn from a given seed change. *)

val gaussian : t -> mean:float -> stddev:float -> float
(** Normal deviate [mean + stddev * n], [n] a standard normal drawn by
    the 128-layer ziggurat (ZIGNOR; Doornik 2005, Marsaglia and Tsang
    2000). Each try takes one raw word: its low 7 bits pick the layer
    [i], its top 53 bits a uniform [u] in [\[-1, 1)], and [u X_i] is
    accepted when [|u| < X_(i+1) / X_i]. Otherwise layer 0 draws
    Marsaglia's tail beyond [R = 3.442619855899] and the other layers
    test the wedge, each uniform one more word; a rejected wedge starts
    a new try. *)

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


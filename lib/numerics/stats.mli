(** Small descriptive-statistics helpers used by reports and tests. *)

val mean : float array -> float
(** Arithmetic mean; [nan] on empty input. *)

val variance : float array -> float
(** Sample variance with Bessel's correction (denominator [n - 1]).
    [nan] on empty input, [0.] for a single observation. *)

val stddev : float array -> float
(** Square root of {!variance} (sample standard deviation). *)

val min_max : float array -> float * float
(** Raises [Invalid_argument] on empty input. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0, 100\]], linear interpolation between
    order statistics. Raises [Invalid_argument] on empty input or [p]
    outside the range. Input is not modified. *)

val median : float array -> float

val rmse : float array -> float array -> float
(** Root-mean-square difference of two equal-length samples. *)

val max_rel_error : float array -> float array -> float
(** [max_i |x_i - y_i| / max(scale, |y_i|)] where [scale] is the largest
    magnitude in [y] times 1e-12 (guards exact zeros); the metric used to
    compare closed-form stresses against PDE solutions. *)

val histogram : float array -> bins:int -> lo:float -> hi:float -> int array
(** Counts per bin; values outside [\[lo, hi)] are clamped into the first or
    last bin. [bins] must be positive. *)

(** Streaming (one-pass, O(1)-memory) mean and variance via Welford's
    algorithm. Used by the Monte-Carlo variation engine so per-structure
    memory is independent of the sample count. *)
module Online : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit

  val add_slice : t -> float array -> int -> int -> unit
  (** [add_slice t a pos len] adds [a.(pos)] … [a.(pos + len - 1)] in
      order, exactly as that many {!add} calls would, without boxing a
      float per observation. *)

  val count : t -> int

  val mean : t -> float
  (** [nan] before any observation. *)

  val variance : t -> float
  (** Sample variance (Bessel-corrected), matching {!Stats.variance}:
      [nan] on no observations, [0.] on one. *)

  val stddev : t -> float
end

(** Streaming quantile estimation with the P{^2} algorithm
    (Jain & Chlamtac, 1985): five markers, no sample storage. *)
module P2 : sig
  type t

  val create : float -> t
  (** [create p] estimates the [p]-quantile, [p] inside (0, 1).
      Raises [Invalid_argument] otherwise. *)

  val add : t -> float -> unit
  (** Feed one observation. Behaviour is defined for finite inputs;
      callers must filter NaN/infinite samples first. *)

  val add_slice : t -> float array -> int -> int -> unit
  (** [add_slice t a pos len] feeds [a.(pos)] … [a.(pos + len - 1)] in
      order, exactly as that many {!add} calls would, without boxing a
      float per observation. *)

  val count : t -> int

  val quantile : t -> float
  (** Current estimate. Exact (interpolated order statistic, same
      convention as {!Stats.percentile}) while [count <= 5]; the P{^2}
      marker approximation afterwards. [nan] before any observation. *)
end

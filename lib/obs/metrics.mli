(** Process-wide metrics registry: counters, gauges, and fixed-bucket
    histograms, with Prometheus text exposition.

    Handles are created once (at module initialization of the
    instrumented code) and bumped from hot paths; creation registers the
    metric in a registry (the {!default} one unless given). Creation is
    idempotent on (name, labels): asking again returns the same handle,
    so the instrumented libraries can be initialized in any order.

    All updates are lock-free (atomics; the histogram sum uses a CAS
    loop) and safe from any domain. Updates are gated by one global
    flag, off by default: a bump while disabled is a single atomic load
    and branch, cheap enough for per-segment hot paths (verified by
    [bench/main.exe obs]). Reads (snapshot, exposition) always work and
    simply see zeros if nothing was recorded.

    Metric naming follows Prometheus conventions: [snake_case], counters
    end in [_total], time histograms in [_seconds]. *)

type t
(** A registry. *)

val create : unit -> t

val default : t
(** The registry instrumented library code registers into. *)

val set_enabled : bool -> unit
(** Globally enable/disable metric updates (all registries). *)

val is_enabled : unit -> bool

val with_enabled : bool -> (unit -> 'a) -> 'a
(** Run with the flag set, restoring the previous value afterwards
    (also on exceptions). *)

(** {1 Counters} *)

type counter

val counter :
  ?registry:t -> ?labels:(string * string) list -> help:string -> string ->
  counter
(** [counter ~help name] registers (or finds) a monotonically increasing
    integer counter. Raises [Invalid_argument] if [name]+[labels] is
    already registered as a different metric kind. *)

val inc : counter -> unit

val inc_by : counter -> int -> unit
(** No-op when disabled or [n <= 0] (counters never decrease). *)

val counter_value : counter -> int

(** {1 Gauges} *)

type gauge

val gauge :
  ?registry:t -> ?labels:(string * string) list -> help:string -> string ->
  gauge

val set_gauge : gauge -> float -> unit

val gauge_value : gauge -> float

(** {1 Histograms} *)

type histogram

val histogram :
  ?registry:t -> ?labels:(string * string) list -> ?buckets:float array ->
  help:string -> string -> histogram
(** Fixed cumulative-bucket histogram; [buckets] are the finite upper
    bounds (inclusive, strictly increasing; a [+Inf] overflow bucket is
    implicit) and default to the latency bounds [1us, 10us, 100us, 1ms,
    10ms, 100ms, 1s, 10s] in seconds. Raises
    [Invalid_argument] on unsorted or non-finite bounds. *)

val observe : histogram -> float -> unit

val time : histogram -> (unit -> 'a) -> 'a
(** [time h f] runs [f] and observes its wall-clock duration in seconds;
    just [f ()] when metrics are disabled (the clock is not read). An
    exception propagates without an observation. *)

val histogram_count : histogram -> int

val histogram_sum : histogram -> float

(** {1 Reading} *)

type sample = {
  s_name : string;
  s_kind : string;  (** ["counter"] | ["gauge"] | ["histogram"] *)
  s_help : string;
  s_labels : (string * string) list;
  s_value : float;  (** counter/gauge value; histogram sum *)
  s_count : int;    (** histogram observation count; 0 otherwise *)
  s_buckets : (float * int) list;
      (** histogram only: cumulative counts per upper bound, ending with
          [(infinity, count)] *)
}

val snapshot : ?registry:t -> unit -> sample list
(** All registered metrics in registration order. *)

val to_prometheus : ?registry:t -> unit -> string
(** Prometheus text exposition format (version 0.0.4): [# HELP] /
    [# TYPE] per family, histograms as [_bucket{le="..."}] cumulative
    series plus [_sum] / [_count], label values and help text escaped
    per the spec. *)

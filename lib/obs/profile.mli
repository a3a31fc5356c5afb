(** Exact span profile: self-time attribution from the completed-span
    buffer.

    Every completed span's {e self} time is its duration minus the sum
    of its direct children's, with the same rollup for the allocation
    deltas spans already carry. Parents resolve on the span's own
    domain, so self-times telescope: summed over a trace they equal the
    total duration of its root spans ({!span_wall_us}), and "% of wall"
    columns are well-defined.

    Two views of the same numbers:

    {ul
    {- {!attribute}: per span-name path (lanes merged), self vs total
       time and allocation — the report's [telemetry.hot_paths];}
    {- {!stacks}: self-time per (lane, path), exported as folded
       stacks ({!to_folded}), which [flamegraph.pl] renders and
       speedscope imports.}}

    Both read only the trace, so profiling costs nothing beyond
    tracing the run. *)

(** {1 Attribution} *)

type hot_path = {
  hp_path : string list;   (** root-first span-name path *)
  hp_count : int;          (** completed spans at this path *)
  hp_total_us : float;
  hp_self_us : float;      (** total − Σ direct children, clamped ≥ 0 *)
  hp_alloc_words : float;
  hp_self_alloc_words : float;
}

val attribute : Trace.t -> hot_path list
(** Per-path rollup over the completed-span buffer, sorted by
    descending self-time (ties by path). A span whose parent was
    evicted by the buffer cap is treated as a root. *)

val span_wall_us : Trace.t -> float
(** Total duration of the trace's root spans — the denominator for
    "% of wall"; equals Σ self-time over all spans up to float
    rounding. *)

(** {1 Per-lane profile} *)

type stack = {
  sk_track : int;          (** domain (lane) the spans ran on *)
  sk_path : string list;   (** root-first span-name path *)
  sk_self_us : float;      (** summed self-time of those spans *)
}

val stacks : Trace.t -> stack list
(** Self-time grouped by (lane, path), sorted by track, then path. The
    [sk_self_us] sum to {!span_wall_us}. *)

val to_folded : ?track_names:(int * string) list -> stack list -> string
(** One line [lane;span;span... µs] per stack, sorted by track, then
    path — the input format of Brendan Gregg's [flamegraph.pl]. Values
    are whole microseconds: the rounding remainder carries from line
    to line, so every line is within 1 µs of its self-time and the
    lines total the rounded sum of all self-times. A line that would
    read 0 is left out. Lanes use [track_names] (e.g.
    {!Trace.track_names}) and fall back to [track-N]. *)

(** Hierarchical tracing with per-domain tracks and Chrome trace-event
    export.

    A trace is a buffer of completed {e spans}: named, timed intervals
    with attributes, a parent link (the span that was open on the same
    domain when this one started), and a {e track} — the lane the span
    ran on: the main domain, a parallel section's worker slot, or
    another domain ({!track}) — so parallel workers render as separate
    lanes in a trace viewer. The exporter writes the Chrome trace-event JSON format,
    loadable in Perfetto ({:https://ui.perfetto.dev}) or
    [chrome://tracing]. {!Profile} derives exact per-path self-times
    and the folded-stack profile from the same buffer.

    Tracing is off by default and gated by one global flag: with no
    trace installed, {!with_span} costs a single atomic load and branch
    and allocates nothing — cheap enough to leave in per-structure hot
    paths (verified by [bench/main.exe obs]). Install a sink with
    {!enable} / {!with_enabled}.

    Thread model: spans may complete concurrently on any domain
    (the buffer is mutex-protected); the enable/disable flip itself is
    meant to happen from one controlling domain while no spans are
    open. *)

type value = Bool of bool | Int of int | Float of float | String of string
(** Attribute values; rendered into the Chrome event's [args]. *)

val value_to_string : value -> string
(** Plain (unquoted) rendering, used for flight-recorder details and
    log fields. *)

type event = {
  id : int;            (** unique per trace, allocation order *)
  parent : int option; (** enclosing span on the same domain, if any *)
  name : string;
  track : int;         (** lane the span ran on ({!track}) *)
  start_us : float;    (** {!Clock.now_us} at span start *)
  dur_us : float;      (** duration, >= 0 *)
  error : bool;        (** the span body raised *)
  attrs : (string * value) list;
  gc_minor_words : float;  (** words allocated in the minor heap *)
  gc_major_words : float;  (** words allocated directly in the major heap *)
  gc_promoted_words : float;
      (** minor words that survived into the major heap *)
  gc_minor_collections : int;  (** minor GCs during the span *)
  gc_major_collections : int;  (** major GC cycles completed *)
}

val allocated_words : event -> float
(** Words freshly allocated during the span
    ([minor + major - promoted], the standard double-count correction). *)

type t
(** A trace buffer (sink) of completed spans. *)

val create : ?capacity:int -> unit -> t
(** [capacity] bounds the completed-span buffer (default 1,000,000 — a
    few hundred MB of events at most). Once full, further spans are
    {e dropped}, counted in {!dropped_spans}, with one [warn] event on
    the {!Flight} ring the first time; timing and nesting keep working
    (a kept span whose parent was dropped counts as a root in
    {!Profile}). Raises [Invalid_argument] when [capacity < 1]. *)

val capacity : t -> int

val dropped_spans : t -> int
(** Spans dropped because the buffer was at capacity. *)

val enable : t -> unit
(** Install [t] as the process-wide sink and name the calling domain's
    track ["main"]. Subsequent {!with_span} calls record into it. *)

val disable : unit -> unit
(** Remove the sink; {!with_span} returns to its no-op fast path. *)

val enabled : unit -> bool

val with_enabled : t -> (unit -> 'a) -> 'a
(** [with_enabled t f] runs [f] with [t] installed, restoring the
    previously installed sink (or none) afterwards, also on exceptions. *)

val with_span :
  ?attrs:(string * value) list ->
  ?result_attrs:('a -> (string * value) list) ->
  string ->
  (unit -> 'a) ->
  'a
(** [with_span name f] runs [f ()]; when tracing is enabled, the call is
    recorded as a completed span on the calling domain's track, nested
    under the innermost open span of that domain, with the span's GC
    deltas ({!Alloc.domain} for the word counts, [Gc.quick_stat] for
    the collection counts) attached. [result_attrs] adds attributes
    computed from [f]'s result (what only the body learns, e.g. sizes
    or sub-timings); it is not called when tracing and the flight
    recorder are both off. If [f] raises, the span is recorded with
    [error = true] and the exception propagates. Completed spans are
    also pushed onto the {!Flight} ring when that recorder is on — even
    with no trace sink installed (timed, without ids or GC accounting).
    When tracing and the flight recorder are both disabled this is
    [f ()] plus two flag loads. *)

val track : unit -> int
(** The calling domain's track (lane) id: its worker slot [w >= 1]
    after {!set_worker_lane}, otherwise minus its [Domain.self] id, so
    the main domain is lane 0 and no domain outside a parallel section
    shares a worker's lane. *)

val set_worker_lane : int -> unit
(** [set_worker_lane w] records the calling domain as worker slot [w]
    of a parallel section: its spans and log records go on lane [w].
    Every section spawns fresh domains, so this keeps one lane per
    worker slot however many sections run. Raises [Invalid_argument]
    when [w < 1] (slot 0 is the calling domain's own lane). *)

val name_track : string -> unit
(** Label the calling domain's track in the exported trace (e.g.
    ["worker-3"]). First call wins; no-op when tracing is disabled. *)

(** {1 Inspection} *)

val events : t -> event list
(** Completed spans, sorted by start time (ties by id). *)

val num_events : t -> int

val track_names : t -> (int * string) list

(** {1 Export} *)

val to_chrome_json : t -> string
(** The whole trace as a Chrome trace-event JSON object:
    [{"traceEvents": [...], "displayTimeUnit": "ms"}] with one complete
    ("ph":"X") event per span (timestamps in microseconds relative to
    the trace's creation; [args] carries the attributes plus [span_id] /
    [parent_id] / [error] and the [gc_*] deltas) and thread-name
    metadata records for named tracks. Strings are escaped and
    sanitized to valid UTF-8, so the output stays Perfetto-loadable
    for hostile span/attribute names. *)

val write_chrome : string -> t -> unit
(** [write_chrome path t] writes {!to_chrome_json} to [path]. *)

(** Crash flight recorder: a fixed-size ring buffer of recent
    observability events per domain.

    When enabled, every {!Log} record (at every level) and every span
    {!Trace.with_span} completes land in the calling domain's ring,
    traced or not; the ring is the log's only destination. [emcheck
    analyze] arms it on every run, so records are formatted on every
    run. Each ring holds the last {!capacity} events; older ones are
    overwritten. On a failure (an analysis raising, a non-zero exit)
    the accumulated rings are dumped, so a fault-isolated error
    arrives with the events that led up to it; [--flight-dump] writes
    them as JSON lines on any exit.

    Concurrency: each ring has a single writer (its owning domain) and
    is published through atomics, so recording is lock-free; only ring
    registration (once per domain) takes a lock. {!events} may read a
    ring concurrently with its writer and can then miss or duplicate
    the event being overwritten at that instant — acceptable for a
    crash dump, which normally runs after the workers have joined.

    Disabled (the default), {!record} is one atomic load and a branch. *)

type event = {
  fl_ts_us : float;  (** {!Clock.now_us} when recorded *)
  fl_track : int;    (** trace lane of the recording domain ({!Trace.track}) *)
  fl_kind : string;  (** ["log"] or ["span"] *)
  fl_level : string; (** log level, or ["span"] / ["error"] for spans *)
  fl_name : string;  (** log message or span name *)
  fl_detail : (string * string) list;  (** rendered fields/attributes *)
}

val capacity : int
(** Events retained per domain ring (256). *)

val set_enabled : bool -> unit

val is_enabled : unit -> bool

val with_enabled : bool -> (unit -> 'a) -> 'a
(** Run with the flag set, restoring the previous value afterwards
    (also on exceptions). *)

val record :
  track:int ->
  kind:string -> level:string -> name:string -> (string * string) list -> unit
(** Push one event onto the calling domain's ring; no-op when disabled.
    The timestamp is captured here; [track] is the caller's trace lane
    ({!Trace.track}, which [Flight] cannot call: [Trace] depends on it),
    so a dump's lanes are the trace's. *)

val events : unit -> event list
(** Surviving events across all domain rings, oldest first (sorted by
    timestamp, ties by track). *)

val clear : unit -> unit
(** Drop all recorded events (the rings stay registered). *)

val dump : ?limit:int -> out_channel -> unit
(** Human-readable dump, one line per event, oldest first; with
    [limit], only the most recent [limit] events. *)

val dump_json : out_channel -> unit
(** The same events as JSON lines
    ([{"ts_us":...,"track":...,"kind":...,"level":...,"name":...,
    "fields":{...}}], one object per line); nothing when nothing was
    recorded. *)

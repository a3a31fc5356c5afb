(** Live run state and the process gauges.

    Two halves, both feeding the live telemetry endpoints ({!Serve}):

    {ul
    {- {e Run-state publication}: the flow publishes its current
       pipeline phase and per-structure progress through a few atomics
       ({!set_phase}, {!set_structures_total}, {!structure_done}), so a
       mid-run [/healthz] probe can answer "where is this run?" without
       any tracing installed. Publication is gated by one global flag,
       off by default: a disabled call is a single atomic load and
       branch, cheap enough for the per-structure hot path and proven
       result-neutral by the same qcheck equivalence property that
       covers the rest of [lib/obs].}
    {- {e Process gauges}: {!sample_now} publishes the run state plus
       uptime, GC heap and allocation totals and collection counts into
       the default {!Metrics} registry. Readers call it first (every
       [/metrics] scrape, the CLI's metrics exports), so no domain runs
       just to refresh them; it reads only atomics and a
       [Gc.quick_stat] on the calling domain.}} *)

val set_enabled : bool -> unit
(** Globally enable/disable run-state publication. *)

val with_enabled : bool -> (unit -> 'a) -> 'a
(** Run with the flag set, restoring the previous value afterwards
    (also on exceptions). *)

(** {1 Run state} *)

val set_phase : string -> unit
(** Publish the current pipeline phase (e.g. ["analyze"]); no-op when
    disabled. {!Pipeline.run} calls this at every stage start. *)

val phase : unit -> string
(** The last published phase, [""] if none. Readable regardless of the
    flag (it simply stays empty when nothing was published). *)

val set_structures_total : int -> unit
(** Publish the number of structures the current batch will analyze and
    reset the done counter to 0; no-op when disabled. *)

val structure_done : unit -> unit
(** Count one structure as finished (successfully or fault-isolated);
    no-op when disabled. Safe from any domain. *)

val structures : unit -> int * int
(** [(done, total)] as last published. *)

val uptime_s : unit -> float
(** Seconds since this module was initialized (process start, for any
    process that links the observability layer). *)

val set_run_id : string option -> unit
(** Publish (or clear) the run-ledger identifier of the recording in
    progress; surfaced as [run_id] in [/healthz] so scrapers can
    correlate live telemetry with the archived run. Not gated by
    {!set_enabled}: setting it is already the opt-in. *)

val run_id : unit -> string option

val reset : unit -> unit
(** Clear phase, progress and run id (tests). *)

(** {1 Audit snapshot provider} *)

val set_audit_provider : (unit -> string) option -> unit
(** Install (or clear, with [None]) the renderer behind [GET /audit].
    The provider returns a complete JSON document and must be safe to
    call from the listener domain at any instant mid-run. Not gated by
    {!set_enabled}: installing it is already the opt-in. *)

val audit_json : unit -> string
(** What [GET /audit] serves: the provider's output, or
    [{"enabled":false}] when none is installed. *)

val audit_enabled : unit -> bool
(** Whether an audit provider is currently installed — the
    [audit_enabled] field of [/healthz]. *)

(** {1 Run-ledger snapshot provider} *)

val set_runs_provider : (unit -> string) option -> unit
(** Install (or clear) the renderer behind [GET /runs]; the CLI
    installs one while [--record-run] is active. Same contract as
    {!set_audit_provider}. *)

val runs_json : unit -> string
(** What [GET /runs] serves: the provider's output, or
    [{"enabled":false}] when none is installed. *)

(** {1 Process gauges} *)

val sample_now : unit -> unit
(** Publish one sample of every process and run gauge. Gauges land in
    the default {!Metrics} registry and therefore require
    {!Metrics.set_enabled}[ true] to move. Safe from any domain. *)

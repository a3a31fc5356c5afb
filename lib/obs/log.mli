(** Structured, leveled logging, correlated with the trace.

    A log record carries a monotonic timestamp ({!Clock}), a level, the
    calling domain's lane ({!Trace.track}), the id of the innermost open
    {!Trace.with_span} (when tracing is enabled), a message, and typed
    key-value fields. Records go to a text sink, a JSON-lines sink, or
    both; independently, every record (regardless of the sink's level
    filter) is pushed onto the {!Flight} ring when that recorder is on,
    so a crash dump carries the recent log stream even when no sink is
    installed.

    Logging is off by default: with no sink installed and the flight
    recorder off, a log call costs two atomic loads and branches and
    never runs its message thunk — cheap enough to leave in per-stage
    and failure paths permanently (measured by [bench/main.exe obs]).

    Call sites pass a thunk producing the message and fields, so the
    formatting work happens only when some consumer is listening:
    {[
      Obs.Log.info (fun () ->
          ("stage done", [ ("stage", Obs.Trace.String name) ]))
    ]} *)

type level = Debug | Info | Warn | Error

type output = Channel of out_channel | Buffer of Buffer.t
(** Where a sink writes. Channels are flushed after every record (the
    stream must survive a crash); buffer sinks are for tests. *)

type t
(** A sink configuration: a minimum level plus text and/or JSON-lines
    outputs. Writes are mutex-serialized, safe from any domain. *)

val create : ?min_level:level -> ?text:output -> ?json:output -> unit -> t
(** [min_level] defaults to [Info]. With neither [text] nor [json] the
    sink discards records (the flight recorder still sees them). *)

val enable : t -> unit
(** Install [t] as the process-wide sink. *)

val disable : unit -> unit

val enabled : unit -> bool

val with_enabled : t -> (unit -> 'a) -> 'a
(** Run with [t] installed, restoring the previous sink (or none)
    afterwards, also on exceptions. *)

val log : level -> (unit -> string * (string * Trace.value) list) -> unit
(** [log level make] runs [make ()] only when a sink is installed or
    the flight recorder is on; the record is written to the sink's
    outputs when [level >= min_level] and always pushed to the flight
    ring. *)

val debug : (unit -> string * (string * Trace.value) list) -> unit
val info : (unit -> string * (string * Trace.value) list) -> unit
val warn : (unit -> string * (string * Trace.value) list) -> unit
val error : (unit -> string * (string * Trace.value) list) -> unit

(** {1 Text formats}

    Text sink, one record per line:
    [2026-08-06T13:45:12.345Z WARN  [3] (span 17) message k=v ...]

    JSON sink, one object per line:
    [{"ts_us":...,"level":"warn","track":3,"span":17,"msg":"...",
    "fields":{"k":v,...}}] — strings escaped and sanitized to valid
    UTF-8 ({!Jsonx}), [span] omitted when no span is open. *)

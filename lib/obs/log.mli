(** Leveled log records for the {!Flight} ring.

    A record is a level, a message and typed key-value fields. It goes
    to the flight ring only, stamped with the calling domain's lane
    ({!Trace.track}); [--flight-dump] writes the ring as JSON lines.
    Every record is kept whatever its level: the level is a label, not
    a filter.

    With the ring disarmed a call is one atomic load and a branch and
    never runs its thunk, so call sites stay in per-stage and failure
    paths permanently. Call sites pass a thunk producing the message
    and fields:
    {[
      Obs.Log.info (fun () ->
          ("stage done", [ ("stage", Obs.Trace.String name) ]))
    ]} *)

type level = Debug | Info | Warn | Error

val log : level -> (unit -> string * (string * Trace.value) list) -> unit
(** [log level make] runs [make ()] and pushes the record onto the
    calling domain's flight ring when the ring is armed
    ({!Flight.is_enabled}); otherwise it does nothing. *)

val debug : (unit -> string * (string * Trace.value) list) -> unit
val info : (unit -> string * (string * Trace.value) list) -> unit
val warn : (unit -> string * (string * Trace.value) list) -> unit
val error : (unit -> string * (string * Trace.value) list) -> unit

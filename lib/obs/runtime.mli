(** The process gauges.

    {!sample_now} publishes uptime, GC heap and allocation totals and
    collection counts into the default {!Metrics} registry. Readers call
    it first (the CLI's metrics exports), so no domain runs just to
    refresh them; it reads only a [Gc.quick_stat] on the calling
    domain. *)

val sample_now : unit -> unit
(** Publish one sample of every process gauge. Gauges land in the
    default {!Metrics} registry and therefore require
    {!Metrics.set_enabled}[ true] to move. Safe from any domain. *)

(** Minimal fork-join parallelism on OCaml 5 domains.

    [map ~jobs f xs] runs [f] over the items on [jobs] domains and
    preserves order. Use for pure, CPU-bound [f] over independent items
    (per-structure EM analysis, Monte-Carlo samples). The items are
    handed out dynamically: workers claim contiguous batches of about
    [n / (8 jobs)] items from a shared atomic cursor until none are
    left, so a few expensive items at the front of [xs] do not pin the
    whole run to one worker. Which domain computes which item therefore
    depends on timing; a slot's value must depend only on its item (and,
    for {!map_local_result}, on state that is not observable in the
    result).

    Failure semantics: every slot is computed independently.
    {!map_local_result} captures each item's outcome — value, or
    exception with its original backtrace — so one poisoned item cannot
    abort or mask the others ({!failures} counts the failed slots).
    {!map} computes all slots too, then re-raises the lowest-indexed
    failure with {!Printexc.raise_with_backtrace} (deterministic,
    backtrace preserved). *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count], clamped to at least 1. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [jobs] defaults to {!recommended_jobs}; [jobs = 1] runs in the
    calling domain. If any item raises, the lowest-indexed failure is
    re-raised in the caller with its original backtrace after all
    domains have joined; use {!map_local_result} to observe every
    failure and how many slots failed. *)

val map_local_result :
  ?jobs:int ->
  local:(unit -> 's) ->
  ('s -> 'a -> 'b) ->
  'a array ->
  ('b, exn * Printexc.raw_backtrace) result array
(** Per-slot error capture with per-domain local state. Each worker
    domain first creates its own state with [local ()] and threads it
    through every call it makes on that domain, whichever items it
    claims — the way to give each domain a private scratch workspace
    (e.g. a [Steady_state.Workspace.t]) without any sharing or locking;
    with [jobs <= 1] a single state is created in the calling domain.
    Slot [i] is [Ok (f state xs.(i))], or [Error (e, bt)] when computing
    it raised [e] (with the backtrace captured at the raise point).
    Never raises from [f]'s exceptions; all items are attempted. *)

val failures : ('b, exn * Printexc.raw_backtrace) result array -> int
(** Number of [Error] slots in a {!map_local_result} array. *)

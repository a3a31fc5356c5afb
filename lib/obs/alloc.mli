(** Exact allocation counters: one per-domain source for stages and
    spans, plus the totals of {!Numerics.Parallel}'s worker domains.

    The calling domain's counters are read without allocating (the
    stdlib's [Gc.counters] is not safe against a minor collection
    striking inside it on OCaml 5.1, and [Gc.quick_stat]'s word counts
    refresh only at GC points and mix domains). *)

type t = {
  minor : float;     (** words allocated in the minor heap *)
  promoted : float;  (** minor words promoted to the major heap *)
  major : float;     (** words allocated in the major heap, promotions included *)
}

val domain : unit -> t
(** The calling domain's cumulative counters. Each field is monotone. *)

val words : since:t -> t -> float
(** Words freshly allocated between two readings of the same source
    ([minor + major - promoted]). *)

val record_worker : since:t -> unit
(** Add the calling domain's growth since [since] (a {!domain} reading
    taken on this domain) to the worker totals. Parallel workers call
    it when they have no items left to claim. *)

val process : unit -> t
(** {!domain} plus the worker totals recorded so far. Over an interval
    in which the caller waits for every worker it starts, the deltas
    count the allocation of all of them, as long as no other domain
    runs parallel sections at the same time. *)

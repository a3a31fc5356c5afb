(** Instrumented pass manager for the EM flow.

    A pipeline threads a computation through named stages and records,
    per stage, wall-clock time, CPU time, GC word counters
    ({!Obs.Alloc.process} deltas: the calling domain plus the
    {!Numerics.Parallel} worker domains the stage ran), and the process's
    resident set ({!memory}) at the stage's end and its peak's growth. The flow driver uses it to report where a
    run spends its time and memory (solve / extract / analyze /
    classify) without hand-rolled timer plumbing at every call site.

    When tracing is enabled ({!Obs.Trace.enable}), every stage is also
    emitted as a span on the calling domain's track — the root lane of
    the exported Chrome trace — so the stage report and the trace are
    views of the same measurement.

    Timings are observational: [run] adds two counter reads, two clock
    reads and two reads of [/proc/self/status] per stage, which is
    noise next to any stage worth measuring. *)

type stage = {
  name : string;
  wall_s : float;          (** elapsed wall-clock seconds *)
  cpu_s : float;           (** processor seconds ([Sys.time]), this domain *)
  minor_words : float;     (** words allocated in the minor heap, all domains *)
  major_words : float;     (** words allocated in the major heap *)
  promoted_words : float;  (** minor words that survived into the major heap *)
  rss_mb : float option;
      (** resident set (VmRSS) at the stage's end, MB; [None] off Linux *)
  hwm_growth_mb : float option;
      (** growth of the resident high-water mark (VmHWM) during the
          stage, MB: [0.] unless the stage set a new process peak;
          [None] off Linux *)
  error : bool;            (** the stage body raised *)
}

type memory = {
  rss_mb : float;  (** VmRSS, MB *)
  hwm_mb : float;  (** VmHWM, the process's peak resident set so far, MB *)
}

val memory : unit -> memory option
(** This process's resident set and its high-water mark, read from
    [/proc/self/status] (MB = 1024 kB); [None] where that file does not
    exist. These are what a benchmark's peak RSS is made of; the OCaml
    heap's own counters ({!Gc.quick_stat}) leave out what the runtime
    and C code hold outside the heap. *)

val allocated_words : stage -> float
(** Total words freshly allocated during the stage
    ([minor + major - promoted], the standard double-count correction). *)

val pp_words : Format.formatter -> float -> unit
(** A word count with a k/M/G unit, e.g. [1.61Mw]. *)

type t
(** Mutable stage recorder. Not thread-safe: call {!run} from one domain.
    Stages may run {!Numerics.Parallel} sections; their worker domains'
    allocation is added to the stage's counters. *)

val create : unit -> t

val run : t -> string -> (unit -> 'a) -> 'a
(** [run p name f] executes [f ()], appends a stage named [name] with
    the measured deltas, and returns [f]'s result. Exceptions from [f]
    propagate {e after} the stage is recorded with [error = true], so a
    failed run still reports where its time went (the corresponding
    trace span carries the same flag). *)

val stages : t -> stage list
(** Stages in execution order. *)

val pp_stage : stage Fmt.t
(** One line: name, wall, cpu, allocated words, and where known the
    resident set at the stage's end and the high-water mark's growth
    during it; failed stages are suffixed with [FAILED]. *)

val pp : t Fmt.t
(** All stages, one per line. *)

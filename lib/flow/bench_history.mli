(** Benchmark history and regression verdicts.

    The bench harness writes one [BENCH_<name>.json] result per
    experiment. This module turns those one-shot files into a trajectory:
    results are reduced to flat named metrics, appended as JSON lines to
    a history file ([bench_out/history.jsonl]), and a current run is
    compared against the rolling baseline (per-metric median of the most
    recent recorded runs) with per-bench noise thresholds.

    History line schema (one object per line):
    [{"bench":"scaling","rev":"<git sha>","timestamp":"<ISO-8601>",
    "full":false,"metrics":{"columnar_s@1000":2.6e-5,...}}]

    Metric naming: per-size series use [<metric>@<edges>]; direction is
    inferred from the name ([..._per_s] and [speedup] are
    higher-is-better, everything else — seconds, ratios, ns,
    percentages — is lower-is-better). *)

type entry = {
  bench : string;
  rev : string;       (** git revision the run was recorded at *)
  timestamp : string; (** ISO-8601, passed in by the recorder *)
  full : bool;        (** paper-scale workload flag; baselines never mix *)
  metrics : (string * float) list;
}

val metrics_of_result : Json_out.t -> (string * float) list
(** Reduce a [BENCH_*.json] document to named metrics. Schema-aware for
    [scaling] (per-row [columnar_s@N] / [columnar_segments_per_s@N])
    and [obs] (the overhead ratios and
    disabled-path costs); any other bench keeps its numeric
    top-level fields that look like measurements ([*_s], [*_ratio],
    [*_ns], [*_pct], [*_per_s], [speedup]). *)

val entry_of_result :
  rev:string -> timestamp:string -> Json_out.t -> (entry, string) result
(** Build a history entry from a parsed [BENCH_*.json] document; errors
    when the [bench] field is missing or no metrics were extracted. *)

val entry_to_json : entry -> Json_out.t

val entry_of_json : Json_out.t -> (entry, string) result

val load : string -> (entry list, string) result
(** Parse a history file, one entry per non-empty line, oldest first. A
    missing file is [Ok []] (an empty history); a malformed line is an
    error naming its line number. *)

val append : string -> entry -> (unit, string) result
(** Append one entry as a JSON line, creating the file if needed. *)

(** {1 Comparison} *)

type direction = Lower_better | Higher_better

val direction_of_metric : string -> direction

type status = Ok_ | Regression | Improvement | No_baseline

val status_to_string : status -> string
(** ["ok"] | ["regression"] | ["improvement"] | ["no-baseline"]. *)

type item = {
  metric : string;
  current : float;
  baseline : float option; (** rolling median; [None] without history *)
  delta_pct : float option;
      (** signed worsening vs baseline: positive = worse (slower /
          lower throughput), whatever the metric's direction *)
  threshold : float;
      (** allowed worsening in percent before the metric counts as a
          regression: 20 by default; 15 for the [obs] on/off overhead
          ratios; 50 for [obs]'s nanosecond-scale disabled-path probes
          (noisy); 25 for [scaling] wall times *)
  status : status;
}

type verdict = {
  v_bench : string;
  v_items : item list;
  v_regressions : int;  (** items whose worsening exceeds the threshold *)
  v_improvements : int;
  v_baseline_runs : int; (** history entries the baseline was drawn from *)
}

val compare_entry : ?window:int -> history:entry list -> entry -> verdict
(** Compare a current entry against the per-metric median of the last
    [window] (default 5) history entries with the same bench name and
    [full] flag. Metrics with no usable baseline (absent from history,
    or a baseline smaller than 1e-12 in magnitude) are reported as
    [No_baseline] and never regress. *)

val verdict_to_json : verdict -> Json_out.t

val regressed : verdict list -> bool
(** Any verdict with [v_regressions > 0]. *)

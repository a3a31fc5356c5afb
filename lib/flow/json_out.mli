(** Minimal JSON emission for machine-readable reports (no external
    dependencies; enough for dashboards and regression tracking to
    consume `emcheck` results). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering. Floats use shortest round-trip
    formatting; non-finite floats render as [null] (JSON has no NaN). *)

val to_channel : out_channel -> t -> unit

(** {1 Report serializers} *)

val of_counts : Em_core.Classify.counts -> t

val of_stage : Pipeline.stage -> t

val of_stages : Pipeline.stage list -> t
(** Per-stage wall/CPU/allocation stats, execution order; each stage
    carries an [error] flag (true when the stage body raised). *)

val of_metric : Obs.Metrics.sample -> t

val of_metrics : Obs.Metrics.sample list -> t
(** Counters/gauges as [{name; kind; labels; value}]; histograms carry
    [sum] / [count] / cumulative [buckets] ([le] is a number, or the
    string ["+Inf"] for the overflow bucket). *)

val of_trace_summary : Obs.Trace.t -> t
(** {!Obs.Trace.aggregate} as a list of per-span-name rollups. *)

val of_hot_path : Obs.Profile.hot_path -> t

val of_hot_paths : Obs.Profile.hot_path list -> t
(** Per-path exact attribution rows ([path] as an array of span names,
    [count] / [total_us] / [self_us] / allocation columns). *)

val of_telemetry : ?top:int -> unit -> t
(** Snapshot of the default metrics registry plus, when a trace sink is
    installed, its span count (and drops), per-name summary, root wall
    time, and the top [top] (default 20) hot paths by exact self-time —
    embedded in analyze reports so one JSON file carries results and
    run telemetry. *)

val of_audit : tol:float -> Em_core.Audit.t -> t
(** One structure's audit record: margin/threshold, residuals, the
    violation list gated at [tol], top-k critical-path contributions,
    and solver-path provenance. *)

val of_audit_report : tol:float -> Em_core.Audit.t option array -> t
(** The ["audit"] object of an audited analyze report: run-level
    aggregates (structures audited, violation count, worst residual,
    minimum margin) plus one {!of_audit} entry per audited structure. *)

val of_diag : Em_core.Diag.t -> t
(** Object with [severity] / [code] / [source] / [message]; [severity]
    uses the stable strings of {!Em_core.Diag.severity_to_string}. *)

val of_diags : Em_core.Diag.t list -> t

val of_flow_result : Em_flow.result -> t
(** Confusion matrix, structure/segment counts and timings; the
    per-segment list is summarized (it can be millions long — use
    {!Scatter.write_csv} for the raw series). *)

val of_variation : Variation.result -> t
(** Per-structure Monte-Carlo mortality probabilities and stress
    quantiles, plus the run's diagnostics and wall time. Non-finite
    floats (the all-degenerate [nan] probability) render as [null]. *)

val of_layer_stats : Layer_report.layer_stats list -> t

val of_fixer_plan : Fixer.plan -> t

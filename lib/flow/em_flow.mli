(** End-to-end EM immortality checking flow (the evaluation pipeline of
    Tables II/III): solve the grid, stream-extract per-layer columnar
    structures, run the exact linear-time test and the traditional Blech
    filter on every segment, and tabulate the confusion matrix with the
    exact test as ground truth.

    The flow is organized as {!Pipeline} stages (parse -> lint in
    {!load_deck}, solve -> extract -> analyze -> classify in
    {!analyze_deck}); each stage's wall/CPU time, GC allocation and
    resident set are recorded in {!result.stages} and printed by
    {!pp_summary}. Per segment the result keeps one byte of verdict
    bits, per structure its node stresses: lengths and current
    densities are read back from the compacts.
    Every structure takes {!Em_core.Steady_state.solve} on its
    columns through per-domain {!Em_core.Steady_state.Workspace}
    scratch buffers, so the analysis both parallelizes over domains
    and allocates (near) nothing per structure.

    Fault isolation: analysis failures are captured {e per structure} —
    an exception or a degenerate/non-finite stress result in one
    structure becomes an error {!Em_core.Diag.t} in {!result.diags}
    naming the offender (batch index, metal layer), contributes no
    segments or stresses, and leaves every other structure's results bit-identical
    to a run without the offender. The batch never aborts; callers that
    want strictness inspect [diags] (as `emcheck analyze --strict`
    does).

    The optional max-path heuristic (refs [12,13]) can be run
    side-by-side as an ablation. *)

(** Per-structure aggregate recorded on every run (no [?audit] needed):
    one cheap O(nodes) scan per structure. The layer table, the fix
    plan and the HTML report read these instead of re-solving. *)
type structure_stat = {
  st_layer : int;     (** metal level *)
  st_segments : int;
  st_ok : bool;       (** [false] iff the structure fault-isolated *)
  st_immortal : bool; (** every segment exactly immortal *)
  st_max_stress : float;
      (** peak steady-state stress over the structure's nodes, Pa
          ([nan] when [st_ok = false]) *)
  st_peak_node : int;
      (** structure node id of the peak: the first node whose stress is
          the maximum, as {!Em_core.Steady_state.max_stress} picks it
          ([-1] when [st_ok = false]) *)
  st_margin : float;
      (** signed immortality margin: effective critical stress minus
          [st_max_stress], Pa — positive iff [st_immortal]
          ([nan] when [st_ok = false]) *)
}

type result = {
  counts : Em_core.Classify.counts;          (** Blech vs exact *)
  maxpath_counts : Em_core.Classify.counts option;
  node_stress : float array array;
      (** one slot per submitted structure, batch order: the steady-state
          stress at each structure node, Pa ([[||]] when the structure
          fault-isolated) *)
  verdicts : Bytes.t array;
      (** one slot per submitted structure, batch order: one byte of
          verdict bits per segment, in the compact's segment order
          ({!blech_bit}, {!exact_bit}, {!maxpath_bit}; empty when the
          structure fault-isolated). Lengths and current densities stay
          in the compacts the run analyzed. *)
  num_structures : int;  (** structures submitted, including failed ones *)
  num_segments : int;    (** segments of successfully analyzed structures *)
  diags : Em_core.Diag.t list;
      (** per-structure analysis failures (batch order) followed by
          audit-residual diagnostics; empty on a clean run *)
  audits : Em_core.Audit.t option array;
      (** one slot per submitted structure, batch order: [Some] when the
          run was audited and the structure's analysis completed, [None]
          otherwise (auditing off, or the structure fault-isolated) *)
  structure_stats : structure_stat array;
      (** one slot per submitted structure, batch order — always
          populated, including for fault-isolated structures *)
  stages : Pipeline.stage list;
      (** per-stage instrumentation, execution order: the one timing
          surface (wall and CPU seconds, words allocated, resident set)
          of the run *)
  peak_rss_mb : float option;
      (** the process's resident high-water mark (VmHWM) when the run
          finished, MB; [None] off Linux *)
}

val blech_bit : int
(** Verdict bit: the traditional Blech filter clears the segment
    ([|j| l <= (jl)_crit]). *)

val exact_bit : int
(** Verdict bit: the exact test finds the segment immortal (both end
    nodes below the effective critical stress). *)

val maxpath_bit : int
(** Verdict bit: the max-path heuristic finds the segment immortal;
    equal to {!exact_bit}'s verdict when the ablation is off. *)

val segment_verdict : result -> int -> int -> int
(** [segment_verdict r i k]: the verdict bits of segment [k] of
    structure [i] (batch order). *)

val failed_structures : result -> int
(** Number of structures whose analysis was skipped: error diagnostics
    in {!result.diags}, excluding ["audit-residual"] errors (a strict
    audit flags the numbers, but the structure's analysis completed). *)

val stage_wall : result -> string -> float
(** Wall seconds of the stages of {!result.stages} named [name] ([0.]
    when none ran), e.g. [stage_wall r "analyze"] for the paper's
    check alone. *)

val mna_diags : Spice.Mna.solution -> Em_core.Diag.t list
(** Solver health: one ["mna-residual"] error when the DC solve's
    relative residual exceeds {!Spice.Mna.max_residual} (or is not a
    number), else nothing. Theorem 1 needs KCL-consistent currents, so
    an inaccurate solve must surface as an error, not as a quiet
    verdict. *)

(** Numerical-audit configuration. Passing [?audit] turns on
    per-structure {!Em_core.Audit} checks: each successfully analyzed
    structure gets an audit record in {!result.audits}; residuals out
    of tolerance become ["audit-residual"] diagnostics. When omitted
    (the default) the per-structure cost is a single branch. *)
type audit_config = {
  audit_tol : float;
      (** relative gate for the flux and mass residuals *)
  audit_top_k : int;  (** critical-path steps kept in [au_top] *)
  audit_strict : bool;
      (** violations become [Error] diagnostics instead of warnings
          (they still never count as {!failed_structures}) *)
}

val default_audit_config : audit_config
(** [{ audit_tol = Em_core.Audit.default_tol; audit_top_k =
    Em_core.Audit.default_top_k; audit_strict = false }]. *)

(** {1 Deck -> verdict} *)

type deck = {
  netlist : Spice.Netlist.t;
  parse_errors : Spice.Parser.line_error list;  (** skipped lines *)
  findings : Spice.Checker.finding list;
  pipeline : Pipeline.t;  (** parse and lint so far *)
}

type verdict = {
  solution : Spice.Mna.solution;
  compacts : Extract.compact_structure list;
  result : result;
  diags : Em_core.Diag.t list;
      (** parse errors, lint findings, ["mna-residual"], {!result.diags} *)
}

exception Lint_abort of deck
(** A lint error without a keep-going budget; the deck rides along. *)

val load_deck : ?jobs:int -> ?keep_going:int -> string -> deck
(** The ["parse"] and ["lint"] stages of a fresh pipeline. Without
    [keep_going] a malformed line raises {!Spice.Parser.Parse_error}
    and a lint error {!Lint_abort}; [~keep_going:n] skips up to [n]
    malformed lines and keeps lint errors as diagnostics. *)

val of_netlist : Spice.Netlist.t -> deck
(** An in-memory deck: no parse or lint stage. *)

val analyze_deck :
  ?material:Em_core.Material.t ->
  ?with_maxpath:bool ->
  ?jobs:int ->
  ?audit:audit_config ->
  tech:Pdn.Tech.t ->
  deck ->
  verdict
(** The ["solve"], ["extract"], ["analyze"] and ["classify"] stages on
    the deck's pipeline; raises {!Spice.Mna.Unsupported} on a deck the
    solver cannot take. The ["solve"] stage ends with one full major
    collection, which returns the solver's dead working set (orderings,
    factors, assembly scratch) before extraction allocates. *)

val run_deck :
  ?material:Em_core.Material.t ->
  ?with_maxpath:bool ->
  ?jobs:int ->
  ?audit:audit_config ->
  ?keep_going:int ->
  tech:Pdn.Tech.t ->
  string ->
  deck * verdict
(** {!load_deck} then {!analyze_deck}. *)

val refusal : path:string -> exn -> string option
(** The one-line message for a refused deck: a strict parse error, a
    {!Lint_abort} (naming the lint codes) or {!Spice.Mna.Unsupported};
    [None] for any other exception. *)

val run :
  ?material:Em_core.Material.t ->
  ?with_maxpath:bool ->
  ?jobs:int ->
  ?audit:audit_config ->
  Pdn.Grid_gen.generated ->
  result
(** {!analyze_deck} on the generated netlist. [material] defaults to
    {!Em_core.Material.cu_dac21}; [with_maxpath] to [false]; [jobs]
    parallelizes the DC solve (one independent net per domain) and the
    per-structure EM analysis over that many domains.

    Work decomposition under [jobs > 1]: each structure is one work
    item, handed out dynamically across the domains; results are
    bit-identical to a sequential run, and a failing structure is
    isolated from the rest at any [jobs]. *)

val run_on_compact :
  ?material:Em_core.Material.t ->
  ?with_maxpath:bool ->
  ?jobs:int ->
  ?audit:audit_config ->
  ?pipeline:Pipeline.t ->
  Extract.compact_structure list ->
  result
(** The analyze/classify half on already-columnar structures
    (solve/extract times are 0 unless [pipeline] carries prior stages).
    Diagnostic sources index into the given list. *)

val ranking : result -> int list
(** Batch indices of the successfully analyzed structures, most
    endangered first: ascending {!structure_stat.st_margin}, ties in
    batch order. The reports' "most endangered structures" tables. *)

val pp_summary : Format.formatter -> result -> unit
(** Totals, confusion counts, one indented line per pipeline stage
    (wall, CPU, allocated words, resident set and high-water growth), a
    [process] line with {!result.peak_rss_mb}, and — when present — the diagnostic
    counts followed by one line per diagnostic. *)

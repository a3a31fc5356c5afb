(** Monte-Carlo process-variation analysis of EM immortality.

    The immortality verdict depends on geometry (through [w h] weighting
    and through the current densities [j = I/(w h)] that a fixed load
    current imposes on a varied cross-section) and on the critical stress
    (grain structure makes [sigma_crit] itself statistical). This module
    resamples both and reports per-structure mortality probabilities and
    peak-stress quantiles — turning the paper's binary classification
    into the yield-style number a signoff team actually tracks.

    Segment currents are held at their extracted values (loads do not
    care about wire geometry), so a thinned segment sees a proportionally
    higher current density.

    {2 Engine}

    The sampler runs on the columnar representation, one sample at a
    time. Per structure, the BFS discovery order is recorded once
    ({!Em_core.Steady_state.Schedule} — it depends only on the
    topology); each sample then makes three passes over per-domain
    scratch of O(nodes + segments) floats: the segments (perturbed
    [w h] and [j], and the volume [A]), the recorded schedule (the
    Blech sums and their running minimum and maximum), and the
    segments again (the integral [Q]). Every floating-point expression
    and summation order is the scalar solver's, so every per-sample
    peak stress is bit-identical to a
    [perturb_compact]-then-[solve_compact] oracle. Finite peaks reach
    Welford / P{^2} estimators ({!Numerics.Stats.Online} /
    {!Numerics.Stats.P2}) through a fixed 256-slot chunk, so memory is
    independent of the sample count.

    {2 Determinism}

    Each structure gets its own stream, the one {!Numerics.Rng.split}
    would give: its seed is drawn from the master sequentially in input
    order before any work is dispatched, and the stream is created from
    that seed on the worker domain that consumes it. The engine
    parallelizes across structures only, and workers claim structures
    dynamically, so which domain runs a structure depends on timing but
    the draws it sees do not. Results are therefore bit-identical for a
    fixed [spec] at any [jobs] value and across runs. Across releases
    they repeat only within one normal stream
    ({!Numerics.Rng.stream_version}, the report's ["rng_stream"]);
    version 3 draws each normal by ziggurat, one raw word per try.

    {2 Fault isolation}

    A perturbed sample whose normalization [Q/A] or extreme stress is
    not finite — the sampler's analogue of
    {!Em_core.Steady_state.Degenerate} — is counted, excluded from the
    estimators and from the mortality denominator, and reported as a
    per-structure ["degenerate-samples"] diagnostic (warning when some
    samples survive, error when none do). A structure whose sampling
    throws entirely (e.g. disconnected topology) becomes a
    ["variation-failed"] error diagnostic; other structures are
    unaffected. *)

type spec = {
  width_sigma : float;      (** relative 1-sigma of segment widths *)
  thickness_sigma : float;  (** relative 1-sigma of segment thicknesses *)
  crit_sigma : float;       (** relative 1-sigma of the critical stress *)
  samples : int;            (** Monte-Carlo samples per structure, >= 1 *)
  seed : int64;
}

val default_spec : spec
(** 5% width, 5% thickness, 10% critical stress, 200 samples. *)

type structure_stats = {
  index : int;                   (** position in the input list *)
  layer : int;
  nominal_immortal : bool;       (** verdict on the unperturbed geometry *)
  samples_ok : int;              (** samples with a finite stress solution *)
  samples_failed : int;          (** degenerate samples (counted, skipped) *)
  mortality_probability : float;
      (** mortal fraction of the [samples_ok] denominator; [nan] when
          every sample was degenerate *)
  mean_max_stress : float;       (** Pa, over ok samples *)
  std_max_stress : float;        (** Pa, sample (Bessel) std over ok samples *)
  q50_max_stress : float;        (** Pa, streaming P{^2} median *)
  q90_max_stress : float;        (** Pa, streaming P{^2} 90th percentile *)
  q99_max_stress : float;        (** Pa, streaming P{^2} 99th percentile *)
}

type result = {
  stats : structure_stats list;  (** input order; failed structures absent *)
  diags : Em_core.Diag.t list;
      (** ["degenerate-samples"] warnings/errors and
          ["variation-failed"] errors, ascending by structure index *)
  samples : int;                 (** requested samples per structure *)
  mc_time : float;               (** wall-clock seconds for the whole run *)
}

val run_compact :
  ?material:Em_core.Material.t ->
  ?jobs:int ->
  spec ->
  Extract.compact_structure list ->
  result
(** The engine. [jobs] (default
    {!Numerics.Parallel.recommended_jobs}) parallelizes across
    structures with per-domain scratch; any value produces bit-identical
    results. Raises [Invalid_argument] only on an invalid [spec];
    per-structure failures become diagnostics. *)

val factor : Numerics.Rng.t -> float -> float
(** One perturbation factor: [1.] when [sigma <= 0.], otherwise a
    zero-truncated Gaussian with mean 1 ({!Numerics.Rng.gaussian_positive},
    the ziggurat of normal stream version 3 — resampled rather than
    clamped, so the empirical mean stays at 1 within the negligible
    truncation bias for practical sigmas). *)

val perturb_compact :
  Numerics.Rng.t -> spec -> Em_core.Compact.t -> Em_core.Compact.t
(** One columnar geometry sample via {!Em_core.Compact.with_geometry}
    (no CSR rebuild): widths and thicknesses scaled by {!factor} draws,
    current densities rescaled to preserve each segment's current.
    Consumes the stream exactly as the engine does for one sample —
    every segment's width factor, then every segment's thickness
    factor — so [perturb_compact]-then-[solve_compact] is the engine's
    scalar oracle (the per-sample critical-stress factor is
    drawn after the geometry, by the caller). *)

val to_table : structure_stats list -> Report.t
(** Rows sorted by descending mortality probability ([nan] last). *)

module M = Em_core.Material
module Ss = Em_core.Steady_state
module Cc = Em_core.Compact
module Dg = Em_core.Diag
module Rng = Numerics.Rng
module Stats = Numerics.Stats
module Parallel = Numerics.Parallel

type spec = {
  width_sigma : float;
  thickness_sigma : float;
  crit_sigma : float;
  samples : int;
  seed : int64;
}

let default_spec =
  { width_sigma = 0.05; thickness_sigma = 0.05; crit_sigma = 0.10;
    samples = 200; seed = 20260707L }

type structure_stats = {
  index : int;
  layer : int;
  nominal_immortal : bool;
  samples_ok : int;
  samples_failed : int;
  mortality_probability : float;
  mean_max_stress : float;
  std_max_stress : float;
  q50_max_stress : float;
  q90_max_stress : float;
  q99_max_stress : float;
}

type result = {
  stats : structure_stats list;
  diags : Dg.t list;
  samples : int;
  mc_time : float;
}

let factor rng sigma =
  if sigma <= 0. then 1. else Rng.gaussian_positive rng ~mean:1. ~stddev:sigma

(* [len] successive [factor] draws into [dst.(off)] .. : the engine's
   draws never box a float. *)
let[@inline] factor_fill rng sigma dst off len =
  if sigma <= 0. then Array.fill dst off len 1.
  else Rng.gaussian_positive_fill rng ~mean:1. ~stddev:sigma dst off len

(* One sample's geometry draws: all [m] width factors, then all [m]
   thickness factors. *)
let perturb_compact rng spec (c : Cc.t) =
  let m = Cc.num_segments c in
  let fw = Array.make m 0. and ft = Array.make m 0. in
  factor_fill rng spec.width_sigma fw 0 m;
  factor_fill rng spec.thickness_sigma ft 0 m;
  let width = Array.init m (fun k -> c.Cc.width.(k) *. fw.(k)) in
  let height = Array.init m (fun k -> c.Cc.height.(k) *. ft.(k)) in
  (* Fixed current through the segment: j scales inversely with the
     sampled cross-section. *)
  let j = Array.init m (fun k -> c.Cc.j.(k) /. (fw.(k) *. ft.(k))) in
  Cc.with_geometry c ~width ~height ~j

(* ------------------------------------------------------------------ *)
(* Sampling kernel                                                     *)

(* Estimator chunk: finite peaks wait here and reach the estimators
   [chunk] at a time, the same sequence as per-sample adds without
   boxing a float per sample. *)
let chunk = 256

(* Per-domain scratch, O(nodes + segments): one sample's geometry and
   Blech sums, the estimator chunk, and a solver workspace for the
   nominal check. The columns are grow-only, so a warm domain
   re-solves thousands of samples with zero allocation. *)
type scratch = {
  ws : Ss.Workspace.t;
  mutable wh : float array; (* per segment: width factor, then w*h *)
  mutable jp : float array; (* per segment: thickness factor, then j' *)
  mutable b : float array;  (* per node: Blech sums *)
  crit : float array;       (* the sample's critical-stress factor *)
  peak : float array;       (* finite peaks not yet in the estimators *)
}

let scratch_create () =
  {
    ws = Ss.Workspace.create ();
    wh = [||]; jp = [||]; b = [||];
    crit = [| 0. |];
    peak = Array.make chunk 0.;
  }

let grown a len = if Array.length a >= len then a else Array.make len 0.

(* All samples of one structure, one sample at a time. The BFS
   schedule is recorded once (topology only) and replayed per sample;
   every floating-point expression and summation order is the scalar
   solver's, so each peak is bit-identical to [perturb_compact] then
   [solve_compact]. Raises only on structural problems (disconnected
   topology); a degenerate *sample* is counted and skipped. *)
let mc_structure material spec sc rng ~index (cs : Extract.compact_structure) =
  let c = cs.Extract.compact in
  let n = Cc.num_nodes c and m = Cc.num_segments c in
  let beta = M.beta material in
  let sigma_c = M.effective_critical_stress material in
  let sched = Ss.Schedule.make c in
  let nominal_immortal =
    match Ss.solve_compact ~ws:sc.ws material c with
    | sol -> fst (Ss.max_stress sol) < sigma_c
    | exception Ss.Degenerate _ -> false
  in
  let online = Stats.Online.create () in
  let q50 = Stats.P2.create 0.5 in
  let q90 = Stats.P2.create 0.9 in
  let q99 = Stats.P2.create 0.99 in
  sc.wh <- grown sc.wh m;
  sc.jp <- grown sc.jp m;
  sc.b <- grown sc.b n;
  let wh = sc.wh and jp = sc.jp and b = sc.b in
  let crit = sc.crit and peak = sc.peak in
  let flush len =
    Stats.Online.add_slice online peak 0 len;
    Stats.P2.add_slice q50 peak 0 len;
    Stats.P2.add_slice q90 peak 0 len;
    Stats.P2.add_slice q99 peak 0 len
  in
  let widths = c.Cc.width and heights = c.Cc.height in
  let lengths = c.Cc.length and js = c.Cc.j in
  let tails = c.Cc.tail in
  let s_node = sched.Ss.Schedule.node in
  let s_parent = sched.Ss.Schedule.parent in
  let s_edge = sched.Ss.Schedule.edge in
  let s_sign = sched.Ss.Schedule.sign in
  let reference = sched.Ss.Schedule.reference in
  (* The one length check the unchecked loops below rely on. The
     schedule's columns hold [n - 1] entries, and the index columns
     ([tails], the schedule's nodes and edges) were validated by
     [Compact.make] and [Schedule.make]. *)
  if
    Array.length widths < m || Array.length heights < m
    || Array.length lengths < m || Array.length js < m
  then invalid_arg "Variation: compact columns shorter than the structure";
  let width_sigma = spec.width_sigma in
  let thickness_sigma = spec.thickness_sigma in
  let mortal = ref 0 and failed = ref 0 and pending = ref 0 in
  for _ = 1 to spec.samples do
    (* Draws, per sample: the [m] width factors, the [m] thickness
       factors, then the critical-stress factor. *)
    factor_fill rng width_sigma wh 0 m;
    factor_fill rng thickness_sigma jp 0 m;
    factor_fill rng spec.crit_sigma crit 0 1;
    (* Pass 1, segments: w*h and j' in place of the factors, and A. *)
    let a = ref 0. in
    for k = 0 to m - 1 do
      let fw = Array.unsafe_get wh k and ft = Array.unsafe_get jp k in
      let whk =
        Array.unsafe_get widths k *. fw *. (Array.unsafe_get heights k *. ft)
      in
      Array.unsafe_set wh k whk;
      Array.unsafe_set jp k (Array.unsafe_get js k /. (fw *. ft));
      a := !a +. (whk *. Array.unsafe_get lengths k)
    done;
    (* Pass 2, the recorded schedule: the Blech sums ([sign *. j] is the
       solver's [jhat] branch bit for bit) and their extrema. [b] starts
       at +0 and a rounded sum is -0 only when both operands are, so no
       sum is -0 and plain comparisons pick the values [Float.min] /
       [Float.max] would. A NaN sum makes both extrema NaN for good:
       nothing compares below or above it. *)
    Array.unsafe_set b reference 0.;
    let lo = ref 0. and hi = ref 0. in
    for i = 0 to n - 2 do
      let e = Array.unsafe_get s_edge i in
      let x =
        Array.unsafe_get b (Array.unsafe_get s_parent i)
        +. (Array.unsafe_get s_sign i *. Array.unsafe_get jp e
           *. Array.unsafe_get lengths e)
      in
      Array.unsafe_set b (Array.unsafe_get s_node i) x;
      if x < !lo then lo := x
      else if x > !hi then hi := x
      else if Float.is_nan x then begin
        lo := x;
        hi := x
      end
    done;
    (* Pass 3, segments: Q in the solver's summation order. *)
    let q = ref 0. in
    for k = 0 to m - 1 do
      let l = Array.unsafe_get lengths k in
      q :=
        !q
        +. (Array.unsafe_get wh k
           *. ((Array.unsafe_get jp k *. l *. l /. 2.)
              +. (Array.unsafe_get b (Array.unsafe_get tails k) *. l)))
    done;
    (* The verdict. Rounding is monotone, so beta * (Q/A - min b) is the
       peak the solver's full node scan returns; the max-b side only
       gates finiteness. A sample with either side non-finite is the
       analogue of [Steady_state.Degenerate]: counted, kept out of the
       estimators and the mortality denominator, never fatal. *)
    let qa = !q /. !a in
    let mx = beta *. (qa -. !lo) and mn = beta *. (qa -. !hi) in
    if Float.is_finite mx && Float.is_finite mn then begin
      Array.unsafe_set peak !pending mx;
      incr pending;
      if mx >= sigma_c *. Array.unsafe_get crit 0 then incr mortal;
      if !pending = chunk then begin
        flush chunk;
        pending := 0
      end
    end
    else incr failed
  done;
  flush !pending;
  let ok = spec.samples - !failed in
  {
    index;
    layer = cs.Extract.cs_layer_level;
    nominal_immortal;
    samples_ok = ok;
    samples_failed = !failed;
    mortality_probability =
      (if ok = 0 then Float.nan else float_of_int !mortal /. float_of_int ok);
    mean_max_stress = Stats.Online.mean online;
    std_max_stress = Stats.Online.stddev online;
    q50_max_stress = Stats.P2.quantile q50;
    q90_max_stress = Stats.P2.quantile q90;
    q99_max_stress = Stats.P2.quantile q99;
  }

let run_one material spec sc seed ~index (cs : Extract.compact_structure) =
  let work () =
    (* The stream is created here, on the worker that draws from it:
       states allocated side by side by one domain would share cache
       lines that every draw writes. *)
    mc_structure material spec sc (Rng.create seed) ~index cs
  in
  if Obs.Trace.enabled () then
    Obs.Trace.with_span "variation.structure"
      ~attrs:
        [
          ("structure", Obs.Trace.Int index);
          ("layer", Obs.Trace.Int cs.Extract.cs_layer_level);
          ("segments", Obs.Trace.Int (Cc.num_segments cs.Extract.compact));
          ("samples", Obs.Trace.Int spec.samples);
        ]
      work
  else work ()

let diag_of_stats (spec : spec) (st : structure_stats) =
  if st.samples_failed = 0 then None
  else begin
    let source = Dg.Structure { index = st.index; layer = st.layer } in
    if st.samples_ok = 0 then
      Some
        (Dg.error ~source ~code:"degenerate-samples"
           (Printf.sprintf
              "all %d perturbed samples were degenerate (non-finite \
               stress); no mortality estimate"
              spec.samples))
    else
      Some
        (Dg.warning ~source ~code:"degenerate-samples"
           (Printf.sprintf
              "%d of %d perturbed samples were degenerate (non-finite \
               stress); excluded from the mortality denominator"
              st.samples_failed spec.samples))
  end

let validate_spec name (spec : spec) =
  if spec.samples < 1 then invalid_arg (name ^ ": samples < 1")

let run_compact ?(material = M.cu_dac21) ?jobs spec structures =
  validate_spec "Variation.run_compact" spec;
  let t0 = Unix.gettimeofday () in
  let arr = Array.of_list structures in
  let nstruct = Array.length arr in
  (* One independent stream per structure, its seed split off
     sequentially in index order before any work is dispatched
     ([Rng.split t] is [Rng.create (Rng.int64 t)]): the randomness a
     structure sees is a pure function of (seed, index), so results are
     bit-identical at every [jobs], under any hand-out order, and across
     runs. *)
  let master = Rng.create spec.seed in
  let seeds = Array.init nstruct (fun _ -> Rng.int64 master) in
  let slots =
    Parallel.map_local_result ?jobs ~local:scratch_create
      (fun sc index -> run_one material spec sc seeds.(index) ~index arr.(index))
      (Array.init nstruct (fun i -> i))
  in
  (* Per-structure fault isolation: a structure whose Monte-Carlo threw
     (disconnected topology, workspace trouble) becomes an error
     diagnostic; every other structure's result is untouched. *)
  let stats = ref [] and diags = ref [] in
  for i = nstruct - 1 downto 0 do
    match slots.(i) with
    | Ok st ->
      stats := st :: !stats;
      (match diag_of_stats spec st with
      | Some d -> diags := d :: !diags
      | None -> ())
    | Error (e, _) ->
      let layer = arr.(i).Extract.cs_layer_level in
      diags :=
        Dg.error
          ~source:(Dg.Structure { index = i; layer })
          ~code:"variation-failed"
          (Printf.sprintf "Monte-Carlo variation failed: %s"
             (Printexc.to_string e))
        :: !diags
  done;
  let mc_time = Unix.gettimeofday () -. t0 in
  Obs.Log.info (fun () ->
      ( "Monte-Carlo variation complete",
        [
          ("structures", Obs.Trace.Int nstruct);
          ("samples_per_structure", Obs.Trace.Int spec.samples);
          ("failed_structures", Obs.Trace.Int (Parallel.failures slots));
          ("mc_s", Obs.Trace.Float mc_time);
        ] ));
  { stats = !stats; diags = !diags; samples = spec.samples; mc_time }

let to_table stats =
  let sorted =
    List.sort
      (fun a b -> Float.compare b.mortality_probability a.mortality_probability)
      stats
  in
  let t =
    Report.create
      [
        "layer"; "nominal"; "P(mortal)"; "ok"; "degen";
        "mean MPa"; "sigma MPa"; "p50 MPa"; "p90 MPa"; "p99 MPa";
      ]
  in
  let mpa v = Printf.sprintf "%.1f" (v *. 1e-6) in
  List.iter
    (fun st ->
      Report.add_row t
        [
          Printf.sprintf "M%d" st.layer;
          (if st.nominal_immortal then "immortal" else "mortal");
          Printf.sprintf "%.3f" st.mortality_probability;
          string_of_int st.samples_ok;
          string_of_int st.samples_failed;
          mpa st.mean_max_stress;
          mpa st.std_max_stress;
          mpa st.q50_max_stress;
          mpa st.q90_max_stress;
          mpa st.q99_max_stress;
        ])
    sorted;
  t

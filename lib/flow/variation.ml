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
  block : int;
  seed : int64;
}

let default_spec =
  { width_sigma = 0.05; thickness_sigma = 0.05; crit_sigma = 0.10;
    samples = 200; block = 256; seed = 20260707L }

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

let samples_total =
  Obs.Metrics.counter ~help:"Monte-Carlo variation samples evaluated"
    "em_variation_samples_total"

let samples_degenerate =
  Obs.Metrics.counter
    ~help:"Monte-Carlo variation samples rejected as degenerate"
    "em_variation_degenerate_samples_total"

let structures_total =
  Obs.Metrics.counter ~help:"Structures run through the variation engine"
    "em_variation_structures_total"

let structure_seconds =
  Obs.Metrics.histogram
    ~help:"Per-structure Monte-Carlo variation latency (all samples)"
    "em_variation_structure_seconds"

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
(* Vectorized sampling kernel                                          *)

(* Per-domain scratch: the sample-blocked geometry/Blech-sum slabs plus
   a solver workspace for the nominal check. All grow-only, so a warm
   domain re-solves thousands of samples with zero allocation. *)
type scratch = {
  ws : Ss.Workspace.t;
  mutable whp : float array;   (* segments x block: perturbed w*h *)
  mutable jp : float array;    (* segments x block: perturbed j *)
  mutable b : float array;     (* nodes x block: Blech sums *)
  mutable acc_a : float array; (* per sample: A accumulator *)
  mutable acc_q : float array; (* per sample: Q accumulator *)
  mutable minb : float array;  (* per sample: min_i b_i *)
  mutable maxb : float array;  (* per sample: max_i b_i *)
  mutable thr : float array;   (* per sample: perturbed threshold *)
  mutable peak : float array;  (* per sample: finite peak stresses, packed *)
  mutable fw : float array;    (* per segment: one sample's width factors *)
  mutable ft : float array;    (* per segment: one sample's thickness factors *)
}

let scratch_create () =
  {
    ws = Ss.Workspace.create ();
    whp = [||]; jp = [||]; b = [||];
    acc_a = [||]; acc_q = [||]; minb = [||]; maxb = [||]; thr = [||];
    peak = [||]; fw = [||]; ft = [||];
  }

let grown a len = if Array.length a >= len then a else Array.make len 0.

let scratch_reserve sc ~segments ~nodes ~block =
  sc.whp <- grown sc.whp (segments * block);
  sc.jp <- grown sc.jp (segments * block);
  sc.b <- grown sc.b (nodes * block);
  sc.acc_a <- grown sc.acc_a block;
  sc.acc_q <- grown sc.acc_q block;
  sc.minb <- grown sc.minb block;
  sc.maxb <- grown sc.maxb block;
  sc.thr <- grown sc.thr block;
  sc.peak <- grown sc.peak block;
  sc.fw <- grown sc.fw segments;
  sc.ft <- grown sc.ft segments

(* Cap the per-domain slab memory at ~32 MB regardless of the sample
   count or structure size: the block shrinks for huge structures. The
   per-sample arithmetic never reads another sample's lane, so the
   block size affects only throughput, never a single result bit. *)
let scratch_budget_floats = 4_000_000

let block_size spec ~segments ~nodes =
  max 1
    (min spec.block (scratch_budget_floats / ((2 * segments) + nodes + 8)))

(* All samples of one structure. One recorded BFS schedule (topology
   only) is replayed over blocks of perturbed geometry lanes, so the
   graph traversal cost amortizes over the whole block; per-sample
   results stream into O(1)-memory estimators. Raises only on
   structural problems (disconnected topology); a degenerate *sample*
   is counted and skipped. *)
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
  let mortal = ref 0 and failed = ref 0 in
  let bmax = block_size spec ~segments:m ~nodes:n in
  scratch_reserve sc ~segments:m ~nodes:n ~block:bmax;
  let widths = c.Cc.width and heights = c.Cc.height in
  let lengths = c.Cc.length and js = c.Cc.j in
  let tails = c.Cc.tail in
  let whp = sc.whp and jp = sc.jp and b = sc.b in
  let acc_a = sc.acc_a and acc_q = sc.acc_q in
  let minb = sc.minb and maxb = sc.maxb and thr = sc.thr in
  let peak = sc.peak in
  let fw = sc.fw and ft = sc.ft in
  let width_sigma = spec.width_sigma in
  let thickness_sigma = spec.thickness_sigma in
  let s_node = sched.Ss.Schedule.node in
  let s_parent = sched.Ss.Schedule.parent in
  let s_edge = sched.Ss.Schedule.edge in
  let s_sign = sched.Ss.Schedule.sign in
  let remaining = ref spec.samples in
  while !remaining > 0 do
    let bs = min bmax !remaining in
    (* Draws happen sample-by-sample (lane-major), so the stream
       consumed by sample [s] is a function of [s] alone — blocking is
       invisible to the randomness. Per sample: the [m] width factors,
       then the [m] thickness factors, then the critical-stress factor
       (drawn into the lane's threshold slot). *)
    for s = 0 to bs - 1 do
      factor_fill rng width_sigma fw 0 m;
      factor_fill rng thickness_sigma ft 0 m;
      for k = 0 to m - 1 do
        let fw = fw.(k) and ft = ft.(k) in
        whp.((k * bs) + s) <- widths.(k) *. fw *. (heights.(k) *. ft);
        jp.((k * bs) + s) <- js.(k) /. (fw *. ft)
      done;
      factor_fill rng spec.crit_sigma thr s 1;
      thr.(s) <- sigma_c *. thr.(s)
    done;
    (* Step 1: replay the recorded BFS across the block. Each lane
       evaluates exactly the floating-point expressions the scalar
       solver would: [sign *. j] is the [jhat] branch bit-for-bit. *)
    Array.fill b (sched.Ss.Schedule.reference * bs) bs 0.;
    for i = 0 to Array.length s_node - 1 do
      let u = s_node.(i) * bs in
      let v = s_parent.(i) * bs in
      let e = s_edge.(i) in
      let sg = s_sign.(i) in
      let l = lengths.(e) in
      let er = e * bs in
      for s = 0 to bs - 1 do
        b.(u + s) <- b.(v + s) +. (sg *. jp.(er + s) *. l)
      done
    done;
    (* Step 2: A and Q, in segment order (the scalar summation order). *)
    Array.fill acc_a 0 bs 0.;
    Array.fill acc_q 0 bs 0.;
    for k = 0 to m - 1 do
      let l = lengths.(k) in
      let tr = tails.(k) * bs and kr = k * bs in
      for s = 0 to bs - 1 do
        let wh = whp.(kr + s) in
        acc_a.(s) <- acc_a.(s) +. (wh *. l);
        acc_q.(s) <-
          acc_q.(s) +. (wh *. ((jp.(kr + s) *. l *. l /. 2.) +. (b.(tr + s) *. l)))
      done
    done;
    (* Step 3: Blech-sum extrema per lane. Rounding is monotone, so
       beta * (Q/A - min_i b_i) equals the maximum node stress the
       scalar solver's full scan would return (and the max-b side gives
       the minimum, which only gates the finiteness check). Float.min /
       Float.max propagate NaN, so a poisoned lane cannot pass. *)
    Array.blit b 0 minb 0 bs;
    Array.blit b 0 maxb 0 bs;
    for v = 1 to n - 1 do
      let r = v * bs in
      for s = 0 to bs - 1 do
        let x = b.(r + s) in
        minb.(s) <- Float.min minb.(s) x;
        maxb.(s) <- Float.max maxb.(s) x
      done
    done;
    (* Step 4: per-sample verdicts. A lane whose normalization or
       extreme stress is not finite is the vectorized analogue of
       [Steady_state.Degenerate]: counted, excluded from the estimators
       and from the mortality denominator, never fatal. The finite
       peaks are packed in sample order and fed to the estimators a
       block at a time, which sees the same sequence as per-sample
       adds without boxing a float per sample. *)
    let ok = ref 0 in
    for s = 0 to bs - 1 do
      let qa = acc_q.(s) /. acc_a.(s) in
      let mx = beta *. (qa -. minb.(s)) in
      let mn = beta *. (qa -. maxb.(s)) in
      if Float.is_finite mx && Float.is_finite mn then begin
        peak.(!ok) <- mx;
        incr ok;
        if mx >= thr.(s) then incr mortal
      end
      else incr failed
    done;
    Stats.Online.add_slice online peak 0 !ok;
    Stats.P2.add_slice q50 peak 0 !ok;
    Stats.P2.add_slice q90 peak 0 !ok;
    Stats.P2.add_slice q99 peak 0 !ok;
    remaining := !remaining - bs
  done;
  Obs.Metrics.inc_by samples_total spec.samples;
  Obs.Metrics.inc_by samples_degenerate !failed;
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
  Obs.Metrics.inc structures_total;
  let work () =
    Obs.Metrics.time structure_seconds (fun () ->
        (* The stream is created here, on the worker that draws from
           it: states allocated side by side by one domain would share
           cache lines that every draw writes. *)
        mc_structure material spec sc (Rng.create seed) ~index cs)
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
  if spec.samples < 1 then invalid_arg (name ^ ": samples < 1");
  if spec.block < 1 then invalid_arg (name ^ ": block < 1")

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
  (* Live progress restarts for the Monte-Carlo phase: a long
     [--variation] run would otherwise freeze /healthz at the solve
     phase's final count. Each structure counts when its whole sample
     budget is done, successful or fault-isolated. *)
  Obs.Runtime.set_phase "variation";
  Obs.Runtime.set_structures_total nstruct;
  let slots =
    Parallel.map_local_result ?jobs ~local:scratch_create
      (fun sc index ->
        match run_one material spec sc seeds.(index) ~index arr.(index) with
        | v ->
          Obs.Runtime.structure_done ();
          v
        | exception e ->
          Obs.Runtime.structure_done ();
          raise e)
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

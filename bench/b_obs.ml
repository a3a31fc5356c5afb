(* Telemetry overhead guard: the obs subsystem must be effectively free
   when disabled (<2% on the analysis flow) and cheap enough to leave on
   for profiling runs. Flow timings on the largest synthetic grid
   (telemetry off / trace on / audit off / audit on) plus a
   micro-benchmark of the disabled span guard, written to
   BENCH_obs.json so CI can watch the ratios drift. *)

module Gg = Pdn.Grid_gen
module Flow = Emflow.Em_flow
module J = Emflow.Json_out
module Tr = Obs.Trace

(* Best per-run wall time of each arm, with the arms run back to back
   within every repetition so all of them sample the same machine
   conditions (a load spike slows one repetition of every arm, not one
   arm). A flow run lasts milliseconds at the default scale, so a
   sample times a batch of [batch.(i)] runs of arm [i] and counts their
   mean. A sample shorter than [min_sample_s] is dropped and its arm's
   batch grown to fit, so every counted sample lasts that long. One
   untimed run per arm warms the heap and the worker domains; the
   starting arm rotates so none always follows the allocation-heavy
   audit arm, and one full major GC before each sample leaves no arm
   paying for the previous one's garbage. Samples continue until every
   arm has run for [min_arm_s] in total, and at least [min_reps]
   times. *)
let min_reps = 5
and min_arm_s = 1.
and min_sample_s = 0.02

let interleaved_best arms batch =
  let n = Array.length arms in
  let best = Array.make n infinity and total = Array.make n 0. in
  let counted = Array.make n 0 in
  Array.iter (fun arm -> arm ()) arms;
  let reps = ref 0 in
  while
    Array.exists (fun c -> c < min_reps) counted
    || Array.exists (fun t -> t < min_arm_s) total
  do
    for k = 0 to n - 1 do
      let i = (k + !reps) mod n in
      let b = batch.(i) in
      Gc.full_major ();
      let (), t =
        B_util.wall (fun () ->
            for _ = 1 to b do
              arms.(i) ()
            done)
      in
      if t < min_sample_s then
        batch.(i) <-
          max (b + 1)
            (int_of_float (Float.ceil (1.1 *. float_of_int b *. min_sample_s /. t)))
      else begin
        total.(i) <- total.(i) +. t;
        counted.(i) <- counted.(i) + 1;
        best.(i) <- Float.min best.(i) (t /. float_of_int b)
      end
    done;
    incr reps
  done;
  (best, !reps)

(* One pass of [interleaved_best] swings a ratio by more than the
   history gate's 15% (a load spike can land on one arm's best run), so
   a row holds each figure's median over [passes] passes, the ratios
   taken within each pass. *)
let passes = 3

let ns_per_op iters f =
  let (), t = B_util.wall (fun () -> for _ = 1 to iters do f () done) in
  t /. float_of_int iters *. 1e9

let run cfg =
  B_util.heading "Obs: telemetry overhead guard";
  let size = if cfg.B_util.full then Gg.Pg6 else Gg.Pg2 in
  let scale = B_util.ibm_scale cfg size in
  let grid = Gg.generate (Gg.ibm_preset ~scale size) in
  let sol = Spice.Mna.solve grid.Gg.netlist in
  let compacts = Emflow.Extract.extract_compact ~tech:grid.Gg.tech sol in
  let n_structures = List.length compacts in
  let n_segments = Emflow.Extract.total_compact_segments compacts in
  B_util.note "%s x%.2f: %d structures, %d segments" (Gg.ibm_size_name size)
    scale n_structures n_segments;
  let last_trace = ref 0 in
  let plain () = ignore (Flow.run_on_compact compacts) in
  (* Numerical-audit overhead: disabled, the flow executes no audit code
     at all (the option is [None] — one match per structure), so the
     audit-off arm re-measures the plain flow and any drift of its ratio
     from 1.0 is timer noise. Enabled, every structure's solver output is
     replayed expression-by-expression (Blech sums, norms, telescoping,
     flux/mass balances) — roughly a second pass over the CSR. *)
  let arms =
    [|
      plain;
      (fun () ->
        let t = Tr.create () in
        Tr.with_enabled t plain;
        last_trace := Tr.num_events t);
      plain;
      (fun () ->
        ignore (Flow.run_on_compact ~audit:Flow.default_audit_config compacts));
    |]
  in
  let batch = Array.make (Array.length arms) 1 in
  let runs = Array.init passes (fun _ -> interleaved_best arms batch) in
  let reps = Array.fold_left (fun n (_, r) -> n + r) 0 runs in
  let med f = Numerics.Stats.median (Array.map (fun (best, _) -> f best) runs) in
  let t_off = med (fun b -> b.(0)) and t_trace = med (fun b -> b.(1)) in
  let t_audit_off = med (fun b -> b.(2)) and t_audit_on = med (fun b -> b.(3)) in
  let trace_on_ratio = med (fun b -> b.(1) /. b.(0)) in
  let audit_overhead_ratio = med (fun b -> b.(3) /. b.(2)) in
  let audit_disabled_ratio = med (fun b -> b.(2) /. b.(0)) in
  B_util.note
    "flow, telemetry off:        %.3fs (median of %d passes, %d interleaved \
     repetitions, batches of %s runs)"
    t_off passes reps
    (String.concat "/" (Array.to_list (Array.map string_of_int batch)));
  B_util.note "flow, trace on:             %.3fs (%.2fx, %d spans)" t_trace
    trace_on_ratio !last_trace;
  B_util.note "flow, audit off:            %.3fs (%.2fx vs off — noise floor)"
    t_audit_off audit_disabled_ratio;
  B_util.note "flow, audit on:             %.3fs (%.2fx vs audit off)"
    t_audit_on audit_overhead_ratio;
  (* The disabled fast path, measured directly: one flag load + branch. *)
  let sink = ref 0 in
  let span_ns =
    ns_per_op 1_000_000 (fun () -> Tr.with_span "probe" (fun () -> incr sink))
  in
  B_util.note "disabled with_span:         %.1f ns/op" span_ns;
  (* Per structure the disabled run pays roughly one span guard; anything
     else is shared per run. This estimates the guard cost as a fraction
     of the real flow — the <2% target the design promises. *)
  let estimated_pct =
    float_of_int n_structures *. (span_ns *. 1e-9) /. t_off *. 100.
  in
  B_util.note "estimated disabled overhead: %.4f%% of the flow (<2%% target)"
    estimated_pct;
  B_util.ensure_out_dir cfg;
  let json_path = B_util.out_path cfg "BENCH_obs.json" in
  let oc = open_out json_path in
  J.to_channel oc
    (J.Obj
       [
         ("bench", J.String "obs");
         ("full", J.Bool cfg.B_util.full);
         ("grid", J.String (Gg.ibm_size_name size));
         ("scale", J.Float scale);
         ("edges", J.Int (grid.Gg.num_wires + grid.Gg.num_vias));
         ("structures", J.Int n_structures);
         ("segments", J.Int n_segments);
         ("repetitions", J.Int reps);
         ("min_sample_s", J.Float min_sample_s);
         ( "batch_runs",
           J.Obj
             (List.mapi
                (fun i arm -> (arm, J.Int batch.(i)))
                [ "off"; "trace_on"; "audit_off"; "audit_on" ]) );
         ("off_s", J.Float t_off);
         ("trace_on_s", J.Float t_trace);
         ("passes", J.Int passes);
         ("trace_on_ratio", J.Float trace_on_ratio);
         ("trace_spans", J.Int !last_trace);
         ("audit_off_s", J.Float t_audit_off);
         ("audit_on_s", J.Float t_audit_on);
         ("audit_overhead_ratio", J.Float audit_overhead_ratio);
         ("audit_disabled_ratio", J.Float audit_disabled_ratio);
         ("disabled_span_ns", J.Float span_ns);
         ("estimated_disabled_overhead_pct", J.Float estimated_pct);
       ]);
  close_out oc;
  B_util.note "wrote %s" json_path

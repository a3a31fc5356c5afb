(* Extension experiment: Monte-Carlo process variation. The binary
   immortal/mortal classification becomes a mortality probability once
   wire geometry and the critical stress are sampled; the engine
   replays one recorded BFS schedule per structure for each perturbed
   sample, on per-domain scratch, so a pg2-class grid takes thousands
   of samples per structure in seconds, with memory independent of the
   sample count. The run at [recommended_jobs] and the run at [-j 1]
   must agree bit for bit in every statistic; a mismatch exits 1. *)

module Gg = Pdn.Grid_gen
module Ir = Pdn.Irdrop
module Ex = Emflow.Extract
module Va = Emflow.Variation
module Rp = Emflow.Report
module J = Emflow.Json_out

let run cfg =
  B_util.heading "Extension: Monte-Carlo process variation";
  let size = Gg.Pg2 in
  let scale = B_util.ibm_scale cfg size in
  let spec = Gg.ibm_preset ~scale size in
  let grid = Gg.generate spec in
  (* Scale so the population straddles the threshold: structures near it
     get genuinely probabilistic verdicts instead of saturating at 0/1. *)
  let scaled, _ = Ir.scale_to_ir ~metric:Ir.Mean grid ~target:12e-3 in
  let sol = Spice.Mna.solve scaled.Gg.netlist in
  let compacts = Ex.extract_compact ~tech:scaled.Gg.tech sol in
  let n_structures = List.length compacts in
  let n_segments = Ex.total_compact_segments compacts in
  let samples = if cfg.B_util.full then 100_000 else 10_000 in
  let mc_spec = { Va.default_spec with Va.samples } in
  let jobs = Numerics.Parallel.recommended_jobs () in
  B_util.note "%s grid (scale %.2f): %d structures, %d segments"
    (Gg.ibm_size_name size) scale n_structures n_segments;
  B_util.note
    "%d samples/structure (width/thickness sigma 5%%, sigma_crit 10%%)"
    samples;

  let r_par, t_par =
    B_util.wall (fun () -> Va.run_compact ~jobs mc_spec compacts)
  in
  let r_seq, t_seq =
    B_util.wall (fun () -> Va.run_compact ~jobs:1 mc_spec compacts)
  in
  (* Determinism is part of the engine's contract: the parallel and
     sequential runs must agree bit for bit in every field. Without
     sharing, [Marshal] writes every float's 8 bytes, so equal strings
     mean exactly that. *)
  let bytes (r : Va.result) =
    Marshal.to_string r.Va.stats [ Marshal.No_sharing ]
  in
  let identical = bytes r_par = bytes r_seq in

  let total_solves = n_structures * samples in
  let segment_samples = float_of_int n_segments *. float_of_int samples in
  B_util.note "-j %d: %.3f s  (%.0f sample-solves/s, %.2e segment-samples/s)"
    jobs t_par
    (float_of_int total_solves /. t_par)
    (segment_samples /. t_par);
  B_util.note "-j 1: %.3f s  (speedup %.2fx)" t_seq (t_seq /. t_par);

  let degenerate =
    List.fold_left (fun acc st -> acc + st.Va.samples_failed) 0 r_par.Va.stats
  in
  let marginal =
    List.filter
      (fun st ->
        st.Va.mortality_probability > 0.02
        && st.Va.mortality_probability < 0.98)
      r_par.Va.stats
  in
  B_util.note
    "%d structures have genuinely probabilistic verdicts (P strictly"
    (List.length marginal);
  B_util.note
    "between 0 and 1): margins the nominal binary classification hides.";
  if degenerate > 0 then
    B_util.note "%d degenerate samples isolated as diagnostics" degenerate;
  (* The 12 most marginal structures, by how undecided the verdict is. *)
  let shown =
    List.stable_sort
      (fun (a : Va.structure_stats) b ->
        Float.compare
          (Float.abs (a.Va.mortality_probability -. 0.5))
          (Float.abs (b.Va.mortality_probability -. 0.5)))
      r_par.Va.stats
    |> List.filteri (fun i _ -> i < 12)
  in
  Rp.print (Va.to_table shown);

  B_util.ensure_out_dir cfg;
  let json_path = B_util.out_path cfg "BENCH_variation.json" in
  let oc = open_out json_path in
  J.to_channel oc
    (J.Obj
       [
         ("bench", J.String "variation");
         ("full", J.Bool cfg.B_util.full);
         ("grid", J.String (Gg.ibm_size_name size));
         ("scale", J.Float scale);
         ("structures", J.Int n_structures);
         ("segments", J.Int n_segments);
         ("samples", J.Int samples);
         ("jobs", J.Int jobs);
         ("variation_s", J.Float t_par);
         ("seq_s", J.Float t_seq);
         ("speedup", J.Float (t_seq /. t_par));
         ("sample_solves_per_s", J.Float (float_of_int total_solves /. t_par));
         ("segment_samples_per_s", J.Float (segment_samples /. t_par));
         ("degenerate_samples", J.Int degenerate);
         ("marginal_structures", J.Int (List.length marginal));
         ("deterministic", J.Bool identical);
       ]);
  close_out oc;
  B_util.note "wrote %s" json_path;
  if not identical then begin
    Printf.eprintf
      "variation: -j %d and -j 1 statistics differ (determinism bug)\n%!" jobs;
    exit 1
  end

(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's experiment index).

   Usage: main.exe [experiment ...] [--full] [--scale X] [--out DIR]
   Experiments: fig6 table2 fig7 table3 fig8 scaling ablation bechamel all
   Default: all of them (bechamel last).

   Two additional subcommands close the perf loop (see B_history):
     main.exe record  [BENCH...]   append current BENCH_*.json results
                                   to bench_out/history.jsonl
     main.exe compare [BENCH...]   gate current results against the
                                   rolling baseline (exit 1 on regression) *)

let usage () =
  print_string
    "usage: main.exe [experiment ...] [options]\n\n\
     experiments:\n\
    \  fig6      closed form vs numerical Korhonen solver (Fig. 6)\n\
    \  table2    IBM-like grids: Blech vs exact confusion matrix (Table II)\n\
    \  fig7      ibmpg6-like j vs l scatter (Fig. 7)\n\
    \  table3    OpenROAD-style circuits (Table III)\n\
    \  fig8      jpeg/28nm scatter (Fig. 8)\n\
    \  scaling   linear-time vs naive vs linear-system runtimes\n\
    \  ablation  max-path jl heuristic comparison\n\
    \  variation process-variation Monte Carlo (extension)\n\
    \  obs       telemetry overhead guard (off vs trace vs audit)\n\
    \  bechamel  micro-benchmarks of each experiment kernel\n\
    \  all       everything above (default)\n\n\
     options:\n\
    \  --full      paper-scale workloads (pg6 = 1.65M edges)\n\
    \  --scale X   explicit workload scale for the IBM-like grids\n\
    \  --out DIR   directory for CSV series (default bench_out)\n\n\
     history subcommands:\n\
    \  record  [BENCH...] [--out DIR] [--history FILE] [--rev REV] \
     [--timestamp TS]\n\
    \          append the named (default: all present) BENCH_*.json \
     results to the history\n\
    \  compare [BENCH...] [--out DIR] [--history FILE] [--json FILE] \
     [--window N]\n\
    \          compare current results to the rolling baseline; exit 1 \
     on regression\n"

let () =
  (match Array.to_list Sys.argv with
  | _ :: "record" :: rest -> exit (B_history.record rest)
  | _ :: "compare" :: rest -> exit (B_history.compare rest)
  | _ -> ());
  let experiments = ref [] in
  let cfg = ref B_util.default_config in
  let rec parse = function
    | [] -> ()
    | "--full" :: rest ->
      cfg := { !cfg with B_util.full = true };
      parse rest
    | "--scale" :: x :: rest ->
      cfg := { !cfg with B_util.scale = Some (float_of_string x) };
      parse rest
    | "--out" :: dir :: rest ->
      cfg := { !cfg with B_util.out_dir = dir };
      parse rest
    | ("--help" | "-h") :: _ ->
      usage ();
      exit 0
    | name :: rest ->
      experiments := name :: !experiments;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let experiments =
    match List.rev !experiments with [] | [ "all" ] -> [ "all" ] | es -> es
  in
  let cfg = !cfg in
  let run_one = function
    | "fig6" -> B_fig6.run cfg
    | "table2" -> ignore (B_table2.run cfg)
    | "fig7" -> B_fig7.run cfg
    | "table3" -> ignore (B_table3.run cfg)
    | "fig8" -> B_fig8.run cfg
    | "scaling" -> B_scaling.run cfg
    | "ablation" -> B_ablation.run cfg
    | "variation" -> B_variation.run cfg
    | "obs" -> B_obs.run cfg
    | "bechamel" -> B_bechamel.run cfg
    | "all" ->
      B_fig6.run cfg;
      ignore (B_table2.run cfg);
      B_fig7.run cfg;
      ignore (B_table3.run cfg);
      B_fig8.run cfg;
      B_scaling.run cfg;
      B_ablation.run cfg;
      B_variation.run cfg;
      B_obs.run cfg;
      B_bechamel.run cfg
    | other ->
      Printf.eprintf "unknown experiment %S\n\n" other;
      usage ();
      exit 2
  in
  List.iter run_one experiments

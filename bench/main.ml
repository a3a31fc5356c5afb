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

let usage oc =
  output_string oc
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

(* In the order [all] runs them. *)
let experiments =
  [
    ("fig6", B_fig6.run);
    ("table2", fun cfg -> ignore (B_table2.run cfg));
    ("fig7", B_fig7.run);
    ("table3", fun cfg -> ignore (B_table3.run cfg));
    ("fig8", B_fig8.run);
    ("scaling", B_scaling.run);
    ("ablation", B_ablation.run);
    ("variation", B_variation.run);
    ("obs", B_obs.run);
    ("bechamel", B_bechamel.run);
  ]

(* Every argument is checked before any experiment runs: a mistyped
   name or flag costs nothing and writes nothing. *)
let refuse fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_string ("main.exe: " ^ msg ^ "\n\n");
      usage stderr;
      exit 2)
    fmt

let () =
  (match Array.to_list Sys.argv with
  | _ :: "record" :: rest -> exit (B_history.record rest)
  | _ :: "compare" :: rest -> exit (B_history.compare rest)
  | _ -> ());
  let rec parse cfg names = function
    | [] -> (cfg, List.rev names)
    | "--full" :: rest -> parse { cfg with B_util.full = true } names rest
    | "--scale" :: x :: rest -> (
      match float_of_string_opt x with
      | Some scale when Float.is_finite scale && scale > 0. ->
        parse { cfg with B_util.scale = Some scale } names rest
      | _ -> refuse "--scale wants a positive number, not %S" x)
    | "--out" :: dir :: rest -> parse { cfg with B_util.out_dir = dir } names rest
    | ("--help" | "-h") :: _ ->
      usage stdout;
      exit 0
    | [ ("--scale" | "--out") as flag ] -> refuse "%s wants a value" flag
    | name :: rest when name = "all" || List.mem_assoc name experiments ->
      parse cfg (name :: names) rest
    | arg :: _ when String.starts_with ~prefix:"-" arg -> refuse "unknown option %S" arg
    | name :: _ -> refuse "unknown experiment %S" name
  in
  let cfg, names = parse B_util.default_config [] (List.tl (Array.to_list Sys.argv)) in
  let runs =
    if names = [] || List.mem "all" names then List.map snd experiments
    else List.map (fun name -> List.assoc name experiments) names
  in
  List.iter (fun run -> run cfg) runs

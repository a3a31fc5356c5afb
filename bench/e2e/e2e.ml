(* e2e: the deck -> verdict benchmark.

   Subcommands:
     run        time `emcheck analyze` end to end per workload, plus one
                traced replay per workload for the per-layer numbers
     compare    judge two BENCH_e2e.json results by BENCHMARK.json's bounds
     reference  re-record reference.json at the default seed
     replay     one traced replay in this process (run spawns it)

   Run from the repository root after
   `dune build bin/emcheck.exe bench/e2e/e2e.exe`. *)

open Cmdliner
open E2e_harness

let seed_arg =
  Arg.(
    value
    & opt int Workload.default_seed
    & info [ "seed" ] ~docv:"S"
        ~doc:"Deck seed, also the Monte-Carlo seed ($(b,--mc-seed)).")

let jobs_default = min 4 (Numerics.Parallel.recommended_jobs ())

let emcheck_arg =
  Arg.(
    value
    & opt string "_build/default/bin/emcheck.exe"
    & info [ "emcheck" ] ~docv:"EXE" ~doc:"The emcheck binary to time.")

let out_dir_arg =
  Arg.(
    value
    & opt string "bench_out"
    & info [ "out-dir" ] ~docv:"DIR"
        ~doc:"Where BENCH_e2e.json and e2e_trace.json are written; decks, \
              reports and logs go to $(docv)/e2e.")

let reference_arg =
  Arg.(
    value
    & opt string "bench/e2e/reference.json"
    & info [ "reference" ] ~docv:"FILE"
        ~doc:"Deck digests and verdicts expected at the default seed.")

let workload_conv =
  let parse s =
    match Workload.find s with
    | Some w -> Ok w
    | None -> Error (`Msg ("unknown workload " ^ s))
  in
  Arg.conv (parse, fun ppf w -> Format.pp_print_string ppf w.Workload.name)

let config ~seed ~seconds ~trace ~emcheck ~out_dir ~reference =
  {
    Harness.seed;
    seconds;
    trace;
    jobs = jobs_default;
    emcheck;
    self_exe = Sys.executable_name;
    out_dir = Filename.concat out_dir "e2e";
    reference;
  }

let check_emcheck emcheck k =
  if Sys.file_exists emcheck then k ()
  else `Error (false, emcheck ^ " not found: build it first")

let run_cmd =
  let workload =
    Arg.(
      value
      & opt (some workload_conv) None
      & info [ "workload" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf "Run one workload (default: all of %s)."
               (String.concat ", "
                  (List.map (fun w -> w.Workload.name) Workload.all))))
  in
  let seconds =
    Arg.(
      value
      & opt (some float) None
      & info [ "seconds" ] ~docv:"T"
          ~doc:
            "Time each workload's runs for about $(docv) seconds, and at \
             least 3 runs, instead of a fixed number of runs.")
  in
  let trace =
    Arg.(
      value
      & opt (enum [ ("0", false); ("1", true) ]) true
      & info [ "trace" ] ~docv:"0|1"
          ~doc:
            "1: also report per-layer metrics from the traced replay and \
             write e2e_trace.json; the result line then carries the \
             per-layer metrics instead of the end-to-end ones.")
  in
  let go workload seed seconds trace emcheck out_dir reference =
    check_emcheck emcheck @@ fun () ->
    let cfg = config ~seed ~seconds ~trace ~emcheck ~out_dir ~reference in
    let workloads =
      match workload with Some w -> [ w ] | None -> Workload.all
    in
    `Ok (if Harness.run cfg ~results_dir:out_dir workloads then 0 else 1)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Time deck -> verdict per workload")
    Term.(
      ret
        (const go $ workload $ seed_arg $ seconds $ trace $ emcheck_arg
       $ out_dir_arg $ reference_arg))

let compare_cmd =
  let file n =
    Arg.(required & pos n (some file) None & info [] ~docv:"RESULT")
  in
  let bounds =
    Arg.(
      value & opt file "BENCHMARK.json"
      & info [ "bounds" ] ~docv:"FILE" ~doc:"Where the bounds are read from.")
  in
  let go a b bounds =
    let read p = Result.map_error (fun e -> p ^ ": " ^ e) (Emflow.Json_in.of_file p) in
    match
      Result.bind (Compare.load_bounds bounds) (fun bounds ->
          Result.bind (read a) (fun da ->
              Result.bind (read b) (fun db ->
                  Compare.compare_results ~bounds da db)))
    with
    | Error e -> `Error (false, e)
    | Ok rows ->
      Compare.print_comparison rows;
      `Ok
        (if
           List.exists
             (fun r ->
               r.Compare.verdict = Compare.Worse
               || r.Compare.verdict = Compare.Unresolved)
             rows
         then 1
         else 0)
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Per workload and end-to-end metric: both medians and quartiles and \
          a better/worse/same/unresolved verdict. A workload or metric that \
          one result lacks, or that has fewer than 3 samples, is \
          unresolved. Exits 1 on any worse or unresolved.")
    Term.(ret (const go $ file 0 $ file 1 $ bounds))

let reference_cmd =
  let go emcheck out_dir reference =
    check_emcheck emcheck @@ fun () ->
    let cfg =
      config ~seed:Workload.default_seed ~seconds:None ~trace:false ~emcheck
        ~out_dir ~reference
    in
    Harness.mkdir_p cfg.Harness.out_dir;
    Harness.record_reference cfg ~out:reference;
    `Ok 0
  in
  Cmd.v
    (Cmd.info "reference"
       ~doc:"Re-record the reference (run it when a deck or verdict is meant \
             to change).")
    Term.(ret (const go $ emcheck_arg $ out_dir_arg $ reference_arg))

let replay_cmd =
  let req name docv c =
    Arg.(required & opt (some c) None & info [ name ] ~docv)
  in
  let j1 =
    Arg.(value & flag & info [ "j1" ] ~doc:"Also time the parallel layers at one job.")
  in
  let go w seed jobs deck json out j1 =
    let res = Replay.run w ~seed ~jobs ~j1 ~deck ~json in
    Harness.write_file out (Emflow.Json_out.to_string (Replay.result_to_json res));
    0
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"One traced replay of emcheck analyze")
    Term.(
      const go
      $ req "workload" "NAME" workload_conv
      $ seed_arg
      $ Arg.(value & opt int jobs_default & info [ "jobs" ] ~docv:"N")
      $ req "deck" "FILE" Arg.file $ req "json" "FILE" Arg.string
      $ req "out" "FILE" Arg.string $ j1)

let () =
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "e2e" ~doc:"Deck -> verdict benchmark")
          [ run_cmd; compare_cmd; reference_cmd; replay_cmd ]))

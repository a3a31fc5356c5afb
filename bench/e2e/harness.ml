(* Runs workloads end to end and reports them.

   Per workload: synthesize the deck at least three times (set-up), run
   the traced replay in a child process (its report is the expected
   verdict), then time `emcheck analyze` as a user runs it: one fresh
   process per run, closed loop, one deck at a time, tracing off. With
   tracing, a replay precedes every CLI run. Several workloads are
   interleaved round-robin. *)

module J = Emflow.Json_out
module Ji = Emflow.Json_in

type better = Lower | Higher

type metric = { name : string; unit : string; better : better }

let m name unit better = { name; unit; better }

(* The metrics a benchmark run reports: BENCHMARK.json lists the same
   names, units and directions. *)
let end_to_end =
  [
    m "wall_s" "s" Lower; m "cpu_s" "s" Lower; m "peak_rss_mb" "MB" Lower;
    m "setup_s" "s" Lower;
  ]

(* Zero on a healthy run, so it is kept out of [end_to_end]; it is the
   result line's [failed] / [attempted]. *)
let error_rate = m "error_rate" "ratio" Lower

let per_layer =
  [
    m "spice.parser.wall_s" "s" Lower; m "spice.parser.alloc_mw" "Mw" Lower;
    m "spice.parser.hwm_delta_mb" "MB" Lower;
    m "spice.checker.wall_s" "s" Lower; m "spice.checker.findings" "count" Lower;
    m "spice.mna.wall_s" "s" Lower; m "spice.mna.cpu_s" "s" Lower;
    m "spice.mna.alloc_mw" "Mw" Lower; m "spice.mna.iterations" "count" Lower;
    m "spice.mna.residual" "ratio" Lower;
    m "spice.mna.ns_per_node_iter" "ns" Lower;
    m "spice.mna.hwm_delta_mb" "MB" Lower;
    m "flow.extract.wall_s" "s" Lower; m "flow.extract.alloc_mw" "Mw" Lower;
    m "flow.extract.hwm_delta_mb" "MB" Lower;
    m "flow.em_flow.wall_s" "s" Lower; m "flow.em_flow.cpu_s" "s" Lower;
    m "flow.em_flow.segments_per_s" "1/s" Higher;
    m "flow.em_flow.failed_structures" "count" Lower;
    m "flow.em_flow.speedup_vs_j1" "ratio" Higher;
    (* Only pg2-variation runs Monte-Carlo; elsewhere these read 0, so
       the layer's time is given as its share of the traced run rather
       than as seconds. *)
    m "flow.variation.wall_share" "ratio" Lower;
    m "flow.variation.segment_samples_per_s" "1/s" Higher;
    m "flow.variation.degenerate_samples" "count" Lower;
    m "flow.variation.speedup_vs_j1" "ratio" Higher;
    m "flow.report.wall_s" "s" Lower; m "flow.report.alloc_mw" "Mw" Lower;
    m "pdn.grid_gen.wall_s" "s" Lower; m "pdn.grid_gen.deck_mb" "MB" Lower;
    m "run.layer_sum_s" "s" Lower; m "run.traced_wall_s" "s" Lower;
    m "run.coverage" "ratio" Higher;
    (* |run.trace_overhead_ratio - 1|: a replay slower or faster than the
       CLI explains its wall time equally badly. *)
    m "run.trace_mismatch" "ratio" Lower;
  ]

(* Layer metrics that are printed and saved but not in BENCHMARK.json;
   the overhead ratio is two-sided, so BENCHMARK.json has its distance
   from 1 instead. *)
let extra_units =
  [
    ("flow.variation.wall_s", "s"); ("flow.variation.cpu_s", "s");
    ("run.trace_overhead_ratio", "ratio");
  ]

(* Outside these, the replay does not do the CLI's work at the CLI's
   speed, and its layer times do not explain [wall_s]. *)
let overhead_range = (0.9, 1.1)

let unit_of name =
  match List.find_opt (fun x -> x.name = name) per_layer with
  | Some x -> x.unit
  | None -> Option.value ~default:"" (List.assoc_opt name extra_units)

type config = {
  seed : int;
  seconds : float option; (* timed runs per workload; else its reps *)
  trace : bool;
  jobs : int;
  emcheck : string;
  self_exe : string;      (* this harness, for the replay child *)
  out_dir : string;
  reference : string;     (* reference.json *)
}

let max_residual = 1e-9
let rep_timeout_s = 60.
let replay_timeout_s = 120.

(* ------------------------------------------------------------------ *)
(* Host facts                                                          *)

let timestamp () =
  let t = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
    (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min
    t.Unix.tm_sec

let host_json cfg =
  J.Obj
    [
      ("nproc", J.Int (Numerics.Parallel.recommended_jobs ()));
      ("jobs", J.Int cfg.jobs);
      ("ocaml", J.String Sys.ocaml_version);
      ("emcheck_md5", J.String (Digest.to_hex (Digest.file cfg.emcheck)));
      ("seed", J.Int cfg.seed);
      ("timestamp", J.String (timestamp ()));
    ]

(* Facts that must agree for two results to be comparable. *)
let like_host_keys = [ "nproc"; "jobs"; "ocaml" ]

(* ------------------------------------------------------------------ *)
(* Reference                                                           *)

type reference = { deck_md5 : string; verdict : Verdict.t }

(* reference.json: {"seed": S, "workloads": {name: {"deck_md5": ..,
   "report": <Verdict.to_json>}}}, recorded at the default seed. *)
let load_reference path ~seed name =
  match Ji.of_file path with
  | Error _ -> None
  | Ok doc ->
    let ( let* ) = Option.bind in
    let* s = Option.bind (Ji.member "seed" doc) Ji.number in
    if int_of_float s <> seed then None
    else
      let* entry = Option.bind (Ji.member "workloads" doc) (Ji.member name) in
      let* deck_md5 = Option.bind (Ji.member "deck_md5" entry) Ji.string_value in
      let* report = Ji.member "report" entry in
      Option.map
        (fun verdict -> { deck_md5; verdict })
        (Result.to_option (Verdict.of_json report))

(* ------------------------------------------------------------------ *)
(* One workload                                                        *)

type run = {
  w : Workload.t;
  spans : Spans.t;
  path : string -> string; (* per-workload file under out_dir *)
  reference : reference option;
  mutable deck_md5 : string;
  mutable setup_s : float list;
  mutable gen_s : float list;
  mutable deck_mb : float;
  mutable expected : Verdict.t option; (* the replay's verdict *)
  mutable layers : (string * float) list list; (* per replay, newest first *)
  mutable replay_walls : float list;
  mutable unpaired : (float * float) option;
      (* last replay's traced wall and layer sum *)
  mutable overhead : float list; (* traced wall / next CLI run's wall *)
  mutable coverage : float list; (* layer sum / next CLI run's wall *)
  mutable ok : Proc.outcome list; (* CLI runs that exited 0 *)
  mutable cli_runs : int;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

let create cfg w =
  {
    w;
    spans = Spans.create ~workload:w.Workload.name;
    path =
      (fun suffix ->
        Filename.concat cfg.out_dir (w.Workload.name ^ "-" ^ suffix));
    reference = load_reference cfg.reference ~seed:cfg.seed w.Workload.name;
    deck_md5 = "";
    setup_s = [];
    gen_s = [];
    deck_mb = 0.;
    expected = None;
    layers = [];
    replay_walls = [];
    unpaired = None;
    overhead = [];
    coverage = [];
    ok = [];
    cli_runs = 0;
    attempted = 0;
    failed = 0;
    errors = [];
  }

let error r msg = r.errors <- r.errors @ [ msg ]

let median xs = (Quartile.of_samples xs).Quartile.median

let timed f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

(* Set-up repeats at least three times, and on small decks until it has
   taken a second, so that its median is not one scheduler tick. *)
let min_setups = 3
let max_setups = 15
let setup_budget_s = 1.

(* Set-up: synthesize and write the deck repeatedly; every copy must
   hash the same, and match the reference at the reference seed. *)
let setup cfg r =
  let deck = r.path "deck.sp" in
  let once () =
    let g, gen =
      timed (fun () ->
          Spans.with_span r.spans "pdn.grid_gen" (fun () ->
              Workload.synthesize r.w ~seed:cfg.seed))
    in
    let (), write =
      timed (fun () ->
          Spans.with_span r.spans "deck.write" (fun () ->
              Workload.write_deck deck g))
    in
    r.gen_s <- gen :: r.gen_s;
    r.setup_s <- (gen +. write) :: r.setup_s;
    Digest.to_hex (Digest.file deck)
  in
  let rec loop digests =
    let n = List.length digests in
    if
      n >= max_setups
      || n >= min_setups
         && List.fold_left ( +. ) 0. r.setup_s >= setup_budget_s
    then digests
    else loop (once () :: digests)
  in
  let digests = Spans.with_span r.spans "setup" (fun () -> loop []) in
  (* The synthesized grids are garbage now: collect them before the
     timed runs. *)
  Gc.compact ();
  r.deck_md5 <- List.hd digests;
  r.deck_mb <- float_of_int (Unix.stat deck).Unix.st_size /. 1e6;
  if List.exists (( <> ) r.deck_md5) digests then
    error r ("deck differs between syntheses: " ^ String.concat " " digests);
  match r.reference with
  | Some ref when ref.deck_md5 <> r.deck_md5 ->
    error r
      (Printf.sprintf "deck md5 %s, reference %s" r.deck_md5 ref.deck_md5)
  | _ -> ()

(* Errors of one JSON report against the reference and the replay. *)
let check_report r ~json =
  let samples = Option.value ~default:1 r.w.Workload.samples in
  match Verdict.of_file json with
  | Error e -> [ json ^ ": " ^ e ]
  | Ok v ->
    let against label = function
      | None -> []
      | Some expected ->
        List.map (( ^ ) (label ^ ": ")) (Verdict.diff ~samples ~expected v)
    in
    against "vs reference" (Option.map (fun x -> x.verdict) r.reference)
    @ against "vs traced run" r.expected

let fail r errs =
  r.failed <- r.failed + 1;
  List.iter (error r) errs

let replay cfg r ~j1 =
  r.attempted <- r.attempted + 1;
  let out = r.path "replay.json" and json = r.path "replay-report.json" in
  let args =
    [
      "replay"; "--workload"; r.w.Workload.name; "--seed";
      string_of_int cfg.seed; "--jobs"; string_of_int cfg.jobs; "--deck";
      r.path "deck.sp"; "--json"; json; "--out"; out;
    ]
    @ if j1 then [ "--j1" ] else []
  in
  Spans.with_span r.spans "replay" @@ fun () ->
  let o =
    Proc.run ~timeout:replay_timeout_s ~log:(r.path "replay.log") cfg.self_exe
      args
  in
  match o.Proc.status with
  | Proc.Exited 0 -> (
    match Result.map Replay.result_of_json (Ji.of_file out) with
    | Ok (Some res) ->
      Spans.import r.spans res.Replay.spans;
      r.layers <- res.Replay.metrics :: r.layers;
      r.replay_walls <- o.Proc.wall_s :: r.replay_walls;
      r.unpaired <-
        (let get k = List.assoc_opt k res.Replay.metrics in
         match (get "run.traced_wall_s", get "run.layer_sum_s") with
         | Some traced, Some layers -> Some (traced, layers)
         | _ -> None);
      let residual =
        Option.value ~default:Float.nan
          (List.assoc_opt "spice.mna.residual" res.Replay.metrics)
      in
      let errs =
        (if residual <= max_residual then []
         else [ Printf.sprintf "MNA residual %g > %g" residual max_residual ])
        @ check_report r ~json
      in
      if errs = [] then r.expected <- Result.to_option (Verdict.of_file json)
      else fail r (List.map (( ^ ) "traced run: ") errs)
    | Ok None | Error _ -> fail r [ "traced run: unreadable " ^ out ])
  | st ->
    fail r
      [ Printf.sprintf "traced run: %s (see %s)" (Proc.status_to_string st)
          (r.path "replay.log") ]

let rep cfg r =
  r.attempted <- r.attempted + 1;
  r.cli_runs <- r.cli_runs + 1;
  let json = r.path "report.json" in
  if Sys.file_exists json then Sys.remove json;
  let o =
    Spans.with_span r.spans "cli" (fun () ->
        Proc.run ~timeout:rep_timeout_s ~log:(r.path "cli.log") cfg.emcheck
          (Workload.emcheck_args r.w ~seed:cfg.seed ~jobs:cfg.jobs
             ~deck:(r.path "deck.sp") ~json))
  in
  let label = Printf.sprintf "run %d: " r.cli_runs in
  let traced = r.unpaired in
  r.unpaired <- None;
  match o.Proc.status with
  | Proc.Exited 0 ->
    r.ok <- o :: r.ok;
    Option.iter
      (fun (t, layers) ->
        r.overhead <- (t /. o.Proc.wall_s) :: r.overhead;
        r.coverage <- (layers /. o.Proc.wall_s) :: r.coverage)
      traced;
    let errs = check_report r ~json in
    if errs <> [] then fail r (List.map (( ^ ) label) errs)
  | st -> fail r [ label ^ Proc.status_to_string st ]

(* One step of the closed loop: a CLI run, preceded by a traced replay
   on the first step and, when tracing, on every step. Pairing each
   replay with the run right after it keeps their ratio clear of the
   host's drift over minutes; the median over pairs damps the noise
   between single runs. *)
let step cfg r =
  if cfg.trace || r.attempted = 0 then
    replay cfg r ~j1:(cfg.trace && r.attempted = 0);
  rep cfg r

(* Timed runs a workload makes under a time budget even when they
   overrun it, unless tracing: with fewer, Python's quartiles
   extrapolate past the samples, and [Compare] reports the metric as
   unresolved. A traced run's result line holds no end-to-end metric,
   and there a replay doubles each step's cost. *)
let min_runs = 3

(* Another step until the workload's reps or, under a time budget, until
   it has its minimum of runs and the next step is not expected to end
   within the budget. When tracing, the budget covers the replays too.
   A workload whose first run failed takes no more steps. *)
let wants_step cfg r =
  match cfg.seconds with
  | Some budget ->
    let walls = List.map (fun o -> o.Proc.wall_s) r.ok in
    let sum = List.fold_left ( +. ) 0. in
    let next l = if l = [] then 0. else median l in
    (* A replay's process time includes the one-off [--j1] re-runs; its
       traced time does not. *)
    let replays, traced =
      if cfg.trace then
        ( r.replay_walls,
          List.filter_map (List.assoc_opt "run.traced_wall_s") r.layers )
      else ([], [])
    in
    r.cli_runs = 0
    || walls <> []
       && ((r.cli_runs < min_runs && not cfg.trace)
          || sum walls +. sum replays +. next walls +. next traced <= budget)
  | None -> r.cli_runs < r.w.Workload.reps

(* ------------------------------------------------------------------ *)
(* Results                                                             *)

let samples r name =
  match name with
  | "wall_s" -> List.rev_map (fun o -> o.Proc.wall_s) r.ok
  | "cpu_s" -> List.rev_map (fun o -> o.Proc.cpu_s) r.ok
  | "peak_rss_mb" ->
    List.rev_map (fun o -> float_of_int o.Proc.peak_rss_kb /. 1024.) r.ok
  | "setup_s" -> List.rev r.setup_s
  | "error_rate" ->
    [ float_of_int r.failed /. float_of_int (max 1 r.attempted) ]
  | _ -> invalid_arg name

(* The replays' layer metrics (medians over the replays) plus those
   only the harness can see. *)
let layer_metrics r =
  let merged =
    match List.rev r.layers with
    | [] -> []
    | first :: _ as all ->
      List.map
        (fun (k, _) -> (k, median (List.filter_map (List.assoc_opt k) all)))
        first
  in
  let get k = List.assoc_opt k merged in
  let ratio a b =
    match (a, b) with Some a, Some b when b > 0. -> a /. b | _ -> 0.
  in
  let paired l = if l = [] then 0. else median l in
  merged
  @ [
      ("pdn.grid_gen.wall_s", median r.gen_s);
      ("pdn.grid_gen.deck_mb", r.deck_mb);
      ( "flow.variation.wall_share",
        ratio (get "flow.variation.wall_s") (get "run.traced_wall_s") );
      ("run.coverage", paired r.coverage);
      ("run.trace_overhead_ratio", paired r.overhead);
      ("run.trace_mismatch", Float.abs (paired r.overhead -. 1.));
    ]

(* The two-sided check of the trace against the CLI, printed as a note:
   host noise alone can trip it, so it does not fail the run. *)
let overhead_note r =
  let lo, hi = overhead_range in
  match r.overhead with
  | [] -> None
  | l ->
    let x = median l in
    if x >= lo && x <= hi then None
    else
      Some
        (Printf.sprintf
           "traced run took %.2fx the CLI's wall time, outside [%g, %g]: \
            its layer times do not explain wall_s"
           x lo hi)

let correct r = r.failed = 0 && r.errors = []

let quartile_json q samples =
  [
    ("median", J.Float q.Quartile.median); ("q1", J.Float q.Quartile.q1);
    ("q3", J.Float q.Quartile.q3); ("n", J.Int q.Quartile.n);
    ("samples", J.List (List.map (fun x -> J.Float x) samples));
  ]

let run_json cfg r =
  let e2e =
    List.filter_map
      (fun x ->
        match samples r x.name with
        | [] -> None
        | s ->
          Some
            ( x.name,
              J.Obj (("unit", J.String x.unit) :: quartile_json (Quartile.of_samples s) s) ))
      (end_to_end @ [ error_rate ])
  in
  J.Obj
    ([
       ("name", J.String r.w.Workload.name);
       ("why", J.String r.w.Workload.why);
       ("deck_md5", J.String r.deck_md5);
       ("attempted", J.Int r.attempted);
       ("failed", J.Int r.failed);
       ("correct", J.Bool (correct r));
       ("errors", J.List (List.map (fun e -> J.String e) r.errors));
       ("end_to_end", J.Obj e2e);
     ]
    @
    if cfg.trace then
      [
        ( "per_layer",
          J.Obj
            (List.map
               (fun (k, v) ->
                 (k, J.Obj [ ("unit", J.String (unit_of k)); ("value", J.Float v) ]))
               (layer_metrics r)) );
      ]
    else [])

let print_run cfg r =
  Printf.printf "\n== %s (seed %d): %d runs attempted, %d failed\n"
    r.w.Workload.name cfg.seed r.attempted r.failed;
  let table = Emflow.Report.create [ "metric"; "unit"; "median"; "q1"; "q3"; "n" ] in
  List.iter
    (fun x ->
      match samples r x.name with
      | [] -> ()
      | s ->
        let q = Quartile.of_samples s in
        Emflow.Report.add_row table
          [ x.name; x.unit; Printf.sprintf "%.4f" q.Quartile.median;
            Printf.sprintf "%.4f" q.Quartile.q1;
            Printf.sprintf "%.4f" q.Quartile.q3; string_of_int q.Quartile.n ])
    (end_to_end @ [ error_rate ]);
  Emflow.Report.print table;
  if cfg.trace then begin
    let layers = Emflow.Report.create [ "layer metric"; "unit"; "value" ] in
    List.iter
      (fun (k, v) ->
        Emflow.Report.add_row layers [ k; unit_of k; Printf.sprintf "%.6g" v ])
      (layer_metrics r);
    Emflow.Report.print layers;
    Option.iter (Printf.printf "  note: %s\n") (overhead_note r)
  end;
  List.iter (Printf.printf "  error: %s\n") r.errors

(* The result line: every end-to-end metric, or with tracing every
   per-layer metric, as the median of this run. Several workloads are
   told apart by a "<workload>/" prefix. *)
let summary_line cfg runs =
  let prefix r = match runs with [ _ ] -> "" | _ -> r.w.Workload.name ^ "/" in
  let value unit v = J.Obj [ ("value", J.Float v); ("unit", J.String unit) ] in
  let metrics r =
    if cfg.trace then
      let got = layer_metrics r in
      List.map
        (fun x ->
          (prefix r ^ x.name, value x.unit (Option.value ~default:0. (List.assoc_opt x.name got))))
        per_layer
    else
      List.filter_map
        (fun x ->
          match samples r x.name with
          | [] -> None
          | s -> Some (prefix r ^ x.name, value x.unit (median s)))
        end_to_end
  in
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool (List.for_all correct runs));
         ("attempted", J.Int (List.fold_left (fun a r -> a + r.attempted) 0 runs));
         ("failed", J.Int (List.fold_left (fun a r -> a + r.failed) 0 runs));
         ("metrics", J.Obj (List.concat_map metrics runs));
       ])

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  go dir

(* Run [workloads]; returns whether every run was correct. Writes
   BENCH_e2e.json (and e2e_trace.json when tracing) to [results_dir]. *)
let run cfg ~results_dir workloads =
  mkdir_p cfg.out_dir;
  mkdir_p results_dir;
  let runs = List.map (create cfg) workloads in
  List.iter (setup cfg) runs;
  let rec loop () =
    match List.filter (wants_step cfg) runs with
    | [] -> ()
    | active ->
      List.iter (step cfg) active;
      loop ()
  in
  loop ();
  List.iter (print_run cfg) runs;
  let doc =
    J.Obj
      [
        ("host", host_json cfg);
        ( "seconds",
          match cfg.seconds with Some s -> J.Float s | None -> J.Null );
        ("trace", J.Bool cfg.trace);
        ("workloads", J.List (List.map (run_json cfg) runs));
      ]
  in
  let bench = Filename.concat results_dir "BENCH_e2e.json" in
  write_file bench (J.to_string doc);
  Printf.printf "\nresults -> %s\n" bench;
  if cfg.trace then begin
    let trace = Filename.concat results_dir "e2e_trace.json" in
    write_file trace
      (Spans.to_chrome (List.concat_map (fun r -> Spans.spans r.spans) runs));
    Printf.printf "trace -> %s\n" trace
  end;
  print_endline (summary_line cfg runs);
  List.for_all correct runs

(* ------------------------------------------------------------------ *)
(* Reference recording                                                 *)

(* Record reference.json at the default seed from one traced replay per
   workload. *)
let record_reference cfg ~out =
  let entries =
    List.map
      (fun w ->
        (* Checked against nothing: the old reference may be stale. *)
        let r = create { cfg with trace = false; reference = "" } w in
        setup cfg r;
        replay cfg r ~j1:false;
        match (r.errors, r.expected) with
        | [], Some v ->
          ( w.Workload.name,
            J.Obj [ ("deck_md5", J.String r.deck_md5); ("report", Verdict.to_json v) ] )
        | errs, _ ->
          failwith (w.Workload.name ^ ": " ^ String.concat "; " errs))
      Workload.all
  in
  write_file out
    (J.to_string (J.Obj [ ("seed", J.Int cfg.seed); ("workloads", J.Obj entries) ]));
  Printf.printf "reference -> %s\n" out

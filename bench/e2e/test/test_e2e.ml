(* Tests of the e2e harness itself: its statistics, its /proc parsing,
   its verdict check, its span recorder, a one-run smoke of the whole
   harness, and BENCHMARK.json against the harness's metric tables. *)

open E2e_harness
module J = Emflow.Json_out
module Ji = Emflow.Json_in

let feq = Alcotest.float 1e-12

(* Expected values are Python's statistics.quantiles (d, n=4). *)
let test_quartiles () =
  let check d (q1, q2, q3) =
    let q = Quartile.of_samples d in
    Alcotest.check feq "q1" q1 q.Quartile.q1;
    Alcotest.check feq "median" q2 q.Quartile.median;
    Alcotest.check feq "q3" q3 q.Quartile.q3
  in
  check [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ] (2.75, 5.5, 8.25);
  check [ 4.; 1.; 3.; 2. ] (1.25, 2.5, 3.75);
  check [ 2.5; 1.; 4. ] (1., 2.5, 4.);
  (* Two samples: Python extrapolates past both ends. *)
  check [ 5.; 1. ] (0., 3., 6.);
  check [ 7. ] (7., 7., 7.);
  Alcotest.check feq "spread: (3.75 - 1.25) / 2.5" 1.
    (Quartile.spread (Quartile.of_samples [ 4.; 1.; 3.; 2. ]))

let test_vmhwm () =
  let status =
    "Name:\temcheck.exe\nVmPeak:\t  912345 kB\nVmHWM:\t  123456 kB\n\
     VmRSS:\t  100000 kB\n"
  in
  Alcotest.(check (option int)) "VmHWM" (Some 123456) (Proc.vmhwm_kb status);
  Alcotest.(check (option int))
    "zombie: no VmHWM line" None
    (Proc.vmhwm_kb "Name:\tx\nState:\tZ (zombie)\n");
  Alcotest.(check (option int))
    "malformed" None (Proc.vmhwm_kb "VmHWM:\t lots kB\n");
  Alcotest.(check bool) "own VmHWM is read" true (Proc.self_hwm_kb () > 0)

let verdict =
  {
    Verdict.tp = 100; tn = 5; fp = 40; fn = 3; structures = 12; segments = 148;
    failed_structures = 0; mortality = [ (0, 0.25); (3, Float.nan) ];
  }

(* A CLI-format report with one count altered fails the check. *)
let test_altered_report () =
  let reread v =
    match Verdict.of_json (Ji.parse_exn (J.to_string (Verdict.to_json v))) with
    | Ok v -> v
    | Error e -> Alcotest.fail e
  in
  let diff v = Verdict.diff ~samples:1000 ~expected:verdict (reread v) in
  Alcotest.(check (list string)) "unaltered" [] (diff verdict);
  Alcotest.(check int) "altered fp" 1
    (List.length (diff { verdict with Verdict.fp = 41 }));
  Alcotest.(check (list string))
    "mortality within one sample" []
    (diff { verdict with Verdict.mortality = [ (0, 0.2505); (3, Float.nan) ] });
  Alcotest.(check int) "mortality off by two samples" 1
    (List.length
       (diff { verdict with Verdict.mortality = [ (0, 0.252); (3, Float.nan) ] }))

let test_spans () =
  let t = Spans.create ~workload:"w" in
  let busy () = ignore (Unix.select [] [] [] 0.002) in
  Spans.with_span t "root" (fun () ->
      busy ();
      Spans.with_span t "a" (fun () ->
          busy ();
          Spans.with_span t "a.1" busy);
      Spans.with_span t "b" busy);
  let spans = Spans.spans t in
  let root = List.find (fun s -> s.Spans.name = "root") spans in
  let self_sum =
    List.fold_left (fun acc s -> acc +. Spans.self_us spans s) 0. spans
  in
  Alcotest.(check (float 1e-6)) "self times add up to the root"
    (Spans.duration_us root) self_sum;
  List.iter
    (fun s ->
      Alcotest.(check bool) (s.Spans.name ^ " self >= 0") true
        (Spans.self_us spans s >= 0.))
    spans;
  let doc = Ji.parse_exn (Spans.to_chrome spans) in
  let events =
    Option.get (Option.bind (Ji.member "traceEvents" doc) Ji.list_value)
  in
  let complete =
    List.filter
      (fun e -> Option.bind (Ji.member "ph" e) Ji.string_value = Some "X")
      events
  in
  Alcotest.(check int) "one complete event per span" 4 (List.length complete);
  List.iter
    (fun e ->
      List.iter
        (fun k ->
          Alcotest.(check bool) ("event has " ^ k) true
            (Option.is_some (Option.bind (Ji.member k e) Ji.number)))
        [ "ts"; "dur"; "pid"; "tid" ])
    complete

(* A workload one result lacks, and a metric with too few samples, are
   unresolved rather than skipped or judged. *)
let test_compare () =
  let result workloads =
    let metric samples =
      J.Obj [ ("samples", J.List (List.map (fun x -> J.Float x) samples)) ]
    in
    J.Obj
      [
        ( "host",
          J.Obj [ ("nproc", J.Int 2); ("jobs", J.Int 2); ("ocaml", J.String "5") ] );
        ( "workloads",
          J.List
            (List.map
               (fun (name, wall) ->
                 J.Obj
                   [
                     ("name", J.String name);
                     ( "end_to_end",
                       J.Obj
                         [ ("wall_s", metric wall); ("error_rate", metric [ 0. ]) ] );
                   ])
               workloads) );
      ]
  in
  let verdicts a b =
    match
      Compare.compare_results ~bounds:[ ("wall_s", 0.1, Harness.Lower) ]
        (result a) (result b)
    with
    | Error e -> Alcotest.fail e
    | Ok rows ->
      List.map
        (fun r ->
          Printf.sprintf "%s %s %s" r.Compare.workload r.Compare.metric
            (Compare.verdict_to_string r.Compare.verdict))
        rows
  in
  let steady = [ 1.; 1.01; 0.99; 1. ] in
  Alcotest.(check (list string)) "same"
    [ "w wall_s same"; "w error_rate same" ]
    (verdicts [ ("w", steady) ] [ ("w", steady) ]);
  Alcotest.(check (list string)) "workload missing from B"
    [ "w wall_s same"; "w error_rate same"; "v wall_s unresolved";
      "v error_rate unresolved" ]
    (verdicts [ ("w", steady); ("v", steady) ] [ ("w", steady) ]);
  Alcotest.(check (list string)) "two samples"
    [ "w wall_s unresolved"; "w error_rate same" ]
    (verdicts [ ("w", steady) ] [ ("w", [ 1.; 1.01 ]) ])

let test_smoke () =
  let dir = "smoke-out" in
  let cfg =
    {
      Harness.seed = Workload.default_seed;
      seconds = None;
      trace = true;
      jobs = 2;
      emcheck = "../../../bin/emcheck.exe";
      self_exe = "../e2e.exe";
      out_dir = Filename.concat dir "e2e";
      reference = "no-reference.json";
    }
  in
  Alcotest.(check bool) "correct" true
    (Harness.run cfg ~results_dir:dir [ Workload.smoke ]);
  let bench = Ji.parse_exn (In_channel.with_open_bin (Filename.concat dir "BENCH_e2e.json") In_channel.input_all) in
  let w =
    List.hd
      (Option.get (Option.bind (Ji.member "workloads" bench) Ji.list_value))
  in
  let num path =
    List.fold_left (fun acc k -> Option.bind acc (Ji.member k)) (Some w) path
    |> Fun.flip Option.bind Ji.number
  in
  Alcotest.(check (option (float 0.))) "two runs: replay + CLI" (Some 2.)
    (num [ "attempted" ]);
  Alcotest.(check (option (float 0.))) "no failures" (Some 0.) (num [ "failed" ]);
  Alcotest.(check bool) "wall time measured" true
    (Option.get (num [ "end_to_end"; "wall_s"; "median" ]) > 0.);
  Alcotest.(check bool) "MNA layer traced" true
    (Option.get (num [ "per_layer"; "spice.mna.wall_s"; "value" ]) > 0.);
  Alcotest.(check bool) "coverage taken against the CLI run" true
    (Option.get (num [ "per_layer"; "run.coverage"; "value" ]) > 0.);
  ignore
    (Ji.parse_exn
       (In_channel.with_open_bin (Filename.concat dir "e2e_trace.json")
          In_channel.input_all))

(* BENCHMARK.json names exactly the harness's workloads and metrics. *)
let test_benchmark_json () =
  let doc =
    Ji.parse_exn
      (In_channel.with_open_bin "../../../BENCHMARK.json" In_channel.input_all)
  in
  let items k = Option.get (Option.bind (Ji.member k doc) Ji.list_value) in
  let str k item = Option.get (Option.bind (Ji.member k item) Ji.string_value) in
  Alcotest.(check (list string)) "workloads"
    (List.map (fun w -> w.Workload.name) Workload.all)
    (List.map (str "name") (items "workloads"));
  let describe (m : Harness.metric) =
    Printf.sprintf "%s %s %s" m.Harness.name m.Harness.unit
      (match m.Harness.better with Harness.Lower -> "lower" | Harness.Higher -> "higher")
  in
  let listed k =
    List.map
      (fun i -> Printf.sprintf "%s %s %s" (str "name" i) (str "unit" i) (str "better" i))
      (items k)
  in
  Alcotest.(check (list string)) "end_to_end"
    (List.map describe Harness.end_to_end) (listed "end_to_end");
  Alcotest.(check (list string)) "per_layer"
    (List.map describe Harness.per_layer) (listed "per_layer")

let () =
  Alcotest.run "e2e"
    [
      ( "harness",
        [
          Alcotest.test_case "quartiles match Python's" `Quick test_quartiles;
          Alcotest.test_case "VmHWM parsing" `Quick test_vmhwm;
          Alcotest.test_case "altered report is an error" `Quick
            test_altered_report;
          Alcotest.test_case "spans: Chrome JSON and self times" `Quick
            test_spans;
          Alcotest.test_case "compare: missing and thin results unresolved"
            `Quick test_compare;
          Alcotest.test_case "one-run smoke on a pg1 x0.2 deck" `Quick
            test_smoke;
          Alcotest.test_case "BENCHMARK.json matches the harness" `Quick
            test_benchmark_json;
        ] );
    ]

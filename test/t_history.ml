open T_helpers
module J = Emflow.Json_out
module Ji = Emflow.Json_in
module H = Emflow.Bench_history

(* ---------------------------------------------------------------- *)
(* Json_in: the parser feeding the history tracker                   *)

let test_json_in_values () =
  let ok text expected =
    match Ji.parse text with
    | Ok v ->
      Alcotest.(check string)
        ("round-trip of " ^ text)
        (J.to_string expected) (J.to_string v)
    | Error msg -> Alcotest.failf "%s: unexpected error %s" text msg
  in
  ok "null" J.Null;
  ok " true " (J.Bool true);
  ok "42" (J.Int 42);
  ok "-7" (J.Int (-7));
  ok "2.5e-3" (J.Float 2.5e-3);
  ok {|"plain"|} (J.String "plain");
  ok {|"esc \" \\ \n \t A"|} (J.String "esc \" \\ \n \t A");
  (* Surrogate pair: U+1F600 as UTF-8. *)
  ok {|"😀"|} (J.String "\xf0\x9f\x98\x80");
  ok {|[1,"a",{"b":false}]|}
    (J.List [ J.Int 1; J.String "a"; J.Obj [ ("b", J.Bool false) ] ]);
  ok {|{}|} (J.Obj []);
  ok
    {|{"metrics":{"x_s":0.5,"n":3}}|}
    (J.Obj
       [ ("metrics", J.Obj [ ("x_s", J.Float 0.5); ("n", J.Int 3) ]) ])

let test_json_in_rejects () =
  List.iter
    (fun text ->
      match Ji.parse text with
      | Ok _ -> Alcotest.failf "accepted malformed %s" text
      | Error msg ->
        Alcotest.(check bool)
          ("error names an offset: " ^ msg)
          true
          (String.length msg > 0))
    [
      ""; "{"; "[1,]"; {|{"a":}|}; "nul"; "01x"; "1.e"; {|"unterminated|};
      {|"bad \q escape"|}; "\"ctrl \x01 char\""; {|"\ud800 unpaired"|};
      "[1] trailing"; {|{"a" 1}|};
    ]

let test_json_in_roundtrip_emitter () =
  (* Whatever Json_out emits, Json_in reads back to the same document. *)
  let doc =
    J.Obj
      [
        ("s", J.String "q\"b\\n\nu\xe2\x82\xac"); (* includes a real euro sign *)
        ("i", J.Int (-12));
        ("f", J.Float 1.5e-7);
        ("l", J.List [ J.Bool true; J.Null ]);
        ("o", J.Obj [ ("nested", J.Int 1) ]);
      ]
  in
  match Ji.parse (J.to_string doc) with
  | Ok back ->
    Alcotest.(check string) "identical re-serialization" (J.to_string doc)
      (J.to_string back)
  | Error msg -> Alcotest.failf "emitter output rejected: %s" msg

(* ---------------------------------------------------------------- *)
(* Metric extraction from bench results                              *)

let obs_doc =
  J.Obj
    [
      ("bench", J.String "obs");
      ("full", J.Bool false);
      ("off_s", J.Float 0.002);
      ("trace_on_ratio", J.Float 1.2);
      ("disabled_span_ns", J.Float 6.0);
      ("estimated_disabled_overhead_pct", J.Float 0.06);
      ("iterations", J.Int 64); (* not a measurement: must not appear *)
    ]

let scaling_doc ?(columnar1000 = 2.0e-5) () =
  J.Obj
    [
      ("bench", J.String "scaling");
      ("full", J.Bool false);
      ("columnar_throughput_cliff_ratio", J.Float 2.1);
      ( "rows",
        J.List
          [
            J.Obj
              [
                ("edges", J.Int 1000);
                ("boxed_s", J.Float 2.4e-4);
                ("convert_s", J.Float 2.2e-5);
                ("columnar_s", J.Float columnar1000);
                ("columnar_segments_per_s", J.Float 3.8e7);
                ("reordered_solve_s", J.Float 1.8e-5);
                ("reordered_segments_per_s", J.Float 5.5e7);
                ("par_solve_s", J.Float 1.9e-5);
                ("par_segments_per_s", J.Float 5.2e7);
                ("speedup", J.Float 9.0);
              ];
            J.Obj
              [
                ("edges", J.Int 3000);
                ("boxed_s", J.Float 4.0e-4);
                ("columnar_s", J.Float 7.4e-5);
                ("columnar_segments_per_s", J.Float 4.0e7);
                ("speedup", J.Float 5.4);
              ];
          ] );
    ]

let test_metrics_of_obs () =
  let ms = H.metrics_of_result obs_doc in
  Alcotest.(check int) "four obs metrics" 4 (List.length ms);
  check_close "ratio extracted" 1.2 (List.assoc "trace_on_ratio" ms);
  Alcotest.(check bool) "iteration count is not a metric" true
    (List.assoc_opt "iterations" ms = None)

let test_metrics_of_scaling () =
  let ms = H.metrics_of_result (scaling_doc ()) in
  (* 2 keys in each row + the top-level cliff ratio. The retired
     boxed-solve, conversion, parallel-solve and relabelled-solve
     columns of older results are not metrics. *)
  Alcotest.(check int) "per-size metrics plus cliff" 5 (List.length ms);
  Alcotest.(check bool) "retired boxed column dropped" true
    (List.assoc_opt "boxed_s@1000" ms = None);
  check_close "per-size key" 2.0e-5 (List.assoc "columnar_s@1000" ms);
  check_close "second row keyed separately" 7.4e-5
    (List.assoc "columnar_s@3000" ms);
  Alcotest.(check bool) "retired convert column dropped" true
    (List.assoc_opt "convert_s@1000" ms = None);
  Alcotest.(check bool) "retired reordered columns ignored" true
    (List.assoc_opt "reordered_solve_s@1000" ms = None
    && List.assoc_opt "reordered_segments_per_s@1000" ms = None);
  Alcotest.(check bool) "retired par columns ignored" true
    (List.assoc_opt "par_solve_s@1000" ms = None
    && List.assoc_opt "par_segments_per_s@1000" ms = None);
  check_close "top-level cliff ratio extracted" 2.1
    (List.assoc "columnar_throughput_cliff_ratio" ms)

let test_cliff_ratio_direction () =
  (* The cliff ratio carries the [_ratio] suffix: lower is better, so an
     increase past threshold must gate as a regression. *)
  Alcotest.(check bool) "ratio is lower-better" true
    (H.direction_of_metric "columnar_throughput_cliff_ratio" = H.Lower_better);
  Alcotest.(check bool) "throughput is higher-better" true
    (H.direction_of_metric "columnar_segments_per_s@30000" = H.Higher_better)

let test_metrics_generic () =
  let doc =
    J.Obj
      [
        ("bench", J.String "custom");
        ("wall_s", J.Float 0.5);
        ("hit_ratio", J.Float 0.9);
        ("speedup", J.Float 2.0);
        ("label", J.String "not a number");
        ("count", J.Int 7); (* no measurement suffix *)
      ]
  in
  let ms = H.metrics_of_result doc in
  Alcotest.(check int) "three measurements" 3 (List.length ms);
  Alcotest.(check bool) "count filtered out" true
    (List.assoc_opt "count" ms = None)

(* ---------------------------------------------------------------- *)
(* History round-trip and file IO                                    *)

let entry bench metrics =
  { H.bench; rev = "abc123"; timestamp = "2026-08-06T00:00:00Z";
    full = false; metrics }

let test_entry_roundtrip () =
  let e = entry "obs" [ ("off_s", 0.002); ("trace_on_ratio", 1.1) ] in
  let line = J.to_string (H.entry_to_json e) in
  match Ji.parse line with
  | Error msg -> Alcotest.failf "entry line unreadable: %s" msg
  | Ok doc -> begin
    match H.entry_of_json doc with
    | Error msg -> Alcotest.failf "entry rejected: %s" msg
    | Ok e' ->
      Alcotest.(check string) "bench" e.H.bench e'.H.bench;
      Alcotest.(check string) "rev" e.H.rev e'.H.rev;
      Alcotest.(check string) "timestamp" e.H.timestamp e'.H.timestamp;
      Alcotest.(check bool) "full" e.H.full e'.H.full;
      Alcotest.(check int) "metrics" 2 (List.length e'.H.metrics);
      check_close "metric value" 1.1 (List.assoc "trace_on_ratio" e'.H.metrics)
  end

let test_history_file_io () =
  let path = Filename.temp_file "t_history" ".jsonl" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      (match H.load path with
      | Ok [] -> ()
      | Ok _ -> Alcotest.fail "missing file should read as empty"
      | Error msg -> Alcotest.failf "missing file errored: %s" msg);
      let e1 = entry "obs" [ ("off_s", 0.002) ] in
      let e2 = entry "scaling" [ ("columnar_s@1000", 2e-5) ] in
      (match (H.append path e1, H.append path e2) with
      | Ok (), Ok () -> ()
      | Error m, _ | _, Error m -> Alcotest.failf "append failed: %s" m);
      (match H.load path with
      | Ok [ a; b ] ->
        Alcotest.(check string) "oldest first" "obs" a.H.bench;
        Alcotest.(check string) "newest last" "scaling" b.H.bench
      | Ok es -> Alcotest.failf "expected 2 entries, got %d" (List.length es)
      | Error msg -> Alcotest.failf "load failed: %s" msg);
      (* A malformed line is an error naming its line number. *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{broken\n";
      close_out oc;
      match H.load path with
      | Ok _ -> Alcotest.fail "accepted corrupt history"
      | Error msg ->
        Alcotest.(check bool) ("names line 3: " ^ msg) true
          (let rec contains_sub i =
             i + 2 <= String.length msg
             && (String.sub msg i 2 = ":3" || contains_sub (i + 1))
           in
           contains_sub 0))

(* ---------------------------------------------------------------- *)
(* Comparison: the regression gate                                   *)

let extract bench doc =
  match H.entry_of_result ~rev:"r" ~timestamp:"t" doc with
  | Ok e -> { e with H.bench }
  | Error msg -> Alcotest.failf "extraction failed: %s" msg

(* Acceptance criterion: two identical runs never regress; a
   synthetically inflated run trips the gate. *)
let test_identical_runs_no_regression () =
  let e = extract "scaling" (scaling_doc ()) in
  let v = H.compare_entry ~history:[ e; e; e ] e in
  Alcotest.(check int) "baseline present" 3 v.H.v_baseline_runs;
  Alcotest.(check int) "zero regressions" 0 v.H.v_regressions;
  Alcotest.(check int) "zero improvements" 0 v.H.v_improvements;
  Alcotest.(check bool) "nothing gated" false (H.regressed [ v ]);
  List.iter
    (fun (i : H.item) ->
      Alcotest.(check bool) (i.H.metric ^ " ok") true (i.H.status = H.Ok_);
      check_close ~atol:1e-9 (i.H.metric ^ " delta zero") 0.
        (Option.get i.H.delta_pct))
    v.H.v_items

let test_inflated_run_trips_gate () =
  let base = extract "scaling" (scaling_doc ()) in
  (* 1.3x the columnar_s@1000 wall time: past the 25% scaling budget. *)
  let inflated = extract "scaling" (scaling_doc ~columnar1000:2.6e-5 ()) in
  let v = H.compare_entry ~history:[ base; base ] inflated in
  Alcotest.(check bool) "gate trips" true (H.regressed [ v ]);
  let item =
    List.find (fun (i : H.item) -> i.H.metric = "columnar_s@1000") v.H.v_items
  in
  Alcotest.(check bool) "the inflated metric regressed" true
    (item.H.status = H.Regression);
  check_close ~rtol:1e-6 "delta is +30%" 30. (Option.get item.H.delta_pct);
  (* Everything else stayed within budget. *)
  Alcotest.(check int) "exactly one regression" 1 v.H.v_regressions

let test_higher_better_direction () =
  Alcotest.(check bool) "throughput is higher-better" true
    (H.direction_of_metric "columnar_segments_per_s@1000" = H.Higher_better);
  Alcotest.(check bool) "speedup is higher-better" true
    (H.direction_of_metric "speedup@3000" = H.Higher_better);
  Alcotest.(check bool) "wall time is lower-better" true
    (H.direction_of_metric "columnar_s@1000" = H.Lower_better);
  (* A throughput drop registers as a positive (worsening) delta. *)
  let mk v = entry "scaling" [ ("columnar_segments_per_s@1000", v) ] in
  let v = H.compare_entry ~history:[ mk 4.0e7 ] (mk 2.0e7) in
  let item = List.hd v.H.v_items in
  check_close ~rtol:1e-9 "half the throughput = +50%" 50.
    (Option.get item.H.delta_pct);
  Alcotest.(check bool) "drop regresses" true (item.H.status = H.Regression);
  (* And a throughput gain counts as an improvement, not a regression. *)
  let v' = H.compare_entry ~history:[ mk 2.0e7 ] (mk 4.0e7) in
  Alcotest.(check int) "gain does not regress" 0 v'.H.v_regressions;
  Alcotest.(check int) "gain improves" 1 v'.H.v_improvements

let test_baseline_window_and_median () =
  let mk v = entry "obs" [ ("off_s", v) ] in
  (* Seven runs; only the last [window] = 5 count, and the median of
     those absorbs the one outlier. *)
  let history = [ mk 99.; mk 99.; mk 1.0; mk 1.1; mk 50.; mk 0.9; mk 1.0 ] in
  let v = H.compare_entry ~window:5 ~history (mk 1.05) in
  Alcotest.(check int) "window bounds the baseline" 5 v.H.v_baseline_runs;
  let item = List.hd v.H.v_items in
  check_close ~rtol:1e-9 "median of last five" 1.0 (Option.get item.H.baseline);
  Alcotest.(check bool) "5% above median is ok" true (item.H.status = H.Ok_)

let test_baseline_isolation () =
  (* Different bench names and full flags never share a baseline. *)
  let scaling = entry "scaling" [ ("x_s", 1.0) ] in
  let obs = entry "obs" [ ("x_s", 999.0) ] in
  let full_run = { (entry "scaling" [ ("x_s", 999.0) ]) with H.full = true } in
  let v = H.compare_entry ~history:[ obs; full_run; scaling ] scaling in
  Alcotest.(check int) "only the matching run counts" 1 v.H.v_baseline_runs;
  let item = List.hd v.H.v_items in
  check_close ~rtol:1e-9 "baseline from the matching run only" 1.0
    (Option.get item.H.baseline)

let test_no_baseline_never_regresses () =
  let e = entry "obs" [ ("off_s", 0.002); ("new_metric_s", 1.0) ] in
  let v = H.compare_entry ~history:[] e in
  Alcotest.(check int) "no baseline runs" 0 v.H.v_baseline_runs;
  Alcotest.(check int) "nothing regresses" 0 v.H.v_regressions;
  List.iter
    (fun (i : H.item) ->
      Alcotest.(check bool) (i.H.metric ^ " marked") true
        (i.H.status = H.No_baseline))
    v.H.v_items;
  (* Same for a metric that only exists in the current run. *)
  let hist = entry "obs" [ ("off_s", 0.002) ] in
  let v' = H.compare_entry ~history:[ hist ] e in
  let fresh =
    List.find (fun (i : H.item) -> i.H.metric = "new_metric_s") v'.H.v_items
  in
  Alcotest.(check bool) "fresh metric has no baseline" true
    (fresh.H.status = H.No_baseline)

let test_verdict_json () =
  let e = extract "scaling" (scaling_doc ()) in
  let v = H.compare_entry ~history:[ e ] e in
  let json = J.to_string (H.verdict_to_json v) in
  match Ji.parse json with
  | Error msg -> Alcotest.failf "verdict JSON unreadable: %s" msg
  | Ok doc ->
    Alcotest.(check (option string)) "bench name" (Some "scaling")
      (Option.bind (Ji.member "bench" doc) Ji.string_value);
    (match Option.bind (Ji.member "items" doc) Ji.list_value with
    | Some items ->
      Alcotest.(check int) "one item per metric" (List.length v.H.v_items)
        (List.length items)
    | None -> Alcotest.fail "verdict lacks items")

let suites =
  [
    ( "history.json_in",
      [
        case "values and escapes" test_json_in_values;
        case "rejects malformed input" test_json_in_rejects;
        case "reads back Json_out" test_json_in_roundtrip_emitter;
      ] );
    ( "history.metrics",
      [
        case "obs schema" test_metrics_of_obs;
        case "scaling schema keyed per size" test_metrics_of_scaling;
        case "cliff ratio direction" test_cliff_ratio_direction;
        case "generic measurement suffixes" test_metrics_generic;
      ] );
    ( "history.store",
      [
        case "entry JSON round-trip" test_entry_roundtrip;
        case "append/load and corrupt lines" test_history_file_io;
      ] );
    ( "history.gate",
      [
        case "identical runs never regress" test_identical_runs_no_regression;
        case "inflated run trips the gate" test_inflated_run_trips_gate;
        case "direction-aware deltas" test_higher_better_direction;
        case "rolling median over the window" test_baseline_window_and_median;
        case "bench/full baselines isolated" test_baseline_isolation;
        case "no baseline never regresses" test_no_baseline_never_regresses;
        case "verdict serializes" test_verdict_json;
      ] );
  ]

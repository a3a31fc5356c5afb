(* End-to-end CLI contracts, driven the way CI drives the tools: spawn
   the real executables, assert exit codes, one-line diagnostics and the
   machine-readable outputs. The binaries and the data deck are dune
   [deps] of the test stanza, so the relative paths below resolve inside
   the build directory. *)

open T_helpers
module Ji = Emflow.Json_in

let emcheck = Filename.concat ".." (Filename.concat "bin" "emcheck.exe")
let bench = Filename.concat ".." (Filename.concat "bench" "main.exe")
let deck = Filename.concat ".." (Filename.concat "data" "mini_grid.sp")

let tmp_name =
  let n = ref 0 in
  fun prefix ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "t_cli-%s-%d-%d" prefix (Unix.getpid ()) !n)

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all with Sys_error _ -> ""

let rm_f path = try Sys.remove path with Sys_error _ -> ()

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> rm_f (Filename.concat dir f)) (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

type outcome = { code : int; out : string; err : string }

let run_cmd cmd =
  let out = tmp_name "out" and err = tmp_name "err" in
  let code =
    Sys.command
      (Printf.sprintf "%s >%s 2>%s" cmd (Filename.quote out)
         (Filename.quote err))
  in
  let o = read_file out and e = read_file err in
  rm_f out;
  rm_f err;
  { code; out = o; err = e }

let check_one_line_diagnostic ~prefix (r : outcome) =
  let err = String.trim r.err in
  Alcotest.(check int) "exit code 2" 2 r.code;
  if not (String.length err >= String.length prefix
          && String.sub err 0 (String.length prefix) = prefix) then
    Alcotest.failf "diagnostic %S does not start with %S" err prefix;
  Alcotest.(check bool) "single line" false (String.contains err '\n')

let json_of_file path =
  match Ji.of_file path with
  | Ok j -> j
  | Error msg -> Alcotest.failf "%s: %s" path msg

let get name j =
  match Ji.member name j with
  | Some v -> v
  | None -> Alcotest.failf "missing JSON field %S" name

let get_num name j =
  match Ji.number (get name j) with
  | Some f -> f
  | None -> Alcotest.failf "JSON field %S is not a number" name

(* ---------------------------------------------------------------- *)
(* explain error paths                                               *)

let test_explain_out_of_range () =
  let r = run_cmd (Printf.sprintf "%s explain %s 999" emcheck deck) in
  check_one_line_diagnostic
    ~prefix:"emcheck explain: structure index 999 out of range" r

let test_explain_missing_deck () =
  let r =
    run_cmd (Printf.sprintf "%s explain /nonexistent/deck.sp 0" emcheck)
  in
  check_one_line_diagnostic ~prefix:"emcheck explain:" r

let test_explain_malformed_deck () =
  let bad = tmp_name "bad" ^ ".sp" in
  Out_channel.with_open_text bad (fun oc ->
      output_string oc "* truncated resistor card\nRbroken n1\n.end\n");
  Fun.protect
    ~finally:(fun () -> rm_f bad)
    (fun () ->
      let r = run_cmd (Printf.sprintf "%s explain %s 0" emcheck bad) in
      check_one_line_diagnostic ~prefix:"emcheck explain:" r)

(* ---------------------------------------------------------------- *)
(* analyze: solver health and hostile decks                          *)

let test_analyze_solver_line () =
  let json = tmp_name "report" ^ ".json" in
  Fun.protect
    ~finally:(fun () -> rm_f json)
    (fun () ->
      let r = run_cmd (Printf.sprintf "%s analyze %s --json %s" emcheck deck json) in
      Alcotest.(check int) "exit 0" 0 r.code;
      let line =
        List.find_opt
          (fun l -> String.length l > 10 && String.sub l 0 10 = "DC solve: ")
          (String.split_on_char '\n' r.out)
      in
      match line with
      | None -> Alcotest.fail "no DC solve line"
      | Some l ->
        Scanf.sscanf l "DC solve: %d free nodes, nnz(L) %d, residual %g"
          (fun free fill residual ->
            Alcotest.(check bool) "free nodes" true (free > 0);
            Alcotest.(check bool) "fill" true (fill > 0);
            Alcotest.(check bool) "residual" true (residual <= 1e-12));
        let codes =
          match Ji.list_value (get "diagnostics" (json_of_file json)) with
          | Some ds ->
            List.filter_map
              (fun d -> Option.bind (Ji.member "code" d) Ji.string_value)
              ds
          | None -> Alcotest.fail "diagnostics is not a list"
        in
        Alcotest.(check bool) "no mna-residual" false
          (List.mem "mna-residual" codes))

(* The report's [mna] object carries the solve's own size and health
   figures: the same as solving the parsed deck directly. *)
let test_analyze_mna_object () =
  let json = tmp_name "report" ^ ".json" in
  Fun.protect
    ~finally:(fun () -> rm_f json)
    (fun () ->
      let r = run_cmd (Printf.sprintf "%s analyze %s --json %s" emcheck deck json) in
      Alcotest.(check int) "exit 0" 0 r.code;
      let mna = get "mna" (json_of_file json) in
      let sol = Spice.Mna.solve (Spice.Parser.parse_file deck) in
      let int_of name = int_of_float (get_num name mna) in
      Alcotest.(check int) "free_nodes" sol.Spice.Mna.free_nodes
        (int_of "free_nodes");
      Alcotest.(check int) "nnz_l" sol.Spice.Mna.fill (int_of "nnz_l");
      Alcotest.(check int) "nets" sol.Spice.Mna.nets (int_of "nets");
      Alcotest.(check int) "two nets (VDD, GND)" 2 (int_of "nets");
      Alcotest.(check (float 0.)) "residual" sol.Spice.Mna.residual
        (get_num "residual" mna);
      Alcotest.(check bool) "residual below 1e-12" true
        (get_num "residual" mna < 1e-12))

let test_analyze_hostile_solve () =
  (* A conductance that overflows to infinity, and a floating island a
     current source drives: each ends in one diagnostic, not a crash. *)
  List.iter
    (fun (name, body) ->
      let bad = tmp_name name ^ ".sp" in
      Out_channel.with_open_text bad (fun oc -> output_string oc body);
      Fun.protect
        ~finally:(fun () -> rm_f bad)
        (fun () ->
          let r = run_cmd (Printf.sprintf "%s analyze %s" emcheck bad) in
          let err = String.trim r.err in
          Alcotest.(check bool) (name ^ ": nonzero exit") true (r.code <> 0);
          Alcotest.(check bool)
            (Printf.sprintf "%s: unsupported-netlist diagnostic %S" name err)
            true
            (String.starts_with ~prefix:"emcheck: unsupported netlist: " err
            && not (String.contains err '\n'))))
    [
      ( "tiny-r",
        "* overflowing conductance\nV1 top 0 1.8\nR1 top a 1\nR2 a b 1e-320\n\
         R3 b 0 1\nI1 a 0 1e-3\n.end\n" );
      ( "island",
        "* driven island\nV1 top 0 1.8\nR1 top a 1\nR2 a 0 1\nR3 f1 f2 1\n\
         I1 f1 f2 1e-3\n.end\n" );
    ]

let test_analyze_non_finite_value () =
  (* An overflowing value on a via line: strict analyze names the line;
     --keep-going skips it, solves the rest and exits 1 for the error. *)
  let lines = String.split_on_char '\n' (read_file deck) in
  let bad = tmp_name "overflow" ^ ".sp" in
  Out_channel.with_open_text bad (fun oc ->
      output_string oc
        (String.concat "\n"
           (List.mapi
              (fun i l -> if i = 1 then "R1 n1_11428_10000 n3_11428_10000 1e999" else l)
              lines)));
  Fun.protect
    ~finally:(fun () -> rm_f bad)
    (fun () ->
      let r = run_cmd (Printf.sprintf "%s analyze %s" emcheck bad) in
      let err = String.trim r.err in
      Alcotest.(check bool) "strict: nonzero exit" true (r.code <> 0);
      Alcotest.(check bool) ("strict: one diagnostic naming line 2: " ^ err) true
        (String.starts_with ~prefix:(Printf.sprintf "emcheck: %s:2: non-finite" bad) err
        && not (String.contains err '\n'));
      let r = run_cmd (Printf.sprintf "%s analyze %s --keep-going" emcheck bad) in
      let out = String.split_on_char '\n' r.out in
      Alcotest.(check int) "keep-going: exit 1 (the skipped line is an error)" 1 r.code;
      Alcotest.(check bool) "keep-going: line 2 skipped" true
        (List.mem (Printf.sprintf "%s:2: skipped: non-finite numeric literal \"1e999\"" bad) out);
      Alcotest.(check bool) "keep-going: the rest is solved" true
        (List.exists (String.starts_with ~prefix:"DC solve: ") out))

let test_analyze_stages () =
  (* Parse, lint and the DC solve are pipeline stages like the rest: the
     report lists every stage from deck to verdicts, and the trace (so
     the profile too) covers the solve. *)
  let json = tmp_name "stages" ^ ".json" and trace = tmp_name "trace" ^ ".json" in
  Fun.protect
    ~finally:(fun () ->
      rm_f json;
      rm_f trace)
    (fun () ->
      let r =
        run_cmd
          (Printf.sprintf "%s analyze %s --json %s --trace %s" emcheck deck json
             trace)
      in
      Alcotest.(check int) "exit 0" 0 r.code;
      let stages =
        match Ji.list_value (get "stages" (get "flow" (json_of_file json))) with
        | Some l -> l
        | None -> Alcotest.fail "flow.stages is not a list"
      in
      Alcotest.(check (list string))
        "stages in order"
        [ "parse"; "lint"; "solve"; "extract"; "analyze"; "classify" ]
        (List.filter_map
           (fun st -> Option.bind (Ji.member "name" st) Ji.string_value)
           stages);
      Alcotest.(check bool) "solve span traced" true
        (T_obs.contains (read_file trace) {|"name":"solve"|});
      (* The stdout stage lines name the same stages. *)
      let stage_lines =
        List.filter_map
          (fun l ->
            match String.split_on_char ' ' (String.trim l) with
            | name :: _ when T_obs.contains l "s wall" -> Some name
            | _ -> None)
          (String.split_on_char '\n' r.out)
      in
      Alcotest.(check (list string))
        "stage lines"
        [ "parse"; "lint"; "solve"; "extract"; "analyze"; "classify" ]
        stage_lines)

(* A deck without supplies fails lint: explain refuses it the way
   analyze does, in one line naming the failing check. *)
let test_lint_refusal () =
  let lines = String.split_on_char '\n' (read_file deck) in
  let bad = tmp_name "nosupply" ^ ".sp" in
  Out_channel.with_open_text bad (fun oc ->
      output_string oc
        (String.concat "\n"
           (List.filter (fun l -> not (String.starts_with ~prefix:"V" l)) lines)));
  Fun.protect
    ~finally:(fun () -> rm_f bad)
    (fun () ->
      List.iter
        (fun (cmd, args, want_code) ->
          let r = run_cmd (Printf.sprintf "%s %s %s%s" emcheck cmd bad args) in
          let err = String.trim r.err in
          (match want_code with
          | Some c -> Alcotest.(check int) (cmd ^ ": exit code") c r.code
          | None -> Alcotest.(check bool) (cmd ^ ": nonzero exit") true (r.code <> 0));
          Alcotest.(check bool)
            (Printf.sprintf "%s: one line naming no-supply: %S" cmd err)
            true
            (T_obs.contains err "no-supply" && not (String.contains err '\n')))
        [ ("analyze", "", None); ("explain", " 0", Some 2) ])

(* A sample count below 1 is refused before the deck is read: one
   stderr line naming the option, and no stage runs. *)
let test_analyze_samples_floor () =
  let r =
    run_cmd
      (Printf.sprintf "%s analyze %s -t ibm --variation --samples 0" emcheck
         deck)
  in
  let err = String.trim r.err in
  Alcotest.(check bool) "nonzero exit" true (r.code <> 0);
  Alcotest.(check bool)
    (Printf.sprintf "one line naming --samples: %S" err)
    true
    (T_obs.contains err "--samples" && not (String.contains err '\n'));
  Alcotest.(check bool) "no DC solve line" false (T_obs.contains r.out "DC solve:")

(* ---------------------------------------------------------------- *)
(* bench compare: the no-history exit-0 path                         *)

let test_bench_compare_no_history () =
  let out_dir = tmp_name "bench-out" in
  Unix.mkdir out_dir 0o755;
  let verdict = tmp_name "verdict" ^ ".json" in
  Fun.protect
    ~finally:(fun () ->
      rm_f verdict;
      rm_rf out_dir)
    (fun () ->
      let r =
        run_cmd
          (Printf.sprintf "%s compare --out %s --json %s --window 7" bench
             (Filename.quote out_dir) (Filename.quote verdict))
      in
      Alcotest.(check int) "no history yet exits 0" 0 r.code;
      Alcotest.(check bool) "message names the gate state" true
        (T_obs.contains r.out "no history yet");
      let j = json_of_file verdict in
      Alcotest.(check (option bool)) "no_history flag" (Some true)
        (Ji.bool_value (get "no_history" j));
      Alcotest.(check (option bool)) "not regressed" (Some false)
        (Ji.bool_value (get "regressed" j));
      Alcotest.(check (float 0.)) "window actually used" 7. (get_num "window" j);
      match Ji.string_value (get "history" j) with
      | Some h ->
        Alcotest.(check bool) "history path is absolute" false
          (Filename.is_relative h)
      | None -> Alcotest.fail "verdict lacks the history path")

(* ---------------------------------------------------------------- *)
(* the subcommand set                                                *)

(* The COMMANDS section of [--help=plain] lists one subcommand per
   line at a 7-space indent, up to the next unindented heading; a
   retired subcommand is a usage error. *)
let test_subcommand_inventory () =
  let r = run_cmd (emcheck ^ " --help=plain") in
  Alcotest.(check int) "--help exits 0" 0 r.code;
  let rec section = function
    | [] -> []
    | "COMMANDS" :: rest ->
      let rec take = function
        | line :: rest when line = "" || line.[0] = ' ' -> line :: take rest
        | _ -> []
      in
      take rest
    | _ :: rest -> section rest
  in
  let commands =
    section (String.split_on_char '\n' r.out)
    |> List.filter_map (fun line ->
         let n = String.length line in
         if n > 7 && String.sub line 0 7 = "       " && line.[7] <> ' ' then
           match String.split_on_char ' ' (String.sub line 7 (n - 7)) with
           | cmd :: _
             when cmd <> "" && String.for_all (fun c -> c >= 'a' && c <= 'z') cmd ->
             Some cmd
           | _ -> None
         else None)
  in
  Alcotest.(check (list string)) "subcommands"
    [ "analyze"; "explain"; "material"; "verify"; "wire" ]
    (List.sort compare commands);
  List.iter
    (fun gone ->
      let r = run_cmd (Printf.sprintf "%s %s" emcheck gone) in
      Alcotest.(check int) (gone ^ " is a usage error") 124 r.code)
    [ "diff"; "history" ]

(* The telemetry surfaces the flight ring, the report and the folded
   profile replaced: each is a usage error now. *)
let test_retired_telemetry () =
  List.iter
    (fun args ->
      let r = run_cmd (Printf.sprintf "%s %s" emcheck args) in
      Alcotest.(check int) (args ^ " is a usage error") 124 r.code)
    [
      "stats " ^ deck;
      Printf.sprintf "analyze %s --log-level debug" deck;
      Printf.sprintf "analyze %s --log-json log.jsonl" deck;
      Printf.sprintf "analyze %s --profile-format folded" deck;
    ]

(* ---------------------------------------------------------------- *)
(* wire                                                              *)

(* The two-segment wire's whole report, byte for byte: the structure
   listing, the per-segment traditional Blech verdicts and the exact
   test's verdict. *)
let wire_golden =
  "graph: 3 nodes, 2 edges\n\
  \  e0: 0 -> 1  l=10um w=1um h=0.2um j=1e+10A/m2\n\
  \  e1: 1 -> 2  l=20um w=1um h=0.2um j=-5e+09A/m2\n\
   \n\
   segment 0: jl = 0.1000 A/um -> traditional Blech says immortal\n\
   segment 1: jl = 0.1000 A/um -> traditional Blech says immortal\n\
   \n\
   IMMORTAL: max stress 15.275 MPa at node 0 (threshold 41.000 MPa, margin \
   +25.725 MPa)\n\
   2/2 segments immortal\n"

let test_wire_golden () =
  let r = run_cmd (Printf.sprintf "%s wire 10,1,1e10 20,1,-5e9" emcheck) in
  Alcotest.(check int) "exit code" 0 r.code;
  Alcotest.(check string) "stdout" wire_golden r.out

let suites =
  [
    ( "cli.explain",
      [
        case "out-of-range index: one line, exit 2" test_explain_out_of_range;
        case "missing deck: one line, exit 2" test_explain_missing_deck;
        case "malformed deck: one line, exit 2" test_explain_malformed_deck;
      ] );
    ( "cli.analyze",
      [
        case "DC solve line and no residual diagnostic" test_analyze_solver_line;
        case "--json mna object matches the solve" test_analyze_mna_object;
        case "hostile solves end in one diagnostic" test_analyze_hostile_solve;
        case "overflowing value: a line error" test_analyze_non_finite_value;
        case "parse, lint and solve are pipeline stages" test_analyze_stages;
        case "lint refusal names the failing check" test_lint_refusal;
        case "--samples below 1 refused before the deck" test_analyze_samples_floor;
      ] );
    ("cli.wire", [ case "two-segment report is byte-identical" test_wire_golden ]);
    ( "cli.bench",
      [ case "compare without history gates nothing" test_bench_compare_no_history ] );
    ( "cli.subcommand_inventory",
      [
        case "help lists exactly the five subcommands" test_subcommand_inventory;
        case "retired telemetry surfaces are usage errors" test_retired_telemetry;
      ] );
  ]

open T_helpers
module Tr = Obs.Trace
module Gg = Pdn.Grid_gen
module Ex = Emflow.Extract
module Flow = Emflow.Em_flow

(* ---------------------------------------------------------------- *)
(* Trace: spans                                                      *)

let test_span_disabled_noop () =
  Alcotest.(check bool) "tracing off by default" false (Tr.enabled ());
  Alcotest.(check int) "with_span is the identity" 42
    (Tr.with_span "x" (fun () -> 42));
  (* An exception still propagates untouched. *)
  match Tr.with_span "x" (fun () -> failwith "boom") with
  | () -> Alcotest.fail "expected raise"
  | exception Failure m -> Alcotest.(check string) "message" "boom" m

let find_span evs name =
  match List.find_opt (fun (e : Tr.event) -> e.Tr.name = name) evs with
  | Some e -> e
  | None -> Alcotest.failf "span %s not recorded" name

let test_span_nesting () =
  let t = Tr.create () in
  let result =
    Tr.with_enabled t (fun () ->
        Tr.with_span "outer" (fun () ->
            Tr.with_span "first" (fun () -> ());
            Tr.with_span "second" (fun () -> 7)))
  in
  Alcotest.(check int) "result passes through" 7 result;
  Alcotest.(check bool) "sink uninstalled afterwards" false (Tr.enabled ());
  let evs = Tr.events t in
  Alcotest.(check int) "three spans" 3 (List.length evs);
  let outer = find_span evs "outer" in
  let first = find_span evs "first" in
  let second = find_span evs "second" in
  Alcotest.(check bool) "outer is a root" true (outer.Tr.parent = None);
  Alcotest.(check bool) "first nested under outer" true
    (first.Tr.parent = Some outer.Tr.id);
  Alcotest.(check bool) "second nested under outer, not first" true
    (second.Tr.parent = Some outer.Tr.id);
  (* Same domain throughout. *)
  List.iter
    (fun (e : Tr.event) ->
      Alcotest.(check int) "one track" outer.Tr.track e.Tr.track)
    evs;
  (* Temporal containment and ordering (the clock is monotonic, so the
     inequalities are exact, not approximate). *)
  let ends (e : Tr.event) = e.Tr.start_us +. e.Tr.dur_us in
  Alcotest.(check bool) "children start after outer" true
    (first.Tr.start_us >= outer.Tr.start_us
    && second.Tr.start_us >= outer.Tr.start_us);
  Alcotest.(check bool) "children end before outer" true
    (ends first <= ends outer && ends second <= ends outer);
  Alcotest.(check bool) "siblings ordered" true
    (second.Tr.start_us >= ends first);
  (* [events] sorts by start time: outer comes first. *)
  match evs with
  | e :: _ -> Alcotest.(check string) "outer sorted first" "outer" e.Tr.name
  | [] -> assert false

let test_span_error_flag () =
  let t = Tr.create () in
  (match
     Tr.with_enabled t (fun () ->
         Tr.with_span "outer" (fun () ->
             Tr.with_span "boom" (fun () -> failwith "kaput")))
   with
  | () -> Alcotest.fail "expected raise"
  | exception Failure _ -> ());
  let evs = Tr.events t in
  Alcotest.(check int) "both spans recorded" 2 (List.length evs);
  Alcotest.(check bool) "inner flagged" true (find_span evs "boom").Tr.error;
  (* The outer span did not catch, so it raised too. *)
  Alcotest.(check bool) "outer flagged" true (find_span evs "outer").Tr.error

let test_parallel_tracks () =
  let t = Tr.create () in
  let doubled =
    Tr.with_enabled t (fun () ->
        Numerics.Parallel.map ~jobs:4 (fun x -> 2 * x) (Array.init 16 Fun.id))
  in
  Alcotest.(check bool) "map result intact" true
    (Array.for_all2 ( = ) doubled (Array.init 16 (fun i -> 2 * i)));
  let chunks =
    List.filter (fun (e : Tr.event) -> e.Tr.name = "parallel.chunk") (Tr.events t)
  in
  Alcotest.(check int) "one chunk span per worker" 4 (List.length chunks);
  let tracks =
    List.sort_uniq compare (List.map (fun (e : Tr.event) -> e.Tr.track) chunks)
  in
  Alcotest.(check int) "workers on distinct tracks" 4 (List.length tracks);
  let names = List.map snd (Tr.track_names t) in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " track named") true (List.mem n names))
    [ "main"; "worker-1"; "worker-2"; "worker-3" ]

(* ---------------------------------------------------------------- *)
(* Trace: Chrome export                                              *)

(* Minimal JSON acceptor — syntax validation only, enough to catch a
   malformed exporter (bad escaping, trailing commas, bare NaN) without
   an external parser dependency. *)
let json_accepts s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let next () =
    match peek () with
    | Some c ->
      incr pos;
      c
    | None -> raise Exit
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      incr pos;
      skip_ws ()
    | _ -> ()
  in
  let expect c = if next () <> c then raise Exit in
  let literal lit = String.iter expect lit in
  let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
  let string_lit () =
    expect '"';
    let rec go () =
      match next () with
      | '"' -> ()
      | '\\' -> begin
        match next () with
        | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' -> go ()
        | 'u' ->
          for _ = 1 to 4 do
            if not (is_hex (next ())) then raise Exit
          done;
          go ()
        | _ -> raise Exit
      end
      | c when Char.code c < 0x20 -> raise Exit
      | _ -> go ()
    in
    go ()
  in
  let number () =
    let digits () =
      let saw = ref false in
      let rec go () =
        match peek () with
        | Some '0' .. '9' ->
          incr pos;
          saw := true;
          go ()
        | _ -> ()
      in
      go ();
      if not !saw then raise Exit
    in
    if peek () = Some '-' then incr pos;
    digits ();
    if peek () = Some '.' then begin
      incr pos;
      digits ()
    end;
    match peek () with
    | Some ('e' | 'E') ->
      incr pos;
      (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
      digits ()
    | _ -> ()
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> string_lit ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> raise Exit
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then incr pos
    else
      let rec members () =
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match next () with
        | ',' -> members ()
        | '}' -> ()
        | _ -> raise Exit
      in
      members ()
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then incr pos
    else
      let rec elements () =
        value ();
        skip_ws ();
        match next () with
        | ',' -> elements ()
        | ']' -> ()
        | _ -> raise Exit
      in
      elements ()
  in
  match
    value ();
    skip_ws ()
  with
  | () -> !pos = n
  | exception Exit -> false

let contains hay needle =
  let n = String.length needle in
  let found = ref false in
  for i = 0 to String.length hay - n do
    if String.sub hay i n = needle then found := true
  done;
  !found

let test_json_acceptor_sanity () =
  List.iter
    (fun s -> Alcotest.(check bool) ("accepts " ^ s) true (json_accepts s))
    [
      "{}"; "[]"; {|{"a":[1,-2.5e3,true,null,"x\né"]}|}; "3"; {|"s"|};
    ];
  List.iter
    (fun s -> Alcotest.(check bool) ("rejects " ^ s) false (json_accepts s))
    [ ""; "{"; "[1,]"; {|{"a":}|}; "NaN"; "[1] trailing"; {|{"a" 1}|} ]

let test_chrome_export () =
  let t = Tr.create () in
  (match
     Tr.with_enabled t (fun () ->
         Tr.with_span
           ~attrs:
             [
               ("structure", Tr.Int 3);
               ("note", Tr.String "quote\" backslash\\ newline\n");
               ("ratio", Tr.Float 0.5);
               ("ok", Tr.Bool true);
             ]
           "outer"
           (fun () -> Tr.with_span "inner" (fun () -> failwith "x")))
   with
  | () -> Alcotest.fail "expected raise"
  | exception Failure _ -> ());
  let json = Tr.to_chrome_json t in
  Alcotest.(check bool) "well-formed JSON" true (json_accepts json);
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains json needle))
    [
      {|"traceEvents"|}; {|"displayTimeUnit"|}; {|"ph":"X"|}; {|"ph":"M"|};
      {|"name":"outer"|}; {|"name":"inner"|}; {|"structure":3|};
      {|"error":true|}; "quote\\\" backslash\\\\ newline\\n";
    ]

let test_chrome_export_hostile_names () =
  (* Span and attribute names under attack: multibyte unicode, control
     characters, quotes/backslashes, and invalid UTF-8 (lone
     continuation byte, truncated sequence, 0xFF). The export must stay
     syntactically valid JSON with invalid bytes replaced by U+FFFD. *)
  let t = Tr.create () in
  Tr.with_enabled t (fun () ->
      Tr.with_span "λ→∞ 界" (fun () -> ());
      Tr.with_span "ctrl\x01\x1ftab\tquote\"back\\" (fun () -> ());
      Tr.with_span "bad\x80utf\xe2\x82trunc\xff"
        ~attrs:
          [ ("key \"q\" \x9f", Tr.String "va\xc0lue\n"); ("μ", Tr.Int 1) ]
        (fun () -> ()));
  let json = Tr.to_chrome_json t in
  Alcotest.(check bool) "hostile export is well-formed JSON" true
    (json_accepts json);
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        ("contains " ^ String.escaped needle)
        true (contains json needle))
    [
      (* Valid multibyte sequences survive untouched... *)
      "λ→∞ 界"; "μ";
      (* ...control characters become \u escapes... *)
      {|ctrl\u0001\u001ftab\tquote\"back\\|};
      (* ...and each invalid byte is replaced by U+FFFD. *)
      (* The truncated 3-byte sequence \xe2\x82 yields one replacement
         per invalid byte. *)
      "bad\xef\xbf\xbdutf\xef\xbf\xbd\xef\xbf\xbdtrunc\xef\xbf\xbd";
      "va\xef\xbf\xbdlue\\n";
    ];
  (* No raw invalid byte leaks through. *)
  Alcotest.(check bool) "no raw 0xFF" false (String.contains json '\xff')

(* ---------------------------------------------------------------- *)
(* Log                                                               *)

module Lg = Obs.Log
module Fl = Obs.Flight

let test_log_disabled_noop () =
  Fl.set_enabled false;
  let ran = ref false in
  Lg.info (fun () ->
      ran := true;
      ("should not run", []));
  Alcotest.(check bool) "thunk never runs with the ring disarmed" false !ran

let test_log_lands_in_ring () =
  Fl.clear ();
  Fl.with_enabled true (fun () ->
      Lg.warn (fun () ->
          ("ringed record", [ ("n", Tr.Int 3); ("s", Tr.String "v") ])));
  (match Fl.events () with
  | [ e ] ->
    Alcotest.(check string) "message" "ringed record" e.Fl.fl_name;
    Alcotest.(check string) "kind" "log" e.Fl.fl_kind;
    Alcotest.(check string) "level" "warn" e.Fl.fl_level;
    Alcotest.(check int) "caller's lane" (Tr.track ()) e.Fl.fl_track;
    Alcotest.(check (list (pair string string)))
      "fields rendered" [ ("n", "3"); ("s", "v") ] e.Fl.fl_detail
  | es -> Alcotest.failf "expected 1 flight event, got %d" (List.length es));
  Fl.clear ()

(* ---------------------------------------------------------------- *)
(* Flight recorder                                                   *)

let test_flight_disabled_noop () =
  Fl.set_enabled false;
  Fl.clear ();
  Fl.record ~track:0 ~kind:"log" ~level:"info" ~name:"dropped" [];
  Alcotest.(check int) "disabled record drops" 0 (List.length (Fl.events ()))

let test_flight_wraparound () =
  Fl.clear ();
  let extra = 50 in
  Fl.with_enabled true (fun () ->
      for i = 1 to Fl.capacity + extra do
        Fl.record ~track:0 ~kind:"log" ~level:"info" ~name:(string_of_int i) []
      done);
  let evs = Fl.events () in
  Alcotest.(check int) "ring keeps exactly capacity" Fl.capacity
    (List.length evs);
  (match evs with
  | first :: _ ->
    Alcotest.(check string) "oldest surviving event" (string_of_int (extra + 1))
      first.Fl.fl_name
  | [] -> assert false);
  let last = List.nth evs (List.length evs - 1) in
  Alcotest.(check string) "newest event"
    (string_of_int (Fl.capacity + extra))
    last.Fl.fl_name;
  Fl.clear ();
  Alcotest.(check int) "clear drops everything" 0 (List.length (Fl.events ()))

let test_flight_captures_spans_and_low_logs () =
  Fl.clear ();
  (* No trace sink: the ring still sees both the span and the debug
     record. *)
  Fl.with_enabled true (fun () ->
      Tr.with_span "ringed" ~attrs:[ ("k", Tr.Int 7) ] (fun () ->
          Lg.debug (fun () -> ("a debug record", []))));
  let evs = Fl.events () in
  let find name =
    match List.find_opt (fun e -> e.Fl.fl_name = name) evs with
    | Some e -> e
    | None -> Alcotest.failf "flight event %s missing" name
  in
  let span = find "ringed" in
  Alcotest.(check string) "span kind" "span" span.Fl.fl_kind;
  Alcotest.(check (option string)) "span attr rendered" (Some "7")
    (List.assoc_opt "k" span.Fl.fl_detail);
  let low = find "a debug record" in
  Alcotest.(check string) "log kind" "log" low.Fl.fl_kind;
  Alcotest.(check string) "level preserved" "debug" low.Fl.fl_level;
  Fl.clear ()

let test_flight_dump_json () =
  Fl.clear ();
  Fl.with_enabled true (fun () ->
      Fl.record ~track:0 ~kind:"log" ~level:"warn" ~name:"hostile \xff name"
        [ ("k", "v\"q") ];
      Fl.record ~track:0 ~kind:"span" ~level:"span" ~name:"s" []);
  let path = Filename.temp_file "t_obs_flight" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> Fl.dump_json oc);
      let ic = open_in path in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let lines =
        String.split_on_char '\n' text
        |> List.filter (fun l -> String.trim l <> "")
      in
      Alcotest.(check int) "one line per event" 2 (List.length lines);
      List.iter
        (fun l ->
          Alcotest.(check bool) "dump line is valid JSON" true (json_accepts l))
        lines;
      Alcotest.(check bool) "hostile byte sanitized" true
        (contains text "hostile \xef\xbf\xbd name"));
  Fl.clear ()

(* ---------------------------------------------------------------- *)
(* GC profiling on spans                                             *)

let sink_of_array a = Array.fold_left ( +. ) 0. a

let test_span_gc_attribution () =
  let t = Tr.create () in
  let acc =
    Tr.with_enabled t (fun () ->
        Tr.with_span "alloc-heavy" (fun () ->
            (* ~200k words of float arrays: enough to force minor
               allocation whatever the GC settings. *)
            let acc = ref 0. in
            for _ = 1 to 100 do
              acc := !acc +. sink_of_array (Array.make 2048 1.)
            done;
            !acc))
  in
  Alcotest.(check bool) "result intact" true (acc = 204800.);
  let e = find_span (Tr.events t) "alloc-heavy" in
  Alcotest.(check bool) "minor words counted" true (e.Tr.gc_minor_words > 0.);
  Alcotest.(check bool) "allocated_words positive" true
    (Tr.allocated_words e > 0.);
  Alcotest.(check bool) "gc counters non-negative" true
    (e.Tr.gc_minor_collections >= 0 && e.Tr.gc_major_collections >= 0);
  (* And the exporter surfaces them as args. *)
  let json = Tr.to_chrome_json t in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("export contains " ^ needle) true
        (contains json needle))
    [ {|"gc_minor_words"|}; {|"gc_minor_collections"|} ]

(* ---------------------------------------------------------------- *)
(* Equivalence: telemetry on leaves analysis results bit-identical    *)

let small_grid () =
  Gg.generate
    {
      Gg.tech = Pdn.Tech.ibm_like;
      die_width = 1.5e-3;
      die_height = 1.5e-3;
      stripe_counts = [| 14; 10; 6; 4 |];
      pad_every = 4;
      load_fraction = 0.4;
      current_per_net = 1.0;
      bottom_tap_pitch = None;
      voltage_domains = 1;
      seed = 23L;
    }

(* Baseline computed with all telemetry off; solving the grid once keeps
   the property fast. *)
let equiv_fixture =
  lazy
    (let g = small_grid () in
     let sol = Spice.Mna.solve g.Gg.netlist in
     let compacts = Ex.extract_compact ~tech:g.Gg.tech sol in
     (compacts, Flow.run_on_compact compacts))

let bits = Int64.bits_of_float

(* Node stresses bit for bit and verdict bits, structure by structure. *)
let check_segments_bit_identical (clean : Flow.result) (traced : Flow.result) =
  let stress_bits (r : Flow.result) = Array.map (Array.map bits) r.Flow.node_stress in
  if stress_bits clean <> stress_bits traced then
    Alcotest.fail "node stresses differ";
  if clean.Flow.verdicts <> traced.Flow.verdicts then
    Alcotest.fail "verdict bits differ"

let test_telemetry_equivalence =
  qcheck ~count:8
    "tracing + logging + flight leave analysis results bit-identical"
    QCheck2.Gen.(int_range 1 4)
    (fun jobs ->
      let compacts, clean = Lazy.force equiv_fixture in
      let t = Tr.create () in
      Fl.clear ();
      (* The armed ring is where every log record goes. *)
      let traced =
        Tr.with_enabled t (fun () ->
            Fl.with_enabled true (fun () -> Flow.run_on_compact ~jobs compacts))
      in
      Fl.clear ();
      Alcotest.(check bool) "confusion counts identical" true
        (clean.Flow.counts = traced.Flow.counts);
      check_segments_bit_identical clean traced;
      (* And the run actually got traced: one span per structure. *)
      let structure_spans =
        List.filter (fun (e : Tr.event) -> e.Tr.name = "structure") (Tr.events t)
      in
      Alcotest.(check int) "one span per structure" (List.length compacts)
        (List.length structure_spans);
      List.length compacts = List.length structure_spans)

let suites =
  [
    ( "obs.trace",
      [
        case "disabled is a guarded no-op" test_span_disabled_noop;
        case "nesting, ordering, containment" test_span_nesting;
        case "error flag on raising span" test_span_error_flag;
        case "parallel workers on distinct tracks" test_parallel_tracks;
      ] );
    ( "obs.chrome",
      [
        case "acceptor sanity" test_json_acceptor_sanity;
        case "export is well-formed and complete" test_chrome_export;
        case "hostile names stay valid JSON" test_chrome_export_hostile_names;
      ] );
    ( "obs.log",
      [
        case "disabled never runs the thunk" test_log_disabled_noop;
        case "armed ring receives the record" test_log_lands_in_ring;
      ] );
    ( "obs.flight",
      [
        case "disabled record drops" test_flight_disabled_noop;
        case "ring wraps past capacity" test_flight_wraparound;
        case "captures spans and filtered logs"
          test_flight_captures_spans_and_low_logs;
        case "JSON dump is valid line-by-line" test_flight_dump_json;
      ] );
    ("obs.gc", [ case "span GC deltas attributed" test_span_gc_attribution ]);
    ("obs.equivalence", [ test_telemetry_equivalence ]);
  ]

open T_helpers
module Tr = Obs.Trace
module Mx = Obs.Metrics
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
  Alcotest.(check bool) "outer flagged" true (find_span evs "outer").Tr.error;
  let aggs = Tr.aggregate t in
  let boom = List.find (fun (a : Tr.agg) -> a.Tr.agg_name = "boom") aggs in
  Alcotest.(check int) "aggregate counts the error" 1 boom.Tr.errors

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
  Lg.disable ();
  Fl.set_enabled false;
  Alcotest.(check bool) "no sink installed" false (Lg.enabled ());
  let ran = ref false in
  Lg.info (fun () ->
      ran := true;
      ("should not run", []));
  Alcotest.(check bool) "thunk never runs when all off" false !ran

let log_lines buf =
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l -> String.trim l <> "")

let test_log_level_filter () =
  Fl.set_enabled false;
  let buf = Buffer.create 256 in
  let sink = Lg.create ~min_level:Lg.Warn ~text:(Lg.Buffer buf) () in
  Lg.with_enabled sink (fun () ->
      Lg.debug (fun () -> ("too quiet", []));
      Lg.info (fun () -> ("still too quiet", []));
      Lg.warn (fun () -> ("loud enough", [ ("k", Tr.String "v") ]));
      Lg.error (fun () -> ("very loud", [ ("n", Tr.Int 3) ])));
  Alcotest.(check bool) "sink uninstalled afterwards" false (Lg.enabled ());
  match log_lines buf with
  | [ w; e ] ->
    Alcotest.(check bool) "warn line has level" true (contains w "WARN");
    Alcotest.(check bool) "warn line has message" true
      (contains w "loud enough");
    Alcotest.(check bool) "warn line has field" true (contains w "k=v");
    Alcotest.(check bool) "error line has level" true (contains e "ERROR");
    Alcotest.(check bool) "error line has field" true (contains e "n=3")
  | ls -> Alcotest.failf "expected 2 lines above Warn, got %d" (List.length ls)

let test_log_json_sink () =
  Fl.set_enabled false;
  let buf = Buffer.create 256 in
  let sink = Lg.create ~min_level:Lg.Debug ~json:(Lg.Buffer buf) () in
  Lg.with_enabled sink (fun () ->
      Lg.info (fun () ->
          ( "json record",
            [
              ("f", Tr.Float 0.5); ("b", Tr.Bool true);
              ("s", Tr.String "quote\" \xffbad");
            ] )));
  match log_lines buf with
  | [ line ] ->
    Alcotest.(check bool) "line is valid JSON" true (json_accepts line);
    List.iter
      (fun needle ->
        Alcotest.(check bool)
          ("contains " ^ String.escaped needle)
          true (contains line needle))
      [
        {|"level":"info"|}; {|"msg":"json record"|}; {|"f":0.5|}; {|"b":true|};
        (* Hostile bytes in a field value sanitize, stay valid JSON. *)
        "quote\\\" \xef\xbf\xbdbad";
      ]
  | ls -> Alcotest.failf "expected 1 JSON line, got %d" (List.length ls)

let test_log_span_correlation () =
  Fl.set_enabled false;
  let buf = Buffer.create 256 in
  let jbuf = Buffer.create 256 in
  let sink = Lg.create ~text:(Lg.Buffer buf) ~json:(Lg.Buffer jbuf) () in
  let t = Tr.create () in
  Tr.with_enabled t (fun () ->
      Lg.with_enabled sink (fun () ->
          Tr.with_span "enclosing" (fun () ->
              Lg.info (fun () -> ("from inside", [])));
          Lg.info (fun () -> ("from outside", []))));
  let span_id =
    match Tr.events t with
    | [ e ] -> e.Tr.id
    | es -> Alcotest.failf "expected 1 span, got %d" (List.length es)
  in
  (match log_lines buf with
  | [ inside; outside ] ->
    Alcotest.(check bool) "inside stamped with span id" true
      (contains inside (Printf.sprintf "(span %d)" span_id));
    Alcotest.(check bool) "outside has no span stamp" false
      (contains outside "(span ")
  | ls -> Alcotest.failf "expected 2 text lines, got %d" (List.length ls));
  match log_lines jbuf with
  | [ inside; outside ] ->
    Alcotest.(check bool) "json inside has span" true
      (contains inside (Printf.sprintf {|"span":%d|} span_id));
    Alcotest.(check bool) "json outside omits span" false
      (contains outside {|"span":|})
  | ls -> Alcotest.failf "expected 2 JSON lines, got %d" (List.length ls)

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
  (* No trace sink, and a log sink that filters everything below Error:
     the ring still sees both the span and the debug record. *)
  let sink = Lg.create ~min_level:Lg.Error () in
  Fl.with_enabled true (fun () ->
      Lg.with_enabled sink (fun () ->
          Tr.with_span "ringed" ~attrs:[ ("k", Tr.Int 7) ] (fun () ->
              Lg.debug (fun () -> ("below the sink level", [])))));
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
  let low = find "below the sink level" in
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
  (* The aggregate rolls the same numbers up. *)
  let agg =
    List.find (fun (a : Tr.agg) -> a.Tr.agg_name = "alloc-heavy") (Tr.aggregate t)
  in
  Alcotest.(check bool) "aggregate allocation positive" true
    (agg.Tr.total_allocated_words > 0.);
  (* And the exporter surfaces them as args. *)
  let json = Tr.to_chrome_json t in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("export contains " ^ needle) true
        (contains json needle))
    [ {|"gc_minor_words"|}; {|"gc_minor_collections"|} ]

(* ---------------------------------------------------------------- *)
(* Metrics                                                           *)

let test_counter_basics () =
  let r = Mx.create () in
  let c = Mx.counter ~registry:r ~help:"h" "t_obs_c_total" in
  Mx.inc c;
  Alcotest.(check int) "disabled inc is a no-op" 0 (Mx.counter_value c);
  Mx.with_enabled true (fun () ->
      Mx.inc c;
      Mx.inc_by c 4;
      Mx.inc_by c (-3));
  Alcotest.(check int) "inc + inc_by, negative ignored" 5 (Mx.counter_value c);
  (* Same (name, labels) returns the same handle. *)
  let c' = Mx.counter ~registry:r ~help:"h" "t_obs_c_total" in
  Mx.with_enabled true (fun () -> Mx.inc c');
  Alcotest.(check int) "idempotent registration" 6 (Mx.counter_value c);
  (* Same name as a different kind is a registration error. *)
  check_raises_invalid "kind mismatch" (fun () ->
      Mx.gauge ~registry:r ~help:"h" "t_obs_c_total")

let test_gauge_basics () =
  let r = Mx.create () in
  let g = Mx.gauge ~registry:r ~help:"h" "t_obs_g" in
  Mx.set_gauge g 3.5;
  Alcotest.(check (float 0.)) "disabled set is a no-op" 0. (Mx.gauge_value g);
  Mx.with_enabled true (fun () -> Mx.set_gauge g 3.5);
  Alcotest.(check (float 0.)) "set" 3.5 (Mx.gauge_value g)

let test_histogram_buckets () =
  let r = Mx.create () in
  let h =
    Mx.histogram ~registry:r ~buckets:[| 1.; 2.; 5. |] ~help:"h" "t_obs_h"
  in
  Mx.with_enabled true (fun () ->
      List.iter (Mx.observe h) [ 0.5; 1.0; 1.5; 2.0; 5.0; 7.0 ]);
  Alcotest.(check int) "count" 6 (Mx.histogram_count h);
  Alcotest.(check (float 1e-12)) "sum" 17.0 (Mx.histogram_sum h);
  match Mx.snapshot ~registry:r () with
  | [ s ] ->
    (* Upper bounds are inclusive and cumulative: 1.0 lands in le=1. *)
    Alcotest.(check (list (pair (float 0.) int)))
      "cumulative buckets"
      [ (1., 2); (2., 4); (5., 5); (Float.infinity, 6) ]
      s.Mx.s_buckets;
    Alcotest.(check int) "sample count" 6 s.Mx.s_count
  | ss -> Alcotest.failf "expected 1 sample, got %d" (List.length ss)

let test_histogram_bad_buckets () =
  let r = Mx.create () in
  check_raises_invalid "unsorted" (fun () ->
      Mx.histogram ~registry:r ~buckets:[| 2.; 1. |] ~help:"h" "t_obs_bad");
  check_raises_invalid "non-finite" (fun () ->
      Mx.histogram ~registry:r
        ~buckets:[| 1.; Float.infinity |]
        ~help:"h" "t_obs_bad2")

let test_prometheus_exposition () =
  let r = Mx.create () in
  let c =
    Mx.counter ~registry:r
      ~labels:[ ("verdict", {|a"b\c|} ^ "\nd") ]
      ~help:"Help with \\ backslash\nand newline" "t_obs_esc_total"
  in
  let h =
    Mx.histogram ~registry:r ~buckets:[| 1.; 2.; 5. |] ~help:"lat" "t_obs_h"
  in
  Mx.with_enabled true (fun () ->
      Mx.inc c;
      List.iter (Mx.observe h) [ 0.5; 1.0; 1.5; 2.0; 5.0; 7.0 ]);
  let text = Mx.to_prometheus ~registry:r () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ String.escaped needle) true
        (contains text needle))
    [
      "# TYPE t_obs_esc_total counter";
      "# HELP t_obs_esc_total Help with \\\\ backslash\\nand newline";
      {|t_obs_esc_total{verdict="a\"b\\c\nd"} 1|};
      "# TYPE t_obs_h histogram";
      {|t_obs_h_bucket{le="1"} 2|};
      {|t_obs_h_bucket{le="2"} 4|};
      {|t_obs_h_bucket{le="5"} 5|};
      {|t_obs_h_bucket{le="+Inf"} 6|};
      "t_obs_h_sum 17";
      "t_obs_h_count 6";
    ];
  (* Exposition ends with a newline (required by the format). *)
  Alcotest.(check bool) "trailing newline" true
    (String.length text > 0 && text.[String.length text - 1] = '\n')

(* ---------------------------------------------------------------- *)
(* Prometheus exposition conformance                                  *)

(* The exposition is line-oriented; comments start with '#'. *)
let expo_sample_lines text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')

let expo_find_line text prefix =
  match
    List.find_opt
      (fun l ->
        String.length l >= String.length prefix
        && String.sub l 0 (String.length prefix) = prefix)
      (expo_sample_lines text)
  with
  | Some l -> l
  | None -> Alcotest.failf "no sample line starting with %S" prefix

let expo_value line =
  match String.rindex_opt line ' ' with
  | Some i -> begin
    let v = String.sub line (i + 1) (String.length line - i - 1) in
    match float_of_string_opt v with
    | Some f -> f
    | None -> Alcotest.failf "unparseable sample value %S in %S" v line
  end
  | None -> Alcotest.failf "no value in sample line %S" line

(* Test-side unescaper for quoted label values: the spec escapes
   backslash, double-quote and newline; everything else passes through
   verbatim. Returns the decoded value of the first quoted string in
   [line]. *)
let expo_label_value line =
  match String.index_opt line '"' with
  | None -> Alcotest.failf "no quoted label value in %S" line
  | Some start ->
    let buf = Buffer.create 16 in
    let n = String.length line in
    let rec go i =
      if i >= n then Alcotest.failf "unterminated label value in %S" line
      else
        match line.[i] with
        | '\\' when i + 1 < n ->
          (match line.[i + 1] with
          | 'n' -> Buffer.add_char buf '\n'
          | '\\' -> Buffer.add_char buf '\\'
          | '"' -> Buffer.add_char buf '"'
          | c -> Alcotest.failf "invalid escape \\%c in %S" c line);
          go (i + 2)
        | '"' -> Buffer.contents buf
        | c ->
          Buffer.add_char buf c;
          go (i + 1)
    in
    go (start + 1)

(* HELP text escapes only backslash and newline (no quoting). *)
let expo_unescape_help s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i < n then
      match s.[i] with
      | '\\' when i + 1 < n && s.[i + 1] = 'n' ->
        Buffer.add_char buf '\n';
        go (i + 2)
      | '\\' when i + 1 < n && s.[i + 1] = '\\' ->
        Buffer.add_char buf '\\';
        go (i + 2)
      | c ->
        Buffer.add_char buf c;
        go (i + 1)
  in
  go 0;
  Buffer.contents buf

let test_prom_inf_bucket_always_present () =
  (* An unobserved histogram still exposes the implicit +Inf overflow
     bucket plus _sum and _count, all zero — scrapers treat a missing
     +Inf series as a format error. *)
  let r = Mx.create () in
  let h =
    Mx.histogram ~registry:r ~buckets:[| 0.5 |] ~help:"empty" "t_obs_conf_e"
  in
  let text = Mx.to_prometheus ~registry:r () in
  Alcotest.(check (float 0.)) "+Inf bucket present at zero" 0.
    (expo_value (expo_find_line text {|t_obs_conf_e_bucket{le="+Inf"}|}));
  Alcotest.(check (float 0.)) "zero sum" 0.
    (expo_value (expo_find_line text "t_obs_conf_e_sum"));
  Alcotest.(check (float 0.)) "zero count" 0.
    (expo_value (expo_find_line text "t_obs_conf_e_count"));
  (* Still there, and consistent, once observed. *)
  Mx.with_enabled true (fun () -> Mx.observe h 9.);
  let text = Mx.to_prometheus ~registry:r () in
  Alcotest.(check (float 0.)) "overflow observation lands in +Inf" 1.
    (expo_value (expo_find_line text {|t_obs_conf_e_bucket{le="+Inf"}|}))

let test_prom_sum_count_consistency =
  qcheck ~count:50 "exposition _sum/_count agree with the observations"
    QCheck2.Gen.(list_size (int_range 0 40) (float_range 0. 10.))
    (fun obs ->
      let r = Mx.create () in
      let h =
        Mx.histogram ~registry:r ~buckets:[| 1.; 2.; 5. |] ~help:"c"
          "t_obs_conf_h"
      in
      Mx.with_enabled true (fun () -> List.iter (Mx.observe h) obs);
      let text = Mx.to_prometheus ~registry:r () in
      let bucket le =
        expo_value
          (expo_find_line text
             (Printf.sprintf {|t_obs_conf_h_bucket{le="%s"}|} le))
      in
      let count = expo_value (expo_find_line text "t_obs_conf_h_count") in
      let sum = expo_value (expo_find_line text "t_obs_conf_h_sum") in
      (* _count equals the +Inf cumulative bucket equals the number of
         observations; _sum equals their total; cumulative buckets are
         monotone in le. *)
      Alcotest.(check (float 0.)) "count = observations"
        (float_of_int (List.length obs))
        count;
      Alcotest.(check (float 0.)) "+Inf bucket = count" count (bucket "+Inf");
      check_close ~rtol:1e-9 "sum matches" (List.fold_left ( +. ) 0. obs) sum;
      let cumulative = List.map bucket [ "1"; "2"; "5"; "+Inf" ] in
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      Alcotest.(check bool) "buckets cumulative-monotone" true
        (monotone cumulative);
      true)

let test_prom_help_type_escaping () =
  let help = "line one\nline \\ two\\n not an escape" in
  let r = Mx.create () in
  ignore (Mx.counter ~registry:r ~help "t_obs_conf_help_total");
  let text = Mx.to_prometheus ~registry:r () in
  let help_line =
    match
      List.find_opt
        (fun l ->
          String.length l >= 7 && String.sub l 0 7 = "# HELP ")
        (String.split_on_char '\n' text)
    with
    | Some l -> l
    | None -> Alcotest.fail "no HELP line"
  in
  (* "# HELP <name> <escaped help>" — the payload must unescape back to
     the original, multibyte-newline-and-backslash text included. *)
  let payload =
    let prefix = "# HELP t_obs_conf_help_total " in
    Alcotest.(check bool) "HELP names the metric" true
      (String.length help_line > String.length prefix
      && String.sub help_line 0 (String.length prefix) = prefix);
    String.sub help_line (String.length prefix)
      (String.length help_line - String.length prefix)
  in
  Alcotest.(check bool) "escaped HELP is one line" false
    (String.contains payload '\n');
  Alcotest.(check string) "HELP round-trips" help
    (expo_unescape_help payload);
  Alcotest.(check bool) "TYPE line present" true
    (contains text "# TYPE t_obs_conf_help_total counter")

let gen_hostile_label =
  (* Favor the characters the escaper must handle. *)
  QCheck2.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'z'; ' '; '"'; '\\'; '\n'; '{'; '}'; '=' ])
      (int_range 0 24))

let test_prom_label_roundtrip =
  qcheck ~count:100 "label values escape and unescape to the original"
    gen_hostile_label
    (fun value ->
      let r = Mx.create () in
      let c =
        Mx.counter ~registry:r
          ~labels:[ ("verdict", value) ]
          ~help:"h" "t_obs_conf_lbl_total"
      in
      Mx.with_enabled true (fun () -> Mx.inc c);
      let text = Mx.to_prometheus ~registry:r () in
      let line = expo_find_line text "t_obs_conf_lbl_total{" in
      (* The sample line must be a single physical line whose decoded
         label value equals what was registered. *)
      Alcotest.(check string) "round-trip" value (expo_label_value line);
      Alcotest.(check (float 0.)) "value survives the labels" 1.
        (expo_value line);
      true)

let test_metrics_json () =
  let r = Mx.create () in
  let h = Mx.histogram ~registry:r ~buckets:[| 1. |] ~help:"h" "t_obs_jh" in
  Mx.with_enabled true (fun () -> Mx.observe h 0.5);
  let json =
    Emflow.Json_out.to_string (Emflow.Json_out.of_metrics (Mx.snapshot ~registry:r ()))
  in
  Alcotest.(check bool) "valid json" true (json_accepts json);
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains json needle))
    [ {|"name":"t_obs_jh"|}; {|"kind":"histogram"|}; {|"le":"+Inf"|}; {|"count":1|} ]

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
    "tracing + metrics + logging + flight leave analysis results bit-identical"
    QCheck2.Gen.(int_range 1 4)
    (fun jobs ->
      let compacts, clean = Lazy.force equiv_fixture in
      let t = Tr.create () in
      let sink =
        Lg.create ~min_level:Lg.Debug
          ~text:(Lg.Buffer (Buffer.create 4096))
          ~json:(Lg.Buffer (Buffer.create 4096))
          ()
      in
      Fl.clear ();
      let traced =
        Mx.with_enabled true (fun () ->
            Tr.with_enabled t (fun () ->
                Lg.with_enabled sink (fun () ->
                    Fl.with_enabled true (fun () ->
                        Flow.run_on_compact ~jobs compacts))))
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
        case "level filtering and text format" test_log_level_filter;
        case "JSON sink emits valid lines" test_log_json_sink;
        case "records correlate with the open span" test_log_span_correlation;
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
    ( "obs.metrics",
      [
        case "counter gating and idempotence" test_counter_basics;
        case "gauge gating" test_gauge_basics;
        case "histogram bucket boundaries" test_histogram_buckets;
        case "histogram rejects bad bounds" test_histogram_bad_buckets;
        case "prometheus exposition and escaping" test_prometheus_exposition;
        case "metrics JSON snapshot" test_metrics_json;
      ] );
    ( "obs.prometheus",
      [
        case "+Inf bucket always present" test_prom_inf_bucket_always_present;
        test_prom_sum_count_consistency;
        case "HELP/TYPE escaping round-trips" test_prom_help_type_escaping;
        test_prom_label_roundtrip;
      ] );
    ("obs.equivalence", [ test_telemetry_equivalence ]);
  ]

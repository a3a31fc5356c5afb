open T_helpers
module N = Spice.Netlist
module P = Spice.Parser
module Ibm = Spice.Ibm_format
module Mna = Spice.Mna

(* ---------------------------------------------------------------- *)
(* Netlist builder                                                   *)

let test_builder_interning () =
  let b = N.Builder.create () in
  let a = N.Builder.node b "n1_0_0" in
  let a' = N.Builder.node b "n1_0_0" in
  let c = N.Builder.node b "n1_5_0" in
  Alcotest.(check int) "idempotent" a a';
  Alcotest.(check bool) "distinct" true (a <> c);
  Alcotest.(check int) "count" 2 (N.Builder.num_nodes b)

let test_builder_elements () =
  let b = N.Builder.create ~title:"t" () in
  N.Builder.add_resistor b "a" "b" 2.5;
  N.Builder.add_current_source b "a" "0" 1e-3;
  N.Builder.add_voltage_source b "c" "0" 1.8;
  let net = N.Builder.finish b in
  let s = N.stats net in
  Alcotest.(check int) "nodes" 4 s.N.nodes;
  Alcotest.(check int) "resistors" 1 s.N.resistors;
  Alcotest.(check int) "isrc" 1 s.N.current_sources;
  Alcotest.(check int) "vsrc" 1 s.N.voltage_sources;
  Alcotest.(check bool) "ground detected" true (net.N.ground <> None);
  check_raises_invalid "negative R" (fun () ->
      N.Builder.add_resistor b "a" "b" (-1.))

let test_builder_slices_checked () =
  let b = N.Builder.create () in
  let text = "R7 a b" in
  let a = N.Builder.intern b text 3 1 and c = N.Builder.intern b text 5 1 in
  Alcotest.(check int) "slice interned as its name" a (N.Builder.node b "a");
  check_raises_invalid "slice past the end" (fun () -> ignore (N.Builder.intern b text 5 2));
  check_raises_invalid "negative offset" (fun () -> ignore (N.Builder.intern b text (-1) 1));
  check_raises_invalid "node id past the last" (fun () ->
      N.Builder.add b N.Resistor text ~off:0 ~len:2 ~pos:a ~neg:2 1.);
  check_raises_invalid "negative node id" (fun () ->
      N.Builder.add b N.Current_source text ~off:0 ~len:2 ~pos:(-1) ~neg:c 1.);
  check_raises_invalid "negative resistance" (fun () ->
      N.Builder.add b N.Resistor text ~off:0 ~len:2 ~pos:a ~neg:c (-1.));
  N.Builder.add b N.Resistor text ~off:0 ~len:2 ~pos:a ~neg:c 2.;
  let net = N.Builder.finish b in
  Alcotest.(check int) "only the valid element" 1 (N.num_elements net);
  Alcotest.(check string) "its name" "R7" (N.element_name net 0);
  check_raises_invalid "use after finish" (fun () ->
      N.Builder.add b N.Resistor text ~off:0 ~len:2 ~pos:a ~neg:c 2.)

let test_netlist_roundtrip () =
  let b = N.Builder.create ~title:"roundtrip" () in
  N.Builder.add_resistor b ~name:"R1" "n1_0_0" "n1_100_0" 0.5;
  N.Builder.add_resistor b ~name:"R2" "n1_100_0" "n1_200_0" 0.25;
  N.Builder.add_current_source b ~name:"I1" "n1_100_0" "0" 3e-3;
  N.Builder.add_voltage_source b ~name:"V1" "n1_0_0" "0" 1.8;
  let net = N.Builder.finish b in
  let text = N.to_string net in
  let net' = P.parse_string text in
  let s = N.stats net and s' = N.stats net' in
  Alcotest.(check int) "nodes" s.N.nodes s'.N.nodes;
  Alcotest.(check int) "resistors" s.N.resistors s'.N.resistors;
  Alcotest.(check int) "isrc" s.N.current_sources s'.N.current_sources;
  Alcotest.(check int) "vsrc" s.N.voltage_sources s'.N.voltage_sources;
  (* And the parsed netlist solves identically. *)
  let v = Mna.solve net and v' = Mna.solve net' in
  check_close ~rtol:1e-9 "same solution"
    (Option.get (Mna.node_voltage v "n1_200_0"))
    (Option.get (Mna.node_voltage v' "n1_200_0"))

(* ---------------------------------------------------------------- *)
(* Parser                                                            *)

let test_parse_values () =
  check_close "plain" 42. (P.parse_value "42");
  check_close "sci" 1.5e-3 (P.parse_value "1.5e-3");
  check_close "kilo" 4700. (P.parse_value "4.7k");
  check_close "milli" 0.001 (P.parse_value "1m");
  check_close "meg" 2.2e6 (P.parse_value "2.2MEG");
  check_close "micro" 3e-6 (P.parse_value "3u");
  check_close "nano" 5e-9 (P.parse_value "5n");
  check_close "pico" 7e-12 (P.parse_value "7p");
  check_close "negative" (-0.5) (P.parse_value "-0.5");
  Alcotest.(check bool) "garbage rejected" true
    (match P.parse_value "abc" with
    | exception Failure _ -> true
    | _ -> false)

let test_parse_values_units_and_exponents () =
  (* Engineering suffix with trailing unit text (SPICE ignores the unit
     letters after the scale). *)
  check_close "kilo + unit" 1200. (P.parse_value "1.2ku");
  check_close "milli + amp" 15.6e-3 (P.parse_value "15.6mA");
  check_close "meg + ohm" 3.3e6 (P.parse_value "3.3megohm");
  check_close "mega spelled out" 2e6 (P.parse_value "2mega");
  check_close "unit only" 5. (P.parse_value "5v");
  check_close "unit only, word" 42. (P.parse_value "42ohm");
  (* Signed / [+]-prefixed exponents and mantissas. *)
  check_close "plus exponent" 1000. (P.parse_value "1e+3");
  check_close "plus mantissa and exponent" 20. (P.parse_value "+2e+1");
  check_close "minus exponent with suffix" 1.5e-6 (P.parse_value "1.5e-3m");
  check_close "uppercase exponent" 1000. (P.parse_value "1E+3");
  (* The 'e' of unit text must not be eaten as an exponent. *)
  check_close "unit starting with e" 5. (P.parse_value "5ev");
  (* Still rejected. *)
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "%S rejected" s) true
        (match P.parse_value s with
        | exception Failure _ -> true
        | _ -> false))
    [ "abc"; "1..2"; "5k3"; "1e+"; "3u+"; "" ]

(* ---------------------------------------------------------------- *)
(* Recovery-mode parsing                                             *)

let corrupted_deck =
  "* deck with damage\n\
   R1 n1_0_0 n1_100_0 0.5\n\
   R2 n1_100_0 0 notanumber\n\
   Q9 a b 5\n\
   I1 n1_100_0 0 2m\n\
   R3 n1_100_0 n1_200_0\n\
   V1 n1_0_0 0 1.8\n\
   .end\n"

let test_parse_tolerant_collects_errors () =
  let net, errs = P.parse_string_tolerant corrupted_deck in
  (* The good lines all made it into the netlist... *)
  let s = N.stats net in
  Alcotest.(check int) "resistors" 1 s.N.resistors;
  Alcotest.(check int) "isrc" 1 s.N.current_sources;
  Alcotest.(check int) "vsrc" 1 s.N.voltage_sources;
  (* ...and the bad ones are each one located diagnostic, file order. *)
  Alcotest.(check (list int)) "error lines" [ 3; 4; 6 ]
    (List.map (fun (e : P.line_error) -> e.P.line) errs);
  List.iter2
    (fun (e : P.line_error) fragment ->
      let contains hay needle =
        let n = String.length needle in
        let found = ref false in
        for i = 0 to String.length hay - n do
          if String.sub hay i n = needle then found := true
        done;
        !found
      in
      Alcotest.(check bool)
        (Printf.sprintf "line %d message" e.P.line)
        true
        (contains e.P.message fragment))
    errs
    [ "notanumber"; "unsupported element"; "4 fields" ];
  (* A clean deck reports no errors and parses identically to strict. *)
  let clean = "R1 a b 1k\nV1 a 0 1.8\n" in
  let net_t, errs_t = P.parse_string_tolerant clean in
  Alcotest.(check int) "clean: no errors" 0 (List.length errs_t);
  Alcotest.(check int) "clean: same stats" (N.stats (P.parse_string clean)).N.nodes
    (N.stats net_t).N.nodes

let test_parse_tolerant_budget () =
  (* Exceeding the budget aborts: a wholly-wrong file must fail fast. *)
  let junk = String.concat "\n" (List.init 10 (fun i -> Printf.sprintf "X%d" i)) in
  (match P.parse_string_tolerant ~max_errors:3 junk with
  | exception P.Parse_error { line = 4; _ } -> ()
  | exception P.Parse_error { line; _ } ->
    Alcotest.failf "budget tripped on line %d, expected 4" line
  | _ -> Alcotest.fail "budget must abort the parse");
  (* Exactly at the budget is still tolerated. *)
  let _, errs = P.parse_string_tolerant ~max_errors:10 junk in
  Alcotest.(check int) "all recorded" 10 (List.length errs);
  check_raises_invalid "negative budget" (fun () ->
      ignore (P.parse_string_tolerant ~max_errors:(-1) junk))

let test_parse_tolerant_file () =
  let path = Filename.temp_file "blech" ".sp" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc corrupted_deck;
      close_out oc;
      let net, errs = P.parse_file_tolerant path in
      Alcotest.(check int) "resistors" 1 (N.stats net).N.resistors;
      Alcotest.(check int) "errors" 3 (List.length errs))

let test_parse_basic_netlist () =
  let text =
    "* ibm-style deck\n\
     R1 n1_0_0 n1_100_0 0.5\n\
     r2 n1_100_0 0 1k\n\
     I1 n1_100_0 0 2m\n\
     V1 n1_0_0 0 1.8\n\
     .op\n\
     .end\n"
  in
  let net = P.parse_string text in
  let s = N.stats net in
  Alcotest.(check int) "resistors" 2 s.N.resistors;
  Alcotest.(check int) "isrc" 1 s.N.current_sources;
  Alcotest.(check int) "vsrc" 1 s.N.voltage_sources

let test_parse_errors () =
  (match P.parse_string "R1 a b\n" with
  | exception P.Parse_error { line = 1; _ } -> ()
  | _ -> Alcotest.fail "missing field must fail");
  (match P.parse_string "* ok\nQ1 a b 5\n" with
  | exception P.Parse_error { line = 2; _ } -> ()
  | _ -> Alcotest.fail "unknown element must fail");
  match P.parse_string "R1 a b notanumber\n" with
  | exception P.Parse_error _ -> ()
  | _ -> Alcotest.fail "bad value must fail"

let test_parse_comments_and_whitespace () =
  let net =
    P.parse_string "\n*comment\n   \nR1 a\tb   5 $ trailing comment\n.end\n"
  in
  Alcotest.(check int) "one resistor" 1 (N.stats net).N.resistors

let test_parse_file_roundtrip () =
  let path = Filename.temp_file "blech" ".sp" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let b = N.Builder.create () in
      N.Builder.add_resistor b "x" "y" 3.;
      N.Builder.add_voltage_source b "x" "0" 1.;
      let net = N.Builder.finish b in
      let oc = open_out path in
      N.output oc net;
      close_out oc;
      let net' = P.parse_file path in
      Alcotest.(check int) "resistors" 1 (N.stats net').N.resistors)

(* ---------------------------------------------------------------- *)
(* Scanner against the old line parser                               *)

let pick rng a = a.(Numerics.Rng.int rng (Array.length a))

(* A random literal: sign, digits, point, exponent (sometimes huge),
   suffix and unit text in random case, now and then a stray blank. *)
let random_value rng =
  let digits n = String.init n (fun _ -> Char.chr (48 + Numerics.Rng.int rng 10)) in
  let mantissa =
    match Numerics.Rng.int rng 12 with
    | 0 | 1 | 2 -> digits (1 + Numerics.Rng.int rng 4)
    | 3 | 4 | 5 | 6 -> digits (1 + Numerics.Rng.int rng 3) ^ "." ^ digits (Numerics.Rng.int rng 12)
    | 7 | 8 -> "." ^ digits (1 + Numerics.Rng.int rng 3)
    | 9 | 10 -> digits (1 + Numerics.Rng.int rng 20)
    | _ -> pick rng [| "."; ""; "1.2.3"; "+-1"; "0x10"; "nan"; "inf"; "1." |]
  in
  let exponent =
    match Numerics.Rng.int rng 10 with
    | 0 | 1 | 2 -> pick rng [| "e"; "E" |] ^ pick rng [| ""; "+"; "-" |] ^ digits (1 + Numerics.Rng.int rng 2)
    | 3 -> pick rng [| "e"; "E+" |] ^ pick rng [| "308"; "309"; "999"; "0400"; "22"; "23" |]
    | 4 -> pick rng [| "e-"; "E-" |] ^ pick rng [| "300"; "330"; "22"; "23"; "0005" |]
    | 5 -> pick rng [| "e"; "e+"; "e5e3" |]
    | _ -> ""
  in
  let suffix =
    pick rng
      [| ""; ""; ""; ""; ""; ""; "k"; "K"; "meg"; "MEG"; "Meg"; "m"; "M"; "u"; "n"; "p";
         "f"; "t"; "g"; "ku"; "mA"; "megohm"; "v"; "ev"; "Ohm"; "x1"; "%"; "k3" |]
  in
  pick rng [| ""; ""; ""; "-"; "+" |] ^ mantissa ^ exponent ^ suffix
  ^ pick rng [| ""; ""; ""; ""; "\r"; "\012" |]

let random_node rng =
  pick rng
    [| "0"; "n1_0_0"; "n1_100_0"; "n2_100_0"; "N1_0_0"; "n1_00_0"; "pad"; "X17";
       "n3_1500_280000"; "a\rb"; "n-1_2_3"; "n1_2_3_4"; "n12345678901234567890_1_1" |]

let random_line rng i =
  let sep () = pick rng [| " "; " "; " "; "\t"; "  "; " \t "; " "; "\t"; "\012" |] in
  let letter = pick rng [| "R"; "r"; "R"; "R"; "I"; "i"; "I"; "V"; "v"; "V"; "X" |] in
  let fields =
    [ letter ^ string_of_int i; random_node rng; random_node rng; random_value rng ]
  in
  let fields =
    match Numerics.Rng.int rng 20 with
    | 0 -> List.tl fields
    | 1 -> fields @ [ "extra" ]
    | _ -> fields
  in
  let line =
    pick rng [| ""; ""; " "; "\t"; "\r" |] ^ String.concat (sep ()) fields
    ^ pick rng [| ""; ""; " "; "\r"; " $ comment"; "$x y z"; " * tail" |]
  in
  match Numerics.Rng.int rng 20 with
  | 0 -> "* comment " ^ line
  | 1 -> ".op"
  | 2 -> pick rng [| ""; "   "; "\r"; "\t\012" |]
  | 3 -> "$ " ^ line
  | 4 -> "  .END"
  | _ -> line

let random_deck seed =
  let rng = Numerics.Rng.create (Int64.of_int (seed + 4242)) in
  String.concat (pick rng [| "\n"; "\n"; "\r\n" |])
    (List.init (1 + Numerics.Rng.int rng 30) (random_line rng))

let same_netlist (a : N.t) (b : N.t) =
  let bits v = Array.map Int64.bits_of_float v in
  a.N.node_names = b.N.node_names
  && Bytes.equal a.N.kinds b.N.kinds
  && a.N.pos = b.N.pos && a.N.neg = b.N.neg
  && bits a.N.values = bits b.N.values
  && List.init (N.num_elements a) (N.element_name a)
     = List.init (N.num_elements b) (N.element_name b)

(* The oracle accepts an overflowing value that the scanner rejects: on
   a four-field line whose value overflows, the scanner must report a
   non-finite literal, and the rest must match the oracle on the deck
   with those lines blanked. *)
let prop_scanner_matches_oracle seed =
  let deck = random_deck seed in
  let lines = String.split_on_char '\n' deck in
  let overflows line =
    let line = List.hd (String.split_on_char '$' line) in
    match Line_parser.split_fields (String.trim line) with
    | [ name; _; _; value ] when name.[0] <> '*' && name.[0] <> '.' -> (
      match Line_parser.parse_value value with
      | v -> not (Float.is_finite v)
      | exception Failure _ -> false)
    | _ -> false
  in
  let blanked = String.concat "\n" (List.map (fun l -> if overflows l then "" else l) lines) in
  let bad_lines =
    List.concat (List.mapi (fun i l -> if overflows l then [ i + 1 ] else []) lines)
  in
  let net, errs = P.parse_string_tolerant ~max_errors:1000 deck in
  let net', errs' = Line_parser.parse_string_tolerant ~max_errors:1000 blanked in
  let expected =
    List.sort compare
      (List.map (fun (e : P.line_error) -> (e.P.line, e.P.message)) errs'
      @ List.map (fun l -> (l, "non-finite")) bad_lines)
  in
  let got = List.map (fun (e : P.line_error) -> (e.P.line, e.P.message)) errs in
  let messages_agree =
    List.length got = List.length expected
    && List.for_all2
         (fun (l, m) (l', m') ->
           l = l'
           && (m = m'
              || (m' = "non-finite" && String.starts_with ~prefix:"non-finite numeric literal" m)))
         got expected
  in
  let strict_agree =
    match (P.parse_string deck, expected) with
    | net_s, [] -> same_netlist net_s net'
    | _, _ :: _ -> false
    | exception P.Parse_error { line; _ } -> (
      match expected with (l, _) :: _ -> l = line | [] -> false)
  in
  same_netlist net net' && messages_agree && strict_agree

let prop_values_match_oracle seed =
  let rng = Numerics.Rng.create (Int64.of_int seed) in
  List.for_all
    (fun s ->
      match (P.parse_value s, Line_parser.parse_value s) with
      | v, v' -> Int64.bits_of_float v = Int64.bits_of_float v'
      | exception Failure m -> (
        match Line_parser.parse_value s with
        | v' -> (not (Float.is_finite v')) && String.starts_with ~prefix:"non-finite" m
        | exception Failure m' -> m = m')
      | exception _ -> false)
    (List.init 20 (fun _ -> random_value rng))

let mini_grid =
  if Sys.file_exists "../data/mini_grid.sp" then "../data/mini_grid.sp" else "data/mini_grid.sp"

let mini_grid_text = lazy (In_channel.with_open_bin mini_grid In_channel.input_all)

let test_data_decks_match_oracle () =
  Alcotest.(check bool) "mini_grid.sp parses as the oracle does" true
    (same_netlist (P.parse_file mini_grid) (Line_parser.parse_string (Lazy.force mini_grid_text)))

(* Mutation fuzzer over the sample deck: byte flips, truncation, injected
   control bytes, comments and hostile values. The strict scanner returns
   a netlist or a located [Parse_error]; the tolerant one a netlist and
   at most [max_errors] line errors, or the budget error. Nothing else
   may escape. *)
let mutate rng text =
  let text = ref text in
  for _ = 0 to Numerics.Rng.int rng 8 do
    let t = !text in
    let at = Numerics.Rng.int rng (String.length t + 1) in
    let splice piece = String.sub t 0 at ^ piece ^ String.sub t at (String.length t - at) in
    text :=
      match Numerics.Rng.int rng 4 with
      | 0 when at < String.length t ->
        String.mapi (fun i c -> if i = at then Char.chr (Numerics.Rng.int rng 256) else c) t
      | 1 -> String.sub t 0 at
      | 2 -> splice (pick rng [| "\000"; "\r"; "\012"; "\t"; "\n"; " $ c"; "$"; " " |])
      | _ ->
        splice
          (pick rng
             [| " 1e999"; " nan"; " 1e-999"; " 2.5megohm"; " 3ku"; " 1E+400"; " -"; " 5ev";
                " 1e300t"; " inf"; "\nR9 a b 1e999\n"; "\nI9 a 0 -1e999\n" |])
  done;
  !text

let prop_fuzz_mini_grid seed =
  let rng = Numerics.Rng.create (Int64.of_int (seed + 99)) in
  let deck = mutate rng (Lazy.force mini_grid_text) in
  let lines = List.length (String.split_on_char '\n' deck) in
  let max_errors = Numerics.Rng.int rng 6 in
  let strict =
    match P.parse_string deck with
    | _ -> true
    | exception P.Parse_error { line; _ } -> 1 <= line && line <= lines
  in
  let tolerant =
    match P.parse_string_tolerant ~max_errors deck with
    | _, errs ->
      List.length errs <= max_errors
      && List.for_all (fun (e : P.line_error) -> 1 <= e.P.line && e.P.line <= lines) errs
    | exception P.Parse_error { line; message } ->
      String.starts_with ~prefix:"too many malformed lines" message && line <= lines
  in
  strict && tolerant

let test_node_numbering () =
  (* Each element numbers its second node before its first. *)
  let net = P.parse_string "R1 a b 1\nR2 c a 2\n" in
  Alcotest.(check (array string)) "node order" [| "b"; "a"; "c" |] net.N.node_names;
  let b = N.Builder.create () in
  N.Builder.add_resistor b "a" "b" 1.;
  N.Builder.add_resistor b "c" "a" 2.;
  Alcotest.(check (array string)) "builder order" [| "b"; "a"; "c" |]
    (N.Builder.finish b).N.node_names;
  Alcotest.(check (option int)) "find_node" (Some 2) (N.find_node net "c");
  Alcotest.(check (option int)) "unknown node" None (N.find_node net "d")

let test_non_finite_values () =
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "%S rejected" s) true
        (match P.parse_value s with
        | exception Failure m -> String.starts_with ~prefix:"non-finite" m
        | _ -> false))
    [ "1e999"; "-1e999"; "1e300t"; "1E+400meg" ];
  check_close "largest finite" 1e308 (P.parse_value "1e308");
  (match P.parse_string "V1 a 0 1\nR1 a 0 1e999\n" with
  | exception P.Parse_error { line = 2; message } ->
    Alcotest.(check bool) message true (String.starts_with ~prefix:"non-finite" message)
  | _ -> Alcotest.fail "an overflowing value must fail on its line");
  let net, errs = P.parse_string_tolerant "V1 a 0 1\nR1 a 0 1e999\nR2 a 0 2\n" in
  Alcotest.(check (list int)) "skipped line" [ 2 ]
    (List.map (fun (e : P.line_error) -> e.P.line) errs);
  Alcotest.(check int) "kept resistors" 1 (N.stats net).N.resistors

(* ---------------------------------------------------------------- *)
(* IBM format                                                        *)

let test_ibm_codec () =
  let c = { Ibm.layer = 3; x = 1500; y = 280000 } in
  Alcotest.(check string) "encode" "n3_1500_280000" (Ibm.encode c);
  (match Ibm.decode "n3_1500_280000" with
  | Some c' ->
    Alcotest.(check int) "layer" 3 c'.Ibm.layer;
    Alcotest.(check int) "x" 1500 c'.Ibm.x;
    Alcotest.(check int) "y" 280000 c'.Ibm.y
  | None -> Alcotest.fail "decode failed");
  Alcotest.(check bool) "ground" true (Ibm.is_ground "0");
  Alcotest.(check bool) "ground not decoded" true (Ibm.decode "0" = None);
  Alcotest.(check bool) "pad name not decoded" true (Ibm.decode "X17" = None);
  Alcotest.(check bool) "same layer" true (Ibm.same_layer "n2_0_0" "n2_9_9");
  Alcotest.(check bool) "diff layer" false (Ibm.same_layer "n2_0_0" "n3_0_0");
  Alcotest.(check int) "manhattan" 15
    (Ibm.manhattan_distance
       { Ibm.layer = 1; x = 0; y = 5 }
       { Ibm.layer = 1; x = 10; y = 0 })

(* ---------------------------------------------------------------- *)
(* MNA                                                               *)

let divider () =
  (* 1.8V -- R1=1 -- mid -- R2=2 -- gnd: v(mid) = 1.2. *)
  let b = N.Builder.create () in
  N.Builder.add_voltage_source b "top" "0" 1.8;
  N.Builder.add_resistor b ~name:"R1" "top" "mid" 1.;
  N.Builder.add_resistor b ~name:"R2" "mid" "0" 2.;
  N.Builder.finish b

let test_mna_divider () =
  let sol = Mna.solve (divider ()) in
  check_close ~rtol:1e-9 "divider" 1.2 (Option.get (Mna.node_voltage sol "mid"));
  (* Branch current: (1.8 - 1.2)/1 = 0.6 A through R1 (element 1). *)
  check_close ~rtol:1e-9 "branch current" 0.6 (Mna.resistor_current sol 1);
  check_raises_invalid "not a resistor" (fun () ->
      ignore (Mna.resistor_current sol 0))

let test_mna_current_source () =
  (* Current source pulls 1A out of node a through R=2 to the 5V pad:
     v(a) = 5 - 2*1 = 3. *)
  let b = N.Builder.create () in
  N.Builder.add_voltage_source b "p" "0" 5.;
  N.Builder.add_resistor b "p" "a" 2.;
  N.Builder.add_current_source b "a" "0" 1.;
  let sol = Mna.solve (N.Builder.finish b) in
  check_close ~rtol:1e-9 "loaded node" 3. (Option.get (Mna.node_voltage sol "a"))

let test_mna_zero_ohm_short () =
  (* A 0-ohm resistor merges nodes: both sides read the same voltage. *)
  let b = N.Builder.create () in
  N.Builder.add_voltage_source b "p" "0" 1.;
  N.Builder.add_resistor b "p" "a" 1.;
  N.Builder.add_resistor b "a" "b" 0.;
  N.Builder.add_resistor b "b" "0" 1.;
  let sol = Mna.solve (N.Builder.finish b) in
  check_close ~rtol:1e-9 "a" 0.5 (Option.get (Mna.node_voltage sol "a"));
  check_close ~rtol:1e-9 "b" 0.5 (Option.get (Mna.node_voltage sol "b"));
  (* Short current is unobservable and reported as 0. *)
  check_close "short current" 0. (Mna.resistor_current sol 2)

let test_mna_wheatstone () =
  (* Balanced Wheatstone bridge: no current through the bridge resistor. *)
  let b = N.Builder.create () in
  N.Builder.add_voltage_source b "s" "0" 10.;
  N.Builder.add_resistor b ~name:"Ra" "s" "l" 100.;
  N.Builder.add_resistor b ~name:"Rb" "l" "0" 200.;
  N.Builder.add_resistor b ~name:"Rc" "s" "r" 50.;
  N.Builder.add_resistor b ~name:"Rd" "r" "0" 100.;
  N.Builder.add_resistor b ~name:"Rbridge" "l" "r" 10.;
  let sol = Mna.solve (N.Builder.finish b) in
  check_close ~atol:1e-7 "balanced bridge" 0. (Mna.resistor_current sol 5);
  check_close ~rtol:1e-7 "left mid" (10. *. 200. /. 300.)
    (Option.get (Mna.node_voltage sol "l"))

let test_mna_floating_vsource_rejected () =
  let b = N.Builder.create () in
  N.Builder.add_voltage_source b "p" "0" 1.;
  N.Builder.add_resistor b "p" "q" 1.;
  N.Builder.add_resistor b "q" "0" 1.;
  (* x-y island pinned only by a source between two floating nodes. *)
  N.Builder.add_voltage_source b "x" "y" 2.;
  N.Builder.add_resistor b "x" "y" 5.;
  match Mna.solve (N.Builder.finish b) with
  | exception Mna.Unsupported _ -> ()
  | _ -> Alcotest.fail "floating source must be rejected"

let test_mna_stacked_sources () =
  (* V1 pins a to 1V; V2 pins b 0.5V above a -> 1.5V. *)
  let b = N.Builder.create () in
  N.Builder.add_voltage_source b "a" "0" 1.;
  N.Builder.add_voltage_source b "b" "a" 0.5;
  N.Builder.add_resistor b "b" "0" 10.;
  let sol = Mna.solve (N.Builder.finish b) in
  check_close ~rtol:1e-12 "stacked" 1.5 (Option.get (Mna.node_voltage sol "b"))

let test_mna_conflicting_sources () =
  let b = N.Builder.create () in
  N.Builder.add_voltage_source b "a" "0" 1.;
  N.Builder.add_voltage_source b "a" "0" 2.;
  match Mna.solve (N.Builder.finish b) with
  | exception Mna.Unsupported _ -> ()
  | _ -> Alcotest.fail "conflicting sources must be rejected"

let test_mna_isolated_node () =
  (* A node mentioned only via... nothing conducting: parser-level
     netlists can contain such nodes; they read 0V. *)
  let b = N.Builder.create () in
  N.Builder.add_voltage_source b "p" "0" 1.;
  N.Builder.add_resistor b "p" "q" 1.;
  N.Builder.add_resistor b "q" "0" 1.;
  ignore (N.Builder.node b "orphan");
  let sol = Mna.solve (N.Builder.finish b) in
  check_close "orphan at 0" 0. (Option.get (Mna.node_voltage sol "orphan"))

let test_mna_no_reference () =
  let b = N.Builder.create () in
  N.Builder.add_resistor b "a" "b" 1.;
  match Mna.solve (N.Builder.finish b) with
  | exception Mna.Unsupported _ -> ()
  | _ -> Alcotest.fail "no reference must be rejected"

let test_mna_grid_kcl () =
  (* On a small resistive ladder with a known total load, the current
     delivered from the pad equals the total load current. *)
  let b = N.Builder.create () in
  N.Builder.add_voltage_source b "pad" "0" 1.8;
  let prev = ref "pad" in
  for i = 1 to 10 do
    let name = Printf.sprintf "n1_%d_0" (i * 100) in
    N.Builder.add_resistor b !prev name 0.1;
    N.Builder.add_current_source b name "0" 0.01;
    prev := name
  done;
  let sol = Mna.solve (N.Builder.finish b) in
  (* Element 1 is the first ladder resistor: carries all 0.1 A. *)
  check_close ~rtol:1e-9 "total current" 0.1 (Mna.resistor_current sol 1)


(* ---------------------------------------------------------------- *)
(* Checker                                                           *)

module Ck = Spice.Checker

let codes findings = List.map (fun f -> f.Ck.code) findings

let test_checker_clean () =
  let findings = Ck.check (divider ()) in
  Alcotest.(check (list string)) "clean netlist" [] (codes findings)

let test_checker_duplicate () =
  let b = N.Builder.create () in
  N.Builder.add_voltage_source b ~name:"V1" "p" "0" 1.;
  N.Builder.add_resistor b ~name:"R1" "p" "a" 1.;
  N.Builder.add_resistor b ~name:"R1" "a" "0" 1.;
  let findings = Ck.check (N.Builder.finish b) in
  Alcotest.(check bool) "duplicate flagged" true
    (List.mem "duplicate-element" (codes findings))

let test_checker_isolated_and_zero_load () =
  let b = N.Builder.create () in
  N.Builder.add_voltage_source b "p" "0" 1.;
  N.Builder.add_resistor b "p" "0" 1.;
  N.Builder.add_current_source b "dangling" "0" 0.;
  let findings = Ck.check (N.Builder.finish b) in
  let cs = codes findings in
  Alcotest.(check bool) "isolated node" true (List.mem "isolated-node" cs);
  Alcotest.(check bool) "zero load" true (List.mem "zero-current-load" cs)

let test_checker_errors () =
  let b = N.Builder.create () in
  N.Builder.add_current_source b "a" "0" 1e-3;
  let findings = Ck.check (N.Builder.finish b) in
  let errs = codes (Ck.errors findings) in
  Alcotest.(check bool) "no resistors" true (List.mem "no-resistors" errs);
  Alcotest.(check bool) "no supply" true (List.mem "no-supply" errs)

let test_checker_shorts () =
  let b = N.Builder.create () in
  N.Builder.add_voltage_source b "p" "0" 1.;
  N.Builder.add_resistor b "p" "a" 0.;
  N.Builder.add_resistor b "a" "0" 1.;
  let findings = Ck.check (N.Builder.finish b) in
  Alcotest.(check bool) "short summarized" true
    (List.mem "short" (codes findings))


(* Random netlist print/parse fixpoint. *)
let random_netlist seed =
  let rng = Numerics.Rng.create (Int64.of_int (seed + 31)) in
  let b = N.Builder.create ~title:"random" () in
  let n_nodes = 3 + Numerics.Rng.int rng 10 in
  let node i =
    if i = 0 then "0"
    else if i mod 2 = 0 then Printf.sprintf "n%d_%d_%d" (1 + (i mod 3)) (i * 100) (i * 7)
    else Printf.sprintf "X%d" i
  in
  N.Builder.add_voltage_source b (node 1) "0" 1.8;
  for _ = 1 to 5 + Numerics.Rng.int rng 20 do
    let a = Numerics.Rng.int rng n_nodes in
    let c = (a + 1 + Numerics.Rng.int rng (n_nodes - 1)) mod n_nodes in
    match Numerics.Rng.int rng 3 with
    | 0 | 1 ->
      N.Builder.add_resistor b (node a) (node c)
        (Numerics.Rng.uniform rng 1e-3 1e3)
    | _ ->
      N.Builder.add_current_source b (node a) (node c)
        (Numerics.Rng.uniform rng (-1e-2) 1e-2)
  done;
  N.Builder.finish b

let prop_print_parse_fixpoint seed =
  let net = random_netlist seed in
  let text = N.to_string net in
  let reparsed = P.parse_string ~title:"random" text in
  String.equal text (N.to_string reparsed)


(* Independent oracle for the direct solve: Jacobi-CG at a tight
   tolerance on the same assembled system, mapped back to nodes. *)
let cg_voltages net =
  let sys = Mna.assemble net in
  let x = (Numerics.Cg.solve ~tol:1e-13 sys.Mna.matrix sys.Mna.rhs).Numerics.Cg.x in
  Array.mapi
    (fun v r -> if r >= 0 then x.(r) else sys.Mna.fixed.(v))
    sys.Mna.row_of_node

let test_mna_cholesky_matches_cg () =
  (* The LDL^T solve and the CG oracle give the same voltages. *)
  let b = N.Builder.create () in
  let rng = Numerics.Rng.create 83L in
  N.Builder.add_voltage_source b "pad" "0" 1.8;
  let name k = if k = 0 then "pad" else Printf.sprintf "m%d" k in
  for i = 1 to 60 do
    (* Random attachment keeps the network connected to the pad. *)
    N.Builder.add_resistor b (name (Numerics.Rng.int rng i)) (name i)
      (0.05 +. Numerics.Rng.float rng 0.5);
    if i mod 3 = 0 then
      N.Builder.add_current_source b (name i) "0"
        (Numerics.Rng.float rng 1e-3)
  done;
  (* A couple of mesh chords. *)
  N.Builder.add_resistor b (name 5) (name 40) 0.3;
  N.Builder.add_resistor b (name 12) (name 55) 0.2;
  let net = N.Builder.finish b in
  let direct = Mna.solve net in
  Alcotest.(check bool) "direct residual tiny" true
    (direct.Mna.residual < 1e-12);
  Alcotest.(check int) "direct reports 0 iterations" 0
    direct.Mna.cg_iterations;
  Alcotest.(check int) "free nodes" 60 direct.Mna.free_nodes;
  check_array_close ~rtol:1e-8 ~atol:1e-11 "voltages agree"
    (cg_voltages net) direct.Mna.voltages

(* A resistor mesh over a rows x cols grid with everything the decks
   carry: chords, parallel resistors, zero-ohm shorts, pads and loads.
   The grid keeps it connected to the pads. *)
let random_mesh seed =
  let rng = Numerics.Rng.create (Int64.of_int (seed + 977)) in
  let rows = 3 + Numerics.Rng.int rng 6 and cols = 3 + Numerics.Rng.int rng 6 in
  let node r c = Printf.sprintf "n1_%d_%d" (r * 100) (c * 100) in
  let random_node () =
    node (Numerics.Rng.int rng rows) (Numerics.Rng.int rng cols)
  in
  let ohms () = 0.01 +. Numerics.Rng.float rng 1. in
  let b = N.Builder.create ~title:"mesh" () in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then N.Builder.add_resistor b (node r c) (node r (c + 1)) (ohms ());
      if r + 1 < rows then N.Builder.add_resistor b (node r c) (node (r + 1) c) (ohms ())
    done
  done;
  for _ = 1 to Numerics.Rng.int rng (rows * cols / 2) do
    let a = random_node () and z = random_node () in
    if a <> z then N.Builder.add_resistor b a z (ohms ())
  done;
  (* Parallel resistors on grid edges. *)
  for _ = 1 to Numerics.Rng.int rng 4 do
    let r = Numerics.Rng.int rng rows and c = Numerics.Rng.int rng (cols - 1) in
    N.Builder.add_resistor b (node r c) (node r (c + 1)) (ohms ())
  done;
  (* Zero-ohm shorts between vertical neighbours. *)
  for _ = 1 to Numerics.Rng.int rng 3 do
    let r = Numerics.Rng.int rng (rows - 1) and c = Numerics.Rng.int rng cols in
    N.Builder.add_resistor b (node r c) (node (r + 1) c) 0.
  done;
  for k = 0 to Numerics.Rng.int rng 3 do
    N.Builder.add_voltage_source b ~name:(Printf.sprintf "V%d" k) (random_node ())
      "0" 1.8
  done;
  for _ = 1 to rows * cols / 2 do
    N.Builder.add_current_source b (random_node ()) "0"
      (Numerics.Rng.float rng 1e-2)
  done;
  N.Builder.finish b

(* The triplet assembly Mna used before the direct CSR build, on the
   same row numbering. *)
let builder_assembly net (sys : Mna.system) =
  let nf = Array.length sys.Mna.rhs in
  let b = Numerics.Sparse.Builder.create nf nf in
  let add = Numerics.Sparse.Builder.add b in
  let rhs = Array.make nf 0. in
  let row v = sys.Mna.row_of_node.(v) in
  for e = 0 to N.num_elements net - 1 do
    let pos = net.N.pos.(e) and neg = net.N.neg.(e) and v = net.N.values.(e) in
    match N.kind net e with
    | N.Resistor when v > 0. ->
      let fp = row pos and fq = row neg and g = 1. /. v in
      if fp >= 0 && fq >= 0 then begin
        if fp <> fq then begin
          add fp fp g;
          add fq fq g;
          add fp fq (-.g);
          add fq fp (-.g)
        end
      end
      else if fp >= 0 then begin
        add fp fp g;
        rhs.(fp) <- rhs.(fp) +. (g *. sys.Mna.fixed.(neg))
      end
      else if fq >= 0 then begin
        add fq fq g;
        rhs.(fq) <- rhs.(fq) +. (g *. sys.Mna.fixed.(pos))
      end
    | N.Resistor | N.Voltage_source -> ()
    | N.Current_source ->
      if row pos >= 0 then rhs.(row pos) <- rhs.(row pos) -. v;
      if row neg >= 0 then rhs.(row neg) <- rhs.(row neg) +. v
  done;
  (Numerics.Sparse.Builder.to_csr b, rhs)

let prop_csr_matches_builder seed =
  let net = random_mesh seed in
  let sys = Mna.assemble net in
  let m, rhs = builder_assembly net sys in
  let a = sys.Mna.matrix in
  (* Duplicates may be summed in another order: a few ulps apart. *)
  let close x y =
    Float.abs (x -. y) <= 4. *. epsilon_float *. Float.max (Float.abs x) (Float.abs y)
  in
  let n = Array.length rhs in
  n > 0
  && Numerics.Sparse.dims a = Numerics.Sparse.dims m
  && a.Numerics.Sparse.row_ptr = m.Numerics.Sparse.row_ptr
  && a.Numerics.Sparse.col_idx = m.Numerics.Sparse.col_idx
  && Array.for_all2 close a.Numerics.Sparse.values m.Numerics.Sparse.values
  && sys.Mna.rhs = rhs

let prop_amd_fill seed =
  let a = (Mna.assemble (random_mesh seed)).Mna.matrix in
  let n = fst (Numerics.Sparse.dims a) in
  let amd = Numerics.Cholesky.factorize a in
  let natural = Numerics.Cholesky.factorize ~ordering:Numerics.Cholesky.Natural a in
  let p = Numerics.Cholesky.ordering_permutation amd in
  Array.sort compare p;
  p = Array.init n (fun i -> i)
  && Numerics.Cholesky.nnz_l amd <= Numerics.Cholesky.nnz_l natural

let prop_ldl_matches_cg seed =
  let net = random_mesh seed in
  let sol = Mna.solve net in
  let oracle = cg_voltages net in
  sol.Mna.residual <= 1e-12
  && Array.for_all2
       (fun e a -> Float.abs (e -. a) <= 1e-11 +. (1e-8 *. Float.abs e))
       oracle sol.Mna.voltages

let island b =
  (* Three nodes in a chain, no path to the pad or ground. *)
  N.Builder.add_resistor b "fa" "fb" 1.;
  N.Builder.add_resistor b "fb" "fc" 2.

let test_mna_floating_unexcited () =
  let b = N.Builder.create () in
  N.Builder.add_voltage_source b "top" "0" 1.8;
  N.Builder.add_resistor b "top" "mid" 1.;
  N.Builder.add_resistor b "mid" "0" 2.;
  island b;
  let sol = Mna.solve (N.Builder.finish b) in
  List.iter
    (fun n -> check_close (n ^ " pinned at 0 V") 0. (Option.get (Mna.node_voltage sol n)))
    [ "fa"; "fb"; "fc" ];
  check_close ~rtol:1e-12 "rest solves" 1.2 (Option.get (Mna.node_voltage sol "mid"));
  Alcotest.(check bool) "residual" true (sol.Mna.residual < 1e-12)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_mna_floating_excited () =
  let b = N.Builder.create () in
  N.Builder.add_voltage_source b "top" "0" 1.8;
  N.Builder.add_resistor b "top" "mid" 1.;
  N.Builder.add_resistor b "mid" "0" 2.;
  island b;
  N.Builder.add_current_source b "fc" "fa" 1e-3;
  match Mna.solve (N.Builder.finish b) with
  | exception Mna.Unsupported msg ->
    Alcotest.(check bool) ("names a node and the size: " ^ msg) true
      (contains msg "3 nodes"
      && List.exists (fun n -> contains msg (" " ^ n ^ " ")) [ "fa"; "fb"; "fc" ])
  | _ -> Alcotest.fail "a driven floating subnetwork must be rejected"

let test_mna_non_finite_conductance () =
  (* 1 / 1e-320 overflows to infinity: the factorization's pivot check
     must surface as Unsupported, never as a Cholesky exception. *)
  let b = N.Builder.create () in
  N.Builder.add_voltage_source b "top" "0" 1.8;
  N.Builder.add_resistor b "top" "a" 1.;
  N.Builder.add_resistor b "a" "b" 1e-320;
  N.Builder.add_resistor b "b" "0" 1.;
  match Mna.solve (N.Builder.finish b) with
  | exception Mna.Unsupported msg ->
    Alcotest.(check bool) ("says why: " ^ msg) true (contains msg "positive definite")
  | _ -> Alcotest.fail "a non-finite conductance must be rejected"

(* ---------------------------------------------------------------- *)
(* Solution files                                                    *)

module Sf = Spice.Solution_file

let test_solution_roundtrip () =
  let sol = Mna.solve (divider ()) in
  let s = Sf.of_solution sol in
  Alcotest.(check int) "nodes minus ground" 2 (List.length s);
  let text = Sf.to_string s in
  let parsed = Sf.parse_string text in
  List.iter2
    (fun (n1, v1) (n2, v2) ->
      Alcotest.(check string) "name" n1 n2;
      check_close ~rtol:1e-12 "voltage" v1 v2)
    s parsed

let test_solution_check () =
  let sol = Mna.solve (divider ()) in
  let golden = Sf.of_solution sol in
  (match Sf.check ~reference:golden sol with
  | Ok () -> ()
  | Error m -> Alcotest.failf "self-check failed: %s" m);
  (* A perturbed reference is rejected. *)
  let wrong = List.map (fun (n, v) -> (n, v +. 1e-3)) golden in
  (match Sf.check ~reference:wrong sol with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "must reject wrong reference");
  (* A reference naming unknown nodes is rejected. *)
  let extra = ("nope", 0.) :: golden in
  match Sf.check ~reference:extra sol with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "must reject missing nodes"

let test_solution_compare () =
  let a = [ ("x", 1.); ("y", 2.) ] in
  let b = [ ("x", 1.); ("y", 2.25); ("z", 3.) ] in
  let c = Sf.compare_solutions ~reference:a b in
  Alcotest.(check int) "common" 2 c.Sf.common;
  check_close "max err" 0.25 c.Sf.max_abs_error;
  Alcotest.(check (option string)) "worst" (Some "y") c.Sf.worst_node;
  let c2 = Sf.compare_solutions ~reference:b a in
  Alcotest.(check (list string)) "missing" [ "z" ] c2.Sf.missing

let test_solution_parse_errors () =
  (match Sf.parse_string "a 1.0\nbroken\n" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "must fail on bad line");
  match Sf.parse_string "a notafloat\n" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "must fail on bad float"

let suites =
  [
    ( "spice.netlist",
      [
        case "node interning" test_builder_interning;
        case "element construction" test_builder_elements;
        case "slice interning and add are checked" test_builder_slices_checked;
        case "print/parse roundtrip" test_netlist_roundtrip;
      ] );
    ( "spice.parser",
      [
        case "numeric literals" test_parse_values;
        case "unit suffixes and signed exponents"
          test_parse_values_units_and_exponents;
        case "basic deck" test_parse_basic_netlist;
        case "parse errors carry line numbers" test_parse_errors;
        case "recovery mode collects line errors"
          test_parse_tolerant_collects_errors;
        case "recovery mode error budget" test_parse_tolerant_budget;
        case "recovery mode on files" test_parse_tolerant_file;
        case "comments and whitespace" test_parse_comments_and_whitespace;
        case "file roundtrip" test_parse_file_roundtrip;
        case "node numbering: second node first" test_node_numbering;
        case "non-finite values are line errors" test_non_finite_values;
        case "sample deck parses as the oracle does" test_data_decks_match_oracle;
        qcheck ~count:500 "literals match the line-parser oracle"
          QCheck2.Gen.(int_bound 1_000_000)
          prop_values_match_oracle;
        qcheck ~count:500 "mutated sample decks: a netlist or a located error"
          QCheck2.Gen.(int_bound 1_000_000)
          prop_fuzz_mini_grid;
        qcheck ~count:600 "scanner matches the line-parser oracle"
          QCheck2.Gen.(int_bound 1_000_000)
          prop_scanner_matches_oracle;
        qcheck ~count:100 "print/parse fixpoint"
          QCheck2.Gen.(int_bound 1_000_000)
          prop_print_parse_fixpoint;
      ] );
    ("spice.ibm_format", [ case "codec" test_ibm_codec ]);
    ( "spice.solution_file",
      [
        case "roundtrip" test_solution_roundtrip;
        case "check against golden" test_solution_check;
        case "comparison" test_solution_compare;
        case "parse errors" test_solution_parse_errors;
      ] );
    ( "spice.checker",
      [
        case "clean netlist" test_checker_clean;
        case "duplicate names" test_checker_duplicate;
        case "isolated node / zero load" test_checker_isolated_and_zero_load;
        case "hard errors" test_checker_errors;
        case "shorts summarized" test_checker_shorts;
      ] );
    ( "spice.mna",
      [
        case "voltage divider" test_mna_divider;
        case "current source" test_mna_current_source;
        case "zero-ohm short" test_mna_zero_ohm_short;
        case "wheatstone bridge" test_mna_wheatstone;
        case "floating V source rejected" test_mna_floating_vsource_rejected;
        case "stacked sources" test_mna_stacked_sources;
        case "conflicting sources rejected" test_mna_conflicting_sources;
        case "isolated node" test_mna_isolated_node;
        case "no reference rejected" test_mna_no_reference;
        case "ladder KCL" test_mna_grid_kcl;
        case "Cholesky solver matches CG" test_mna_cholesky_matches_cg;
        case "floating subnetwork pinned at 0 V" test_mna_floating_unexcited;
        case "driven floating subnetwork rejected" test_mna_floating_excited;
        case "non-finite conductance rejected" test_mna_non_finite_conductance;
        qcheck ~count:200 "CSR assembly equals triplet assembly"
          QCheck2.Gen.(int_bound 1_000_000) prop_csr_matches_builder;
        qcheck ~count:200 "AMD order: permutation, fill <= natural"
          QCheck2.Gen.(int_bound 1_000_000) prop_amd_fill;
        qcheck ~count:200 "LDL^T voltages match CG"
          QCheck2.Gen.(int_bound 1_000_000) prop_ldl_matches_cg;
      ] );
  ]

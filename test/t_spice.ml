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

let node_names net = Array.init (N.num_nodes net) (N.node_name net)

let same_netlist (a : N.t) (b : N.t) =
  let bits v = Array.map Int64.bits_of_float v in
  node_names a = node_names b
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

(* Plain decimals around the allocation-free reader's limits (digit
   strings near 2^53, decimal exponents near 22) read as strtod does. *)
let prop_plain_decimals_exact seed =
  let rng = Numerics.Rng.create (Int64.of_int seed) in
  let digits n = String.init n (fun _ -> Char.chr (48 + Numerics.Rng.int rng 10)) in
  List.for_all
    (fun _ ->
      let mantissa =
        let d = digits (1 + Numerics.Rng.int rng 18) in
        let at = Numerics.Rng.int rng (String.length d + 1) in
        String.sub d 0 at ^ "." ^ String.sub d at (String.length d - at)
      in
      let s =
        pick rng [| ""; "-"; "+" |] ^ mantissa
        ^ pick rng [| ""; "e"; "E" |] ^ string_of_int (Numerics.Rng.int rng 51 - 25)
      in
      match float_of_string_opt s with
      | Some v when Float.is_finite v -> Int64.bits_of_float (P.parse_value s) = Int64.bits_of_float v
      | _ -> true)
    (List.init 50 Fun.id)

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
  Alcotest.(check (array string)) "node order" [| "b"; "a"; "c" |] (node_names net);
  let b = N.Builder.create () in
  N.Builder.add_resistor b "a" "b" 1.;
  N.Builder.add_resistor b "c" "a" 2.;
  Alcotest.(check (array string)) "builder order" [| "b"; "a"; "c" |]
    (node_names (N.Builder.finish b));
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
(* Range scan: the deck cut into -j line ranges                      *)

(* Every column bit for bit, and the same answer from [find_node] for
   every name. (The interning tables may hold colliding keys in another
   order.) *)
let check_identical msg (a : N.t) (b : N.t) =
  let bits v = Array.map Int64.bits_of_float v in
  let same what ok = if not ok then Alcotest.failf "%s: %s differ" msg what in
  same "titles" (a.N.title = b.N.title);
  same "node names" (node_names a = node_names b);
  same "coordinates" (a.N.coords = b.N.coords);
  same "node name ends" (a.N.node_end = b.N.node_end);
  same "node arenas" (String.equal a.N.node_arena b.N.node_arena);
  same "kinds" (Bytes.equal a.N.kinds b.N.kinds);
  same "pos" (a.N.pos = b.N.pos);
  same "neg" (a.N.neg = b.N.neg);
  same "values" (bits a.N.values = bits b.N.values);
  same "name arenas" (String.equal a.N.name_arena b.N.name_arena);
  same "name ends" (a.N.name_end = b.N.name_end);
  same "ground" (a.N.ground = b.N.ground);
  Array.iteri
    (fun v name -> same ("find_node " ^ name) (N.find_node b name = Some v))
    (node_names a);
  same "find_node of a missing name" (N.find_node b "no such node" = None)

let data_decks () =
  let dir = if Sys.file_exists "../data" then "../data" else "data" in
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".sp")
  |> List.map (fun f -> Filename.concat dir f)

(* A generated pg1 deck: 1.8 MB, so four jobs cut it into four ranges
   (a range is at least 256 KiB). *)
let pg1_deck =
  lazy
    (N.to_string
       (Pdn.Grid_gen.generate (Pdn.Grid_gen.ibm_preset Pdn.Grid_gen.Pg1)).Pdn.Grid_gen.netlist)

(* The generated pg1 deck is pinned byte for byte: the MD5 that
   [bench/e2e/reference.json]'s decks rest on, from a netlist that
   formats canonical names from their coordinates. Written to a
   channel, and parsed then written again at 1 and 4 jobs, it gives the
   same bytes. *)
let test_pg1_deck_bytes () =
  let deck = Lazy.force pg1_deck in
  Alcotest.(check string) "pg1 deck MD5" "7c8cf0a2e7c0ee15efa120d1ae2bfb6e"
    (Digest.to_hex (Digest.string deck));
  let path = Filename.temp_file "pg1" ".sp" in
  Out_channel.with_open_bin path (fun oc ->
      let g = Pdn.Grid_gen.generate (Pdn.Grid_gen.ibm_preset Pdn.Grid_gen.Pg1) in
      N.output oc g.Pdn.Grid_gen.netlist);
  let written = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  Alcotest.(check bool) "output writes the same bytes" true (String.equal written deck);
  let title = String.sub deck 2 (String.index deck '\n' - 2) in
  List.iter
    (fun jobs ->
      Alcotest.(check bool) (Printf.sprintf "parse then write at -j %d" jobs) true
        (String.equal (N.to_string (P.parse_string ~jobs ~title deck)) deck))
    [ 1; 4 ]

let test_ranges_same_netlist () =
  let decks =
    ("pg1", Lazy.force pg1_deck)
    :: List.map (fun p -> (p, In_channel.with_open_bin p In_channel.input_all)) (data_decks ())
  in
  Alcotest.(check bool) "pg1 spans four ranges" true
    (String.length (Lazy.force pg1_deck) >= 4 lsl 18);
  List.iter
    (fun (name, text) ->
      let one = P.parse_string text in
      List.iter
        (fun jobs ->
          check_identical (Printf.sprintf "%s at -j %d" name jobs) one
            (P.parse_string ~jobs text))
        [ 2; 3; 4 ])
    decks;
  List.iter
    (fun path -> check_identical path (P.parse_file path) (P.parse_file ~jobs:4 path))
    (data_decks ())

(* Malformed lines in every range and on both sides of every cut, for
   two, three and four ranges: a range ends at the first newline at or
   after [r * (n / k)]. Each corruption overwrites one element letter,
   so the deck's length and newlines, hence its cuts, stay put. *)
let corrupted_pg1 =
  lazy
    (let deck = Bytes.of_string (Lazy.force pg1_deck) in
     let n = Bytes.length deck in
     let line_start k =
       let k = ref k in
       while !k > 0 && Bytes.get deck (!k - 1) <> '\n' do decr k done;
       !k
     in
     let next_line k =
       match Bytes.index_from_opt deck k '\n' with Some i -> i + 1 | None -> n
     in
     let corrupt at =
       let at = line_start at in
       if at < n && String.contains "RIV" (Bytes.get deck at) then Bytes.set deck at 'X'
     in
     List.iter
       (fun k ->
         for r = 0 to k - 1 do
           corrupt ((2 * r + 1) * (n / (2 * k)));
           if r > 0 then begin
             let cut = r * (n / k) in
             corrupt cut;
             corrupt (next_line cut);
             corrupt (next_line (next_line cut))
           end
         done)
       [ 2; 3; 4 ];
     Bytes.to_string deck)

let test_ranges_same_errors () =
  let deck = Lazy.force corrupted_pg1 in
  let net, errors = P.parse_string_tolerant ~max_errors:1000 deck in
  let count = List.length errors in
  Alcotest.(check bool) "malformed lines injected" true (count >= 12);
  let outcome ?jobs max_errors =
    match P.parse_string_tolerant ?jobs ~max_errors deck with
    | _, errs -> Ok (List.map (fun (e : P.line_error) -> (e.P.line, e.P.message)) errs)
    | exception P.Parse_error { line; message } -> Error (line, message)
  in
  let strict ?jobs () =
    match P.parse_string ?jobs deck with
    | _ -> None
    | exception P.Parse_error { line; message } -> Some (line, message)
  in
  List.iter
    (fun jobs ->
      let net', errors' = P.parse_string_tolerant ~jobs ~max_errors:1000 deck in
      check_identical (Printf.sprintf "tolerant at -j %d" jobs) net net';
      Alcotest.(check bool) (Printf.sprintf "error list at -j %d" jobs) true (errors = errors');
      List.iter
        (fun budget ->
          Alcotest.(check bool)
            (Printf.sprintf "budget %d at -j %d" budget jobs)
            true
            (outcome budget = outcome ~jobs budget))
        [ 0; 1; 2; 5; count - 1; count ];
      Alcotest.(check bool) (Printf.sprintf "strict error at -j %d" jobs) true
        (strict () = strict ~jobs ()))
    [ 2; 3; 4 ];
  Alcotest.(check bool) "the budget aborts" true
    (match outcome 2 with
    | Error (_, m) -> String.starts_with ~prefix:"too many malformed lines" m
    | Ok _ -> false)

(* ---------------------------------------------------------------- *)
(* Canonical names against string keys                               *)

(* A deck whose node names mix canonical ones with names that are not
   (ground, leading zeros, signs, [N], four parts, 19-digit parts,
   pads), several of them decoding to a canonical name's coordinates,
   and whose element names repeat, canonical or not, within a range and
   across range cuts. A comment pads each line, so the deck spans four
   256 KiB ranges. Returns the deck and its elements. *)
let random_named_deck seed =
  let rng = Numerics.Rng.create (Int64.of_int (seed + 35)) in
  let int n = Numerics.Rng.int rng n in
  let node () =
    let l = 1 + int 3 and x = int 4 and y = int 4 in
    match int 14 with
    | 0 -> "0"
    | 1 -> Printf.sprintf "n0%d_%d_%d" l x y
    | 2 -> Printf.sprintf "n+%d_%d_%d" l x y
    | 3 -> Printf.sprintf "n%d_-%d_%d" l x y
    | 4 -> Printf.sprintf "N%d_%d_%d" l x y
    | 5 -> Printf.sprintf "n%d_%d_%d_%d" l x y x
    | 6 -> Printf.sprintf "n%d_%d_1%018d" l x y
    | 7 -> Printf.sprintf "X%d" x
    | _ -> Printf.sprintf "n%d_%d_%d" l x y
  in
  let name letter =
    match int 6 with
    | 0 -> Printf.sprintf "%c0%d" letter (int 30)
    | 1 -> Printf.sprintf "%c_%d" letter (int 30)
    | 2 -> Printf.sprintf "%c%d" (Char.lowercase_ascii letter) (int 30)
    | _ -> Printf.sprintf "%c%d" letter (int 3000)
  in
  let elements =
    List.init 2000 (fun _ ->
        let letter = pick rng [| 'R'; 'R'; 'R'; 'I'; 'V' |] in
        (name letter, node (), node (), pick rng [| "1"; "0"; "2.5"; "1e-3" |]))
  in
  let line (e, a, b, v) =
    Printf.sprintf "%s %s %s %s $ %s\n" e a b v (String.make (450 + int 300) '.')
  in
  (String.concat "" (List.map line elements), elements)

(* The string-keyed rules: node ids by first appearance, second node
   first; every finding of [Checker.check], in its order and words. *)
let string_keyed elements =
  let ids = Hashtbl.create 64 and names = ref [] in
  let intern s =
    match Hashtbl.find_opt ids s with
    | Some v -> v
    | None ->
      Hashtbl.add ids s (Hashtbl.length ids);
      names := s :: !names;
      Hashtbl.length ids - 1
  in
  let ends = List.map (fun (_, a, b, _) -> let neg = intern b in (intern a, neg)) elements in
  let names = Array.of_list (List.rev !names) in
  let degree = Array.make (Array.length names) 0 and seen = Hashtbl.create 64 in
  let dups = ref [] and loads = ref [] and shorts = ref 0 and rs = ref 0 and vs = ref 0 in
  List.iter2
    (fun (e, _, _, v) (p, q) ->
      if Hashtbl.mem seen e then
        dups := ("duplicate-element", Printf.sprintf "element name %S reused" e) :: !dups
      else Hashtbl.add seen e ();
      match Char.lowercase_ascii e.[0] with
      | 'i' ->
        if float_of_string v = 0. then
          loads := ("zero-current-load", Printf.sprintf "current source %S is 0 A" e) :: !loads
      | c ->
        if c = 'r' then begin
          incr rs;
          if float_of_string v = 0. then incr shorts
        end
        else incr vs;
        degree.(p) <- degree.(p) + 1;
        degree.(q) <- degree.(q) + 1)
    elements ends;
  let isolated =
    List.filter_map
      (fun v ->
        if degree.(v) > 0 then None
        else
          Some ("isolated-node", Printf.sprintf "node %S has no conductive element" names.(v)))
      (List.init (Array.length names) Fun.id)
  in
  let summary =
    (if !rs = 0 then [ ("no-resistors", "netlist contains no resistors") ] else [])
    @ (if !vs = 0 then [ ("no-supply", "netlist contains no voltage sources") ] else [])
    @
    if !shorts = 0 then []
    else [ ("short", Printf.sprintf "%d zero-ohm resistor(s) will be merged as shorts" !shorts) ]
  in
  (ids, names, Array.of_list ends, List.rev !dups @ List.rev !loads @ isolated @ summary)

(* Node ids, [node_name] byte for byte, [coords], [find_node] and the
   lint findings follow the string-keyed rules at 1 to 4 jobs. *)
let prop_canonical_names_match_strings seed =
  let deck, elements = random_named_deck seed in
  let ids, names, ends, findings = string_keyed elements in
  let absent = [ "n9_9_9"; "n09_9_9"; "n1_1"; "Y1"; "" ] in
  let coords v =
    match Ibm.decode names.(v) with
    | Some c -> [| c.Ibm.layer; c.Ibm.x; c.Ibm.y |]
    | None -> [| N.no_layer |]
  in
  String.length deck >= 4 lsl 18
  && List.for_all
       (fun jobs ->
         let net = P.parse_string ~jobs deck in
         let same_ends e (p, q) = net.N.pos.(e) = p && net.N.neg.(e) = q in
         let same_node v name =
           String.equal (N.node_name net v) name
           && coords v = Array.sub net.N.coords (3 * v) (Array.length (coords v))
         in
         N.num_nodes net = Array.length names
         && Array.for_all Fun.id (Array.mapi same_ends ends)
         && Array.for_all Fun.id (Array.mapi same_node names)
         && Hashtbl.fold (fun name v ok -> ok && N.find_node net name = Some v) ids true
         && List.for_all (fun name -> N.find_node net name = Hashtbl.find_opt ids name) absent
         && List.map
              (fun (f : Spice.Checker.finding) -> (f.Spice.Checker.code, f.Spice.Checker.message))
              (Spice.Checker.check net)
            = findings)
       [ 1; 2; 3; 4 ]

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
  let parts = [| 0; 0; 0 |] in
  Alcotest.(check bool) "canonical in place" true
    (Ibm.canonical "R1 n3_1500_0 0" 3 9 parts && parts = [| 3; 1500; 0 |]);
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " is not canonical") false
        (Ibm.canonical name 0 (String.length name) parts))
    [ "n03_1500_0"; "n3_+1500_0"; "N3_1500_0"; "n3_1500_0_1"; "n3_1500_1234567890123456789"; "0" ]

(* The split-and-[int_of_string_opt] decoding [Ibm.decode] reads plain
   digits in place instead of; any name, digit runs past an int's
   length, signs and [0x] prefixes included, must decode the same. *)
let split_decode name =
  let n = String.length name in
  if n < 6 || name.[0] <> 'n' then None
  else
    match String.split_on_char '_' (String.sub name 1 (n - 1)) with
    | [ l; x; y ] -> (
      match (int_of_string_opt l, int_of_string_opt x, int_of_string_opt y) with
      | Some layer, Some x, Some y -> Some { Ibm.layer; x; y }
      | _ -> None)
    | _ -> None

let gen_ibm_name =
  let open QCheck2.Gen in
  let part =
    oneof
      [
        map string_of_int (int_range 0 1_000_000);
        string_size ~gen:(oneofl [ '0'; '7'; '9' ]) (int_range 17 21);
        string_size ~gen:(oneofl [ '0'; '1'; '-'; '+'; 'x'; 'f' ]) (int_range 0 4);
      ]
  in
  map
    (fun parts -> "n" ^ String.concat "_" parts)
    (list_size (int_range 1 4) part)

let prop_ibm_decode_matches_split name = Ibm.decode name = split_decode name

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


module Ref = Mna_reference

(* Independent oracle for the direct solve: Jacobi-CG at a tight
   tolerance on the reference assembly, mapped back to nodes. *)
let cg_voltages net =
  let sys = Ref.assemble net in
  Ref.voltages sys (Numerics.Cg.solve ~tol:1e-13 sys.Ref.matrix sys.Ref.rhs).Numerics.Cg.x

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

(* The element-level KCL residual equals the reference assembly's
   matrix residual |b - A v| / |b| at arbitrary row voltages, so the
   element sums cover the same stamps as the matrix. *)
let prop_kcl_residual_matches_assembly seed =
  let net = random_mesh seed in
  let sys = Ref.assemble net in
  let rng = Numerics.Rng.create (Int64.of_int (seed + 31)) in
  let v =
    Ref.voltages sys
      (Array.init (Array.length sys.Ref.rhs) (fun _ -> Numerics.Rng.uniform rng 0. 2.))
  in
  let expected = Ref.residual sys v and got = Mna.residual net v in
  Float.abs (expected -. got) <= 1e-9 *. expected

(* The residual is computed from the elements, so it sees an error in
   the system itself: a resistor at 1e30 ohm has in effect lost its
   stamp. That deck solves to its own tiny residual, but its voltages
   break KCL on the real deck, at the rows the resistor joins. *)
let test_kcl_residual_sees_a_dropped_stamp () =
  (* Element 0 of a mesh is the grid edge n1_0_0 - n1_0_100, which lies
     on a grid cycle: without it the mesh stays connected. *)
  let net = random_mesh 7 in
  let sol = Mna.solve net in
  Alcotest.(check bool) "it carries current" true
    (Float.abs (Mna.resistor_current sol 0) > 1e-6);
  let values = Array.copy net.N.values in
  values.(0) <- 1e30;
  let dropped = Mna.solve (N.with_values net values) in
  Alcotest.(check bool)
    (Printf.sprintf "own residual %.2e < 1e-12" dropped.Mna.residual)
    true (dropped.Mna.residual < 1e-12);
  let r = Mna.residual net dropped.Mna.voltages in
  Alcotest.(check bool)
    (Printf.sprintf "residual on the real deck %.2e > %.0e" r Mna.max_residual)
    true (r > Mna.max_residual);
  Alcotest.(check bool) "the real solution's residual" true
    (Mna.residual net sol.Mna.voltages = sol.Mna.residual)

let prop_amd_permutation seed =
  let a = (Ref.assemble (random_mesh seed)).Ref.matrix in
  let n = fst (Numerics.Sparse.dims a) in
  let p = Numerics.Cholesky.ordering_permutation (Numerics.Cholesky.factorize a) in
  Array.sort compare p;
  p = Array.init n (fun i -> i)

(* AMD is a heuristic: on a few tiny random meshes (11-19 free rows) it
   leaves one or two more fill entries than the natural order. On real
   grids it cuts fill several-fold; the fill check lives here. *)
let test_amd_fill_realistic () =
  List.iter
    (fun (name, net) ->
      let a = (Ref.assemble net).Ref.matrix in
      let nnz ordering = Numerics.Cholesky.nnz_l (Numerics.Cholesky.factorize ~ordering a) in
      let amd = nnz Numerics.Cholesky.Amd and natural = nnz Numerics.Cholesky.Natural in
      if not (amd < natural) then
        Alcotest.failf "%s: AMD fill %d not below natural %d" name amd natural)
    [
      ("mini_grid.sp", P.parse_file mini_grid);
      ( "pg1 x0.3",
        (Pdn.Grid_gen.generate (Pdn.Grid_gen.ibm_preset ~scale:0.3 Pdn.Grid_gen.Pg1))
          .Pdn.Grid_gen.netlist );
    ]

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

(* Random mesh islands, each its own net: 1-4 padded and loaded ones
   plus up to two unexcited floating ones. Their elements are added in
   shuffled order, so node order interleaves the islands and the block
   numbering has rows to move. *)
let random_islands seed =
  let rng = Numerics.Rng.create (Int64.of_int (seed + 4049)) in
  let padded = 1 + Numerics.Rng.int rng 4 and floating = Numerics.Rng.int rng 3 in
  let elements = ref [] in
  let push f = elements := f :: !elements in
  for isl = 0 to padded + floating - 1 do
    let rows = 2 + Numerics.Rng.int rng 5 and cols = 2 + Numerics.Rng.int rng 5 in
    let node r c = Printf.sprintf "n%d_%d_%d" (isl + 1) (r * 100) (c * 100) in
    let random_node () =
      node (Numerics.Rng.int rng rows) (Numerics.Rng.int rng cols)
    in
    let ohms = 0.01 +. Numerics.Rng.float rng 1. in
    for r = 0 to rows - 1 do
      for c = 0 to cols - 1 do
        if c + 1 < cols then
          push (fun b -> N.Builder.add_resistor b (node r c) (node r (c + 1)) ohms);
        if r + 1 < rows then
          push (fun b -> N.Builder.add_resistor b (node r c) (node (r + 1) c) ohms)
      done
    done;
    let a = random_node () and z = random_node () in
    if a <> z then push (fun b -> N.Builder.add_resistor b a z (2. *. ohms));
    if Numerics.Rng.bool rng then push (fun b -> N.Builder.add_resistor b (node 0 0) (node 1 0) 0.);
    if isl < padded then begin
      let pad = random_node () in
      push (fun b ->
          N.Builder.add_voltage_source b ~name:(Printf.sprintf "V%d" isl) pad "0" 1.8);
      for _ = 1 to rows * cols / 2 do
        let load = random_node () and amps = Numerics.Rng.float rng 1e-3 in
        push (fun b -> N.Builder.add_current_source b load "0" amps)
      done
    end
  done;
  let elements = Array.of_list !elements in
  Numerics.Rng.shuffle rng elements;
  let b = N.Builder.create ~title:"islands" () in
  Array.iter (fun f -> f b) elements;
  N.Builder.finish b

(* The node voltages of one factorization of the whole reference
   matrix agree with [sol]'s to 1e-12 of the largest. (Bit-identity
   cannot hold: the solve eliminates series chains before its
   ordering, so its operations run in another order.) *)
let matches_whole_factor (sys : Ref.t) sol =
  let whole = Ref.whole_factor_voltages sys in
  let scale = Array.fold_left (fun m v -> Float.max m (Float.abs v)) 0. whole in
  Array.for_all2
    (fun w v -> Float.abs (w -. v) <= 1e-12 *. scale)
    whole sol.Mna.voltages

let prop_blocks_solve_alike seed =
  let net = random_islands seed in
  let sys = Ref.assemble net in
  let a = sys.Ref.matrix and blocks = sys.Ref.blocks in
  let nb = Array.length blocks - 1 in
  let partition =
    nb >= 1
    && blocks.(0) = 0
    && blocks.(nb) = Array.length sys.Ref.rhs
    && List.for_all (fun b -> blocks.(b) < blocks.(b + 1)) (List.init nb Fun.id)
  in
  let inside =
    List.for_all
      (fun b ->
        let lo = blocks.(b) and hi = blocks.(b + 1) in
        let ok = ref true in
        for p = a.Numerics.Sparse.row_ptr.(lo) to a.Numerics.Sparse.row_ptr.(hi) - 1 do
          let c = a.Numerics.Sparse.col_idx.(p) in
          if c < lo || c >= hi then ok := false
        done;
        !ok)
      (List.init nb Fun.id)
  in
  let bits v = Array.map Int64.bits_of_float v in
  let sols = List.map (fun jobs -> Mna.solve ~jobs net) [ 1; 2; 3; 4 ] in
  let first = List.hd sols in
  let alike =
    List.for_all
      (fun s ->
        bits s.Mna.voltages = bits first.Mna.voltages && s.Mna.fill = first.Mna.fill)
      sols
  in
  partition && inside && alike
  && first.Mna.nets = nb
  && first.Mna.free_nodes = blocks.(nb)
  && matches_whole_factor sys first

(* A mesh whose edges are series chains of 1-8 resistors, plus every
   shape the chain elimination meets: a dead-end chain, a loop chain
   back to one junction, a chain beside a direct edge, and a second
   net that is a ring of degree-2 rows. Loads and pad resistors sit on
   chain nodes as well as on junctions. *)
let random_chain_mesh seed =
  let rng = Numerics.Rng.create (Int64.of_int (seed + 6151)) in
  let rows = 2 + Numerics.Rng.int rng 4 and cols = 2 + Numerics.Rng.int rng 4 in
  let ohms () = 0.01 +. Numerics.Rng.float rng 1. in
  let b = N.Builder.create ~title:"chains" () in
  let nodes = ref [] and fresh = ref 0 in
  let new_node prefix =
    incr fresh;
    let n = Printf.sprintf "%s%d" prefix !fresh in
    nodes := n :: !nodes;
    n
  in
  (* [len] resistors in series from [a] to [z]. *)
  let chain a z len =
    let prev = ref a in
    for _ = 2 to len do
      let n = new_node "c" in
      N.Builder.add_resistor b !prev n (ohms ());
      prev := n
    done;
    N.Builder.add_resistor b !prev z (ohms ())
  in
  let junction r c = Printf.sprintf "j%d_%d" r c in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      nodes := junction r c :: !nodes;
      let len () = 1 + Numerics.Rng.int rng 8 in
      if c + 1 < cols then chain (junction r c) (junction r (c + 1)) (len ());
      if r + 1 < rows then chain (junction r c) (junction (r + 1) c) (len ())
    done
  done;
  let j () = junction (Numerics.Rng.int rng rows) (Numerics.Rng.int rng cols) in
  chain (j ()) (new_node "dead") (2 + Numerics.Rng.int rng 7);
  let a = j () in
  chain a a (3 + Numerics.Rng.int rng 6);
  N.Builder.add_resistor b (junction 0 0) (junction 0 1) (ohms ());
  chain (junction 0 0) (junction 0 1) (2 + Numerics.Rng.int rng 7);
  let nodes = Array.of_list !nodes in
  let any () = nodes.(Numerics.Rng.int rng (Array.length nodes)) in
  for k = 0 to Numerics.Rng.int rng 3 do
    let pad = Printf.sprintf "pad%d" k in
    N.Builder.add_voltage_source b ~name:(Printf.sprintf "V%d" k) pad "0" 1.8;
    N.Builder.add_resistor b pad (any ()) (ohms ())
  done;
  for _ = 1 to Array.length nodes / 3 do
    N.Builder.add_current_source b (any ()) "0" (Numerics.Rng.float rng 1e-2)
  done;
  (* The ring: every row has degree 2, the pad's neighbour included. *)
  let ring = Array.init (3 + Numerics.Rng.int rng 6) (Printf.sprintf "r%d") in
  Array.iteri
    (fun i n -> N.Builder.add_resistor b n ring.((i + 1) mod Array.length ring) (ohms ()))
    ring;
  N.Builder.add_voltage_source b ~name:"Vring" "vring" "0" 1.;
  N.Builder.add_resistor b "vring" ring.(Numerics.Rng.int rng (Array.length ring)) (ohms ());
  N.Builder.add_current_source b ring.(Numerics.Rng.int rng (Array.length ring)) "0" 1e-2;
  N.Builder.finish b

let prop_chains_solve_exactly seed =
  let net = random_chain_mesh seed in
  let bits v = Array.map Int64.bits_of_float v in
  let sols = List.map (fun jobs -> Mna.solve ~jobs net) [ 1; 2; 3; 4 ] in
  let first = List.hd sols in
  List.for_all (fun s -> bits s.Mna.voltages = bits first.Mna.voltages) sols
  && first.Mna.residual <= 1e-12
  && matches_whole_factor (Ref.assemble net) first

let test_mna_floating_first_driven () =
  (* Island a holds the first node, but island b's driven node comes
     before a's: the error names island b, the group of the first
     driven row in node order. *)
  let b = N.Builder.create () in
  N.Builder.add_voltage_source b "top" "0" 1.8;
  N.Builder.add_resistor b "top" "mid" 1.;
  N.Builder.add_resistor b "mid" "0" 2.;
  N.Builder.add_resistor b "a1" "a2" 1.;
  N.Builder.add_resistor b "b1" "b2" 1.;
  N.Builder.add_current_source b "b2" "0" 1e-3;
  N.Builder.add_resistor b "a2" "a3" 1.;
  N.Builder.add_current_source b "a3" "0" 1e-3;
  match Mna.solve (N.Builder.finish b) with
  | exception Mna.Unsupported msg ->
    Alcotest.(check bool) ("names island b: " ^ msg) true
      (contains msg "2 nodes at b2 ")
  | _ -> Alcotest.fail "driven floating subnetworks must be rejected"

let test_mna_non_pd_second_block () =
  (* Two nets; the second one's 1e-320 ohm resistor is an infinite
     conductance, whose first pivot is at p. *)
  let b = N.Builder.create () in
  N.Builder.add_voltage_source b "top" "0" 1.8;
  N.Builder.add_resistor b "top" "a" 1.;
  N.Builder.add_resistor b "a" "b" 1.;
  N.Builder.add_resistor b "b" "c" 1.;
  N.Builder.add_resistor b "c" "0" 1.;
  N.Builder.add_voltage_source b "vdd" "0" 1.;
  N.Builder.add_resistor b "vdd" "p" 1.;
  N.Builder.add_resistor b "p" "q" 1e-320;
  N.Builder.add_resistor b "q" "0" 1.;
  let net = N.Builder.finish b in
  Alcotest.(check (array int)) "two blocks" [| 0; 3; 5 |] (Ref.assemble net).Ref.blocks;
  List.iter
    (fun jobs ->
      match Mna.solve ~jobs net with
      | exception Mna.Unsupported msg ->
        Alcotest.(check bool) ("names p: " ^ msg) true
          (contains msg "positive definite at node p ")
      | _ -> Alcotest.fail "a non-finite conductance must be rejected")
    [ 1; 2 ]

let test_mna_non_pd_chain_row () =
  (* b has two neighbours, so it is swept out as a chain row; its
     infinite pivot must still be named by its node, at any jobs. *)
  let b = N.Builder.create () in
  N.Builder.add_voltage_source b "top" "0" 1.8;
  N.Builder.add_resistor b "top" "a" 1.;
  N.Builder.add_resistor b "a" "b" 1.;
  N.Builder.add_resistor b "b" "c" 1e-320;
  N.Builder.add_resistor b "c" "0" 1.;
  let net = N.Builder.finish b in
  List.iter
    (fun jobs ->
      match Mna.solve ~jobs net with
      | exception Mna.Unsupported msg ->
        Alcotest.(check bool) ("names b: " ^ msg) true
          (contains msg "positive definite at node b ")
      | _ -> Alcotest.fail "a non-finite conductance must be rejected")
    [ 1; 2 ]

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
        case "pg1 deck bytes are pinned" test_pg1_deck_bytes;
        case "range count does not change the netlist" test_ranges_same_netlist;
        case "range count does not change the errors" test_ranges_same_errors;
        qcheck ~count:25 "canonical names follow the string-keyed rules at -j 1..4"
          QCheck2.Gen.(int_bound 1_000_000)
          prop_canonical_names_match_strings;
        qcheck ~count:500 "literals match the line-parser oracle"
          QCheck2.Gen.(int_bound 1_000_000)
          prop_values_match_oracle;
        qcheck ~count:400 "plain decimals read as strtod does"
          QCheck2.Gen.(int_bound 1_000_000)
          prop_plain_decimals_exact;
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
    ( "spice.ibm_format",
      [
        case "codec" test_ibm_codec;
        qcheck ~count:1000 "decode matches the split parse" gen_ibm_name
          prop_ibm_decode_matches_split;
      ] );
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
        case "driven floating islands: the first driven one is named"
          test_mna_floating_first_driven;
        case "non-PD conductance in the second block names its node"
          test_mna_non_pd_second_block;
        case "non-PD conductance in a series chain names its node"
          test_mna_non_pd_chain_row;
        qcheck ~count:200 "blocks: contiguous, same voltages at any jobs"
          QCheck2.Gen.(int_bound 1_000_000) prop_blocks_solve_alike;
        qcheck ~count:200 "series chains: exact, same voltages at any jobs"
          QCheck2.Gen.(int_bound 1_000_000) prop_chains_solve_exactly;
        qcheck ~count:200 "KCL residual equals the triplet assembly's"
          QCheck2.Gen.(int_bound 1_000_000) prop_kcl_residual_matches_assembly;
        case "KCL residual sees a dropped stamp" test_kcl_residual_sees_a_dropped_stamp;
        qcheck ~count:200 "AMD order: permutation, on random meshes"
          QCheck2.Gen.(int_bound 1_000_000) prop_amd_permutation;
        case "AMD fill below natural on realistic grids" test_amd_fill_realistic;
        qcheck ~count:200 "LDL^T voltages match CG"
          QCheck2.Gen.(int_bound 1_000_000) prop_ldl_matches_cg;
      ] );
  ]

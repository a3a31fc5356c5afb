open T_helpers
module Jx = Obs.Jsonx
module Jin = Emflow.Json_in
module Jout = Emflow.Json_out

(* The observability exporters (Chrome traces, flight dumps) build
   documents with Obs.Jsonx from hostile inputs: span names out of
   netlists, error messages, raw bytes. Property: whatever goes
   in, the emission is JSON our own reader accepts, and the sanitizer is
   a retraction (sanitizing twice = sanitizing once). *)

(* Arbitrary bytes, weighted toward the troublemakers: control
   characters, quotes/backslashes, invalid UTF-8 lead/continuation
   bytes, and valid multibyte sequences cut in half. *)
let hostile_string =
  QCheck2.Gen.(
    let hostile_char =
      oneof
        [
          char_range '\x00' '\x1f'; char_range '\x80' '\xff';
          oneofl [ '"'; '\\'; '/' ]; char_range ' ' '~';
        ]
    in
    let fragment =
      oneof
        [
          map (String.make 1) hostile_char;
          (* valid multibyte sequences, whole... *)
          oneofl [ "é"; "λ"; "→"; "€"; "𝄞"; "\xef\xbf\xbd" ];
          (* ...and truncated, to hit the resynchronization paths *)
          oneofl [ "\xc3"; "\xe2\x82"; "\xf0\x9d\x84" ];
        ]
    in
    map (String.concat "") (list_size (int_range 0 24) fragment))

let parse_string_exn text =
  match Jin.parse text with
  | Ok (Jout.String v) -> v
  | Ok _ -> Alcotest.failf "%S parsed to a non-string" text
  | Error e -> Alcotest.failf "%S does not parse: %s" text e

let test_escape_roundtrip =
  qcheck ~count:500 "Jsonx.escape emits parseable JSON; sanitizing is stable"
    hostile_string
    (fun s ->
      let escaped = Jx.escape s in
      Alcotest.(check bool) "acceptor agrees" true (T_obs.json_accepts escaped);
      let v = parse_string_exn escaped in
      (* v is s with invalid bytes replaced; escaping it again must be a
         fixed point, and it must itself be valid UTF-8 end to end. *)
      Alcotest.(check string) "sanitize-escape is idempotent" escaped
        (Jx.escape v);
      let i = ref 0 in
      while !i < String.length v do
        let n = Jx.utf8_seq_len v !i in
        if n = 0 then
          Alcotest.failf "invalid UTF-8 leaked at byte %d of %S" !i v;
        i := !i + n
      done;
      true)

let test_escape_preserves_valid =
  qcheck ~count:200 "valid printable input survives the round-trip unchanged"
    QCheck2.Gen.(string_size ~gen:(char_range ' ' '~') (int_range 0 40))
    (fun s -> parse_string_exn (Jx.escape s) = s)

let test_add_float_roundtrip =
  qcheck ~count:500 "add_float round-trips through the parser bit-exactly"
    QCheck2.Gen.float
    (fun f ->
      let buf = Buffer.create 32 in
      Jx.add_float buf f;
      let doc = Jin.parse_exn (Buffer.contents buf) in
      if Float.is_finite f then
        match Jin.number doc with
        | Some g -> Int64.bits_of_float g = Int64.bits_of_float f
        | None -> false
      else (* JSON has no NaN/Infinity: emitted as null *)
        doc = Jout.Null)

let test_control_chars_escaped () =
  (* Every control character must come out as an escape, never raw. *)
  for c = 0 to 0x1f do
    let escaped = Jx.escape (String.make 1 (Char.chr c)) in
    Alcotest.(check bool)
      (Printf.sprintf "0x%02x accepted" c)
      true
      (T_obs.json_accepts escaped);
    String.iter
      (fun ch ->
        if Char.code ch < 0x20 then
          Alcotest.failf "raw control byte 0x%02x leaked" (Char.code ch))
      escaped;
    Alcotest.(check string)
      (Printf.sprintf "0x%02x round-trips" c)
      (String.make 1 (Char.chr c))
      (parse_string_exn escaped)
  done

let test_deep_nesting () =
  (* A deeply nested emission (200 levels of arrays and objects with
     Jsonx-escaped hostile keys) must stay within what Json_in parses —
     both sides are recursive descent, so this guards their budgets
     against each other. *)
  let depth = 200 in
  let buf = Buffer.create 4096 in
  for _ = 1 to depth do
    Buffer.add_char buf '[';
    Buffer.add_char buf '{';
    Jx.add_string buf "k\xffey";
    Buffer.add_char buf ':'
  done;
  Jx.add_string buf "bottom";
  for _ = 1 to depth do
    Buffer.add_string buf "},"
  done;
  (* Replace the trailing comma of the innermost closer sequence by
     closing the arrays properly: rebuild the tail. *)
  let text = Buffer.sub buf 0 (Buffer.length buf - (2 * depth)) in
  let closers = Buffer.create (2 * depth) in
  for _ = 1 to depth do
    Buffer.add_string closers "}]"
  done;
  let doc_text = text ^ Buffer.contents closers in
  Alcotest.(check bool) "deep doc accepted" true (T_obs.json_accepts doc_text);
  match Jin.parse doc_text with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "deep nesting failed to parse: %s" e

let suites =
  [
    ( "jsonx",
      [
        test_escape_roundtrip;
        test_escape_preserves_valid;
        test_add_float_roundtrip;
        case "control characters always escape" test_control_chars_escaped;
        case "deep nesting parses back" test_deep_nesting;
      ] );
  ]

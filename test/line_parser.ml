(* The line-by-line deck parser that [Spice.Parser]'s one-pass scanner
   replaced, kept as a test oracle: [String.split_on_char] per line,
   [String.trim], and a boxed [Builder] call per element. It accepts
   non-finite values, which the scanner rejects; everything else must
   agree bit for bit. *)

exception Parse_error = Spice.Parser.Parse_error

type line_error = Spice.Parser.line_error = { line : int; message : string }

module Netlist = Spice.Netlist

(* Engineering scales, longest spelling first so "meg" wins over "m". *)
let scales =
  [ ("meg", 1e6); ("t", 1e12); ("g", 1e9); ("k", 1e3); ("m", 1e-3);
    ("u", 1e-6); ("n", 1e-9); ("p", 1e-12); ("f", 1e-15) ]

let is_unit_char c = 'a' <= c && c <= 'z'

(* SPICE semantics: the scale is the longest engineering prefix of the
   suffix; any remaining letters are unit text and ignored ("1.2ku",
   "15.6ma", "3.3megohm", "5v"). Non-alphabetic trailing characters stay
   malformed. *)
let suffix_scale suffix =
  if suffix = "" then Some 1.
  else if not (String.for_all is_unit_char suffix) then None
  else
    match
      List.find_opt (fun (p, _) -> String.starts_with ~prefix:p suffix) scales
    with
    | Some (_, scale) -> Some scale
    | None -> Some 1. (* pure unit text, e.g. "v", "ohm" *)

let parse_value raw =
  let s = String.lowercase_ascii (String.trim raw) in
  if s = "" then failwith "empty numeric literal";
  let n = String.length s in
  (* Longest numeric prefix. An 'e' only belongs to the number when an
     exponent actually follows (digits, or a sign then digits) —
     otherwise it starts the unit text, so "5ev" is 5 with unit "ev"
     rather than a malformed exponent. *)
  let digit_at i = i < n && (match s.[i] with '0' .. '9' -> true | _ -> false) in
  let is_num_char i c =
    match c with
    | '0' .. '9' | '.' -> true
    | '+' | '-' -> i = 0 || s.[i - 1] = 'e'
    | 'e' ->
      i > 0
      && (digit_at (i + 1)
         || (i + 1 < n
            && (s.[i + 1] = '+' || s.[i + 1] = '-')
            && digit_at (i + 2)))
    | _ -> false
  in
  let split = ref 0 in
  (try
     for i = 0 to n - 1 do
       if is_num_char i s.[i] then incr split else raise Exit
     done
   with Exit -> ());
  let num = String.sub s 0 !split in
  let suffix = String.sub s !split (n - !split) in
  match (float_of_string_opt num, suffix_scale suffix) with
  | Some v, Some scale -> v *. scale
  | _ -> failwith (Printf.sprintf "malformed numeric literal %S" raw)

let split_fields line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun f -> f <> "")

let parse_into builder lineno line =
  let fail message = raise (Parse_error { line = lineno; message }) in
  let line =
    match String.index_opt line '$' with
    | Some i -> String.sub line 0 i (* inline comments *)
    | None -> line
  in
  let trimmed = String.trim line in
  if trimmed = "" || trimmed.[0] = '*' then ()
  else if trimmed.[0] = '.' then () (* .op / .end / other cards *)
  else begin
    match split_fields trimmed with
    | [ name; n1; n2; value ] -> begin
      let v =
        try parse_value value with Failure m -> fail m
      in
      match Char.lowercase_ascii name.[0] with
      | 'r' ->
        if v < 0. then fail "negative resistance";
        Netlist.Builder.add_resistor builder ~name n1 n2 v
      | 'i' -> Netlist.Builder.add_current_source builder ~name n1 n2 v
      | 'v' -> Netlist.Builder.add_voltage_source builder ~name n1 n2 v
      | _ -> fail (Printf.sprintf "unsupported element %S" name)
    end
    | fields ->
      fail (Printf.sprintf "expected 4 fields, found %d" (List.length fields))
  end

(* Recovery mode: a malformed line becomes a recorded error and the line
   is skipped, until the budget is exhausted — then the parse aborts so
   a wholly-wrong file (a binary, a different format) cannot dribble
   thousands of diagnostics while producing a near-empty netlist. *)
let parse_into_tolerant builder ~max_errors errors count lineno line =
  try parse_into builder lineno line with
  | Parse_error { line; message } ->
    incr count;
    if !count > max_errors then
      raise
        (Parse_error
           {
             line;
             message =
               Printf.sprintf
                 "too many malformed lines (more than %d); last error: %s"
                 max_errors message;
           });
    errors := { line; message } :: !errors

let parse_string ?(title = "parsed netlist") text =
  let builder = Netlist.Builder.create ~title () in
  let lines = String.split_on_char '\n' text in
  List.iteri (fun i line -> parse_into builder (i + 1) line) lines;
  Netlist.Builder.finish builder

let parse_string_tolerant ?(max_errors = Spice.Parser.default_max_errors)
    ?(title = "parsed netlist") text =
  if max_errors < 0 then invalid_arg "Parser.parse_string_tolerant: max_errors < 0";
  let builder = Netlist.Builder.create ~title () in
  let errors = ref [] and count = ref 0 in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun i line ->
      parse_into_tolerant builder ~max_errors errors count (i + 1) line)
    lines;
  (Netlist.Builder.finish builder, List.rev !errors)

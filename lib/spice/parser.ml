exception Parse_error of { line : int; message : string }

type line_error = { line : int; message : string }

let default_max_errors = 20

let is_blank = function ' ' | '\t' | '\n' | '\r' | '\012' -> true | _ -> false

let is_separator c = c = ' ' || c = '\t'

let is_digit c = '0' <= c && c <= '9'

let is_letter c = ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')

let low s k = Char.lowercase_ascii (String.unsafe_get s k)

let digit_at s hi k = k < hi && is_digit (String.unsafe_get s k)

let sign_at s hi k = k < hi && (s.[k] = '+' || s.[k] = '-')

(* End of the longest numeric prefix of [s.[lo .. hi - 1]]. An 'e'
   belongs to it only when an exponent follows (digits, or a sign then
   digits), so "5ev" is 5 with unit "ev". *)
let rec numeric s lo hi k =
  if k >= hi then k
  else
    match low s k with
    | '0' .. '9' | '.' -> numeric s lo hi (k + 1)
    | ('+' | '-') when k = lo || low s (k - 1) = 'e' -> numeric s lo hi (k + 1)
    | 'e' when k > lo && (digit_at s hi (k + 1) || (sign_at s hi (k + 1) && digit_at s hi (k + 2)))
      ->
      numeric s lo hi (k + 1)
    | _ -> k

let rec letters s k hi = k >= hi || (is_letter s.[k] && letters s (k + 1) hi)

(* The scale of unit text [s.[k .. hi - 1]]: its longest engineering
   prefix ("meg" before "m"); the remaining letters are ignored. *)
let scale s k hi =
  if k = hi then 1.
  else
    match low s k with
    | 'm' when k + 2 < hi && low s (k + 1) = 'e' && low s (k + 2) = 'g' -> 1e6
    | 't' -> 1e12
    | 'g' -> 1e9
    | 'k' -> 1e3
    | 'm' -> 1e-3
    | 'u' -> 1e-6
    | 'n' -> 1e-9
    | 'p' -> 1e-12
    | 'f' -> 1e-15
    | _ -> 1.

(* The SPICE literal in [s.[lo .. hi - 1]], blanks trimmed: a number,
   then letters ("1.2ku", "15.6ma", "3.3megohm", "5v"). Nan when
   malformed; an overflow reads as an infinity. *)
let literal s lo hi =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi && is_blank s.[!lo] do incr lo done;
  while !hi > !lo && is_blank s.[!hi - 1] do decr hi done;
  let lo = !lo and hi = !hi in
  let split = numeric s lo hi lo in
  if not (letters s split hi) then Float.nan
  else
    Option.value (float_of_string_opt (String.sub s lo (split - lo))) ~default:Float.nan
    *. scale s split hi

let value_error raw v =
  Printf.sprintf "%s numeric literal %S" (if Float.is_nan v then "malformed" else "non-finite") raw

let parse_value raw =
  if String.trim raw = "" then failwith "empty numeric literal";
  let v = literal raw 0 (String.length raw) in
  if Float.is_finite v then v else failwith (value_error raw v)

let field text fields i = String.sub text fields.(2 * i) (fields.((2 * i) + 1) - fields.(2 * i))

(* One deck line, [text.[lo .. hi - 1]] without its newline and inline
   comment: [None] when it is blank, a comment, a dot-card or a
   well-formed element (then added to [b]), else the reason it is
   malformed. [fields] is scratch for the first four fields' bounds. *)
let scan_line b fields text lo hi =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi && is_blank (String.unsafe_get text !lo) do incr lo done;
  while !hi > !lo && is_blank (String.unsafe_get text (!hi - 1)) do decr hi done;
  let lo = !lo and hi = !hi in
  if lo = hi || text.[lo] = '*' || text.[lo] = '.' then None
  else begin
    let count = ref 0 and k = ref lo in
    while !k < hi do
      if is_separator (String.unsafe_get text !k) then incr k
      else begin
        if !count < 4 then fields.(2 * !count) <- !k;
        while !k < hi && not (is_separator (String.unsafe_get text !k)) do incr k done;
        if !count < 4 then fields.((2 * !count) + 1) <- !k;
        incr count
      end
    done;
    if !count <> 4 then Some (Printf.sprintf "expected 4 fields, found %d" !count)
    else
      let v = literal text fields.(6) fields.(7) and letter = low text fields.(0) in
      if not (Float.is_finite v) then Some (value_error (field text fields 3) v)
      else if not (String.contains "riv" letter) then
        Some (Printf.sprintf "unsupported element %S" (field text fields 0))
      else if letter = 'r' && v < 0. then Some "negative resistance"
      else begin
        let neg = Netlist.Builder.intern b text fields.(4) (fields.(5) - fields.(4)) in
        let pos = Netlist.Builder.intern b text fields.(2) (fields.(3) - fields.(2)) in
        let kind : Netlist.kind =
          if letter = 'r' then Resistor else if letter = 'i' then Current_source else Voltage_source
        in
        Netlist.Builder.add b kind text ~off:fields.(0) ~len:(fields.(1) - fields.(0)) ~pos ~neg v;
        None
      end
  end

(* Lines whose first non-blank byte is an element letter: an upper bound
   on the elements, exact for a clean deck. Sizing the columns by it
   keeps the builder from doubling them and copying them in [finish]. *)
let candidates text =
  let n = String.length text and count = ref 0 and k = ref 0 in
  while !k < n do
    while !k < n && text.[!k] <> '\n' && is_blank text.[!k] do incr k done;
    if !k < n && String.contains "rRiIvV" text.[!k] then incr count;
    while !k < n && String.unsafe_get text !k <> '\n' do incr k done;
    incr k
  done;
  !count

(* Every line of [text] in order; [error line message] gets each
   malformed one. *)
let scan ~title ~error text =
  let b = Netlist.Builder.create ~title () in
  let fields = Array.make 8 0 in
  let n = String.length text in
  let elements = candidates text in
  Netlist.Builder.reserve b ~elements ~nodes:elements;
  let rec lines lineno lo =
    if lo <= n then begin
      let hi = ref lo and stop = ref (-1) in
      while !hi < n && String.unsafe_get text !hi <> '\n' do
        if !stop < 0 && String.unsafe_get text !hi = '$' then stop := !hi;
        incr hi
      done;
      (match scan_line b fields text lo (if !stop < 0 then !hi else !stop) with
      | None -> ()
      | Some message -> error lineno message);
      lines (lineno + 1) (!hi + 1)
    end
  in
  lines 1 0;
  Netlist.Builder.finish b

let strict line message = raise (Parse_error { line; message })

(* Recovery mode: a malformed line becomes a recorded error and the line
   is skipped, until the budget is exhausted — then the parse aborts so
   a wholly-wrong file (a binary, a different format) cannot dribble
   thousands of diagnostics while producing a near-empty netlist. *)
let tolerant ~max_errors ~title text =
  let errors = ref [] and count = ref 0 in
  let error line message =
    incr count;
    if !count > max_errors then
      strict line
        (Printf.sprintf "too many malformed lines (more than %d); last error: %s"
           max_errors message);
    Obs.Log.warn (fun () ->
        ( "netlist line skipped in recovery mode",
          [ ("line", Obs.Trace.Int line); ("reason", Obs.Trace.String message) ] ));
    errors := { line; message } :: !errors
  in
  let net = scan ~title ~error text in
  (net, List.rev !errors)

let parse_string ?(title = "parsed netlist") text = scan ~title ~error:strict text

let parse_string_tolerant ?(max_errors = default_max_errors)
    ?(title = "parsed netlist") text =
  if max_errors < 0 then invalid_arg "Parser.parse_string_tolerant: max_errors < 0";
  tolerant ~max_errors ~title text

let read path = In_channel.with_open_bin path In_channel.input_all

let parse_file path =
  scan ~title:(Filename.basename path) ~error:strict (read path)

let parse_file_tolerant ?(max_errors = default_max_errors) path =
  if max_errors < 0 then invalid_arg "Parser.parse_file_tolerant: max_errors < 0";
  tolerant ~max_errors ~title:(Filename.basename path) (read path)

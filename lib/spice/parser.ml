exception Parse_error of { line : int; message : string }

type line_error = { line : int; message : string }

let default_max_errors = 20

let is_blank = function ' ' | '\t' | '\n' | '\r' | '\012' -> true | _ -> false

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

let powers_of_ten =
  [| 1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12; 1e13; 1e14;
     1e15; 1e16; 1e17; 1e18; 1e19; 1e20; 1e21; 1e22 |]

(* [s.[lo .. hi - 1]] as a plain decimal, [sign digits [. digits]
   [e sign digits]], without allocating: its digits make an integer
   [m <= 2^53] and its decimal exponent [e] is within 22, so [m] and
   [10^|e|] are exact doubles and the one rounding of [m *. 10^e] (or
   [m /. 10^-e]) is strtod's correctly rounded answer (Clinger's fast
   path). Nan for any other text: the caller then asks
   [float_of_string]. *)
let plain_decimal s lo hi =
  let signed = lo < hi && (s.[lo] = '+' || s.[lo] = '-') in
  let k = ref (if signed then lo + 1 else lo) in
  (* [m] becomes [max_int] once it would pass 2^53; [fraction] counts
     the digits after the point, -1 before it. *)
  let m = ref 0 and digits = ref 0 and fraction = ref (-1) and mantissa = ref true in
  while !mantissa && !k < hi do
    let c = String.unsafe_get s !k in
    if is_digit c then begin
      m := if !m > (1 lsl 53) / 10 then max_int else (10 * !m) + Char.code c - Char.code '0';
      incr digits;
      if !fraction >= 0 then incr fraction;
      incr k
    end
    else if c = '.' && !fraction < 0 then begin
      fraction := 0;
      incr k
    end
    else mantissa := false
  done;
  let exponent = ref 0 and ok = ref (!digits > 0 && !m <= 1 lsl 53) in
  if !k < hi && (s.[!k] = 'e' || s.[!k] = 'E') then begin
    let first = if !k + 1 < hi && (s.[!k + 1] = '+' || s.[!k + 1] = '-') then !k + 2 else !k + 1 in
    k := first;
    while !k < hi && is_digit s.[!k] && !k - first < 4 do
      exponent := (10 * !exponent) + Char.code s.[!k] - Char.code '0';
      incr k
    done;
    if !k = first then ok := false;
    if s.[first - 1] = '-' then exponent := - !exponent
  end;
  let e = !exponent - max 0 !fraction in
  if not (!ok && !k = hi && abs e <= 22) then Float.nan
  else
    let v = if e >= 0 then float !m *. powers_of_ten.(e) else float !m /. powers_of_ten.(-e) in
    if signed && s.[lo] = '-' then -.v else v

(* The SPICE literal in [s.[lo .. hi - 1]], blanks trimmed: a number,
   then letters ("1.2ku", "15.6ma", "3.3megohm", "5v"). Nan when
   malformed; an overflow reads as an infinity. A plain decimal, the
   common case, is read in one pass. *)
let literal s lo hi =
  let plain = plain_decimal s lo hi in
  if not (Float.is_nan plain) then plain
  else begin
    let lo = ref lo and hi = ref hi in
    while !lo < !hi && is_blank s.[!lo] do incr lo done;
    while !hi > !lo && is_blank s.[!hi - 1] do decr hi done;
    let lo = !lo and hi = !hi in
    let split = numeric s lo hi lo in
    if not (letters s split hi) then Float.nan
    else
      let v = plain_decimal s lo split in
      (if Float.is_nan v then
         Option.value (float_of_string_opt (String.sub s lo (split - lo))) ~default:Float.nan
       else v)
      *. scale s split hi
  end

let value_error raw v =
  Printf.sprintf "%s numeric literal %S" (if Float.is_nan v then "malformed" else "non-finite") raw

let parse_value raw =
  if String.trim raw = "" then failwith "empty numeric literal";
  let v = literal raw 0 (String.length raw) in
  if Float.is_finite v then v else failwith (value_error raw v)

let field text fields i = String.sub text fields.(2 * i) (fields.((2 * i) + 1) - fields.(2 * i))

(* What a byte is to {!split_line}: ['s'] separates fields, ['e'] ends
   a line's content, ['t'] is a blank trimmed from a field's end. *)
let classes =
  String.init 256 (fun c ->
      match Char.chr c with
      | ' ' | '\t' -> 's'
      | '\n' | '$' -> 'e'
      | '\r' | '\012' -> 't'
      | _ -> 'f')

let class_of text k = String.unsafe_get classes (Char.code (String.unsafe_get text k))

(* The deck line from [lo]: everything up to its first ['\n'] or ['$'],
   trimmed of blanks, split into fields on space and tab. Returns the
   field count, 0 for a blank line, a comment or a dot-card; the first
   four fields' bounds go to [fields.(0 .. 7)], and the offset of the
   line's ['\n'] (or of the text's end) to [fields.(8)]. One pass: the
   count and the last field's end are those of the last field with a
   byte that is not blank. *)
let split_line fields text lo =
  let n = String.length text and k = ref lo in
  while !k < n && (class_of text !k = 's' || class_of text !k = 't') do incr k done;
  let count = ref 0 and last = ref 0 and last_end = ref 0 in
  if !k < n && (String.unsafe_get text !k = '*' || String.unsafe_get text !k = '.') then
    last := -1;
  while !last >= 0 && !k < n && class_of text !k <> 'e' do
    if class_of text !k = 's' then incr k
    else begin
      let first = !k in
      while !k < n && (class_of text !k = 'f' || class_of text !k = 't') do incr k done;
      let e = ref !k in
      while !e > first && class_of text (!e - 1) = 't' do decr e done;
      incr count;
      if !count <= 4 then begin
        fields.(2 * (!count - 1)) <- first;
        fields.((2 * !count) - 1) <- !k
      end;
      if !e > first then begin
        last := !count;
        last_end := !e
      end
    end
  done;
  if !last >= 1 && !last <= 4 then fields.((2 * !last) - 1) <- !last_end;
  fields.(8) <- (match String.index_from_opt text !k '\n' with Some i -> i | None -> n);
  max 0 !last

(* A line of [count] fields split by {!split_line}: [None] when it is
   blank, a comment, a dot-card or a well-formed element (then added to
   [b]), else the reason it is malformed. *)
let element b fields text count =
  if count = 0 then None
  else if count <> 4 then Some (Printf.sprintf "expected 4 fields, found %d" count)
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

(* Decks shorter than two ranges of this many bytes are scanned in one.
   A 256 KiB range scans in 3-4 ms on one core of a 2-vCPU host; a
   split adds two parallel sections (scan, merge lookups) at 0.1-0.5 ms
   each to spawn and join, plus the merge, and decks under 512 KiB
   measured no faster in two ranges than in one. *)
let min_range_bytes = 1 lsl 18

(* [k + 1] offsets cutting [text] into [k] ranges of about equal size,
   each inner offset just after a newline (a range may be empty). *)
let cuts ~jobs text =
  let n = String.length text in
  let k = max 1 (min jobs (n / min_range_bytes)) in
  let bounds = Array.make (k + 1) n in
  bounds.(0) <- 0;
  for r = 1 to k - 1 do
    let target = max bounds.(r - 1) (r * (n / k)) in
    bounds.(r) <-
      (match String.index_from_opt text target '\n' with Some i -> i + 1 | None -> n)
  done;
  bounds

(* The lines of one range into [b]: those starting in [lo .. hi - 1],
   and the empty one at [hi] too for the deck's last range. Stops after
   more than [budget] malformed lines. Returns the number of lines
   scanned and the malformed ones, last first, numbered from 1 within
   the range. *)
let scan_range ~budget b text lo hi ~last =
  let fields = Array.make 9 0 in
  let stop = if last then hi + 1 else hi in
  let errors = ref [] and count = ref 0 in
  let rec lines lineno lo =
    if lo >= stop || !count > budget then lineno - 1
    else begin
      (match element b fields text (split_line fields text lo) with
      | None -> ()
      | Some message ->
        incr count;
        errors := (lineno, message) :: !errors);
      lines (lineno + 1) (fields.(8) + 1)
    end
  in
  let lines = lines 1 lo in
  (lines, !errors)

(* The deck on up to [jobs] domains, one range and one builder each.
   [check] sees every malformed line, in file order, before the ranges
   merge; each range stops after more than [budget] of them, so [check]
   must raise once it has seen that many. *)
let scan ~jobs ~title ~budget ~check text =
  let bounds = cuts ~jobs text in
  let last = Array.length bounds - 2 in
  let scans =
    Numerics.Parallel.map ~jobs
      (fun r ->
        let lo = bounds.(r) and hi = bounds.(r + 1) in
        (* First sizes from the generated decks: 42-55 bytes a line, 66-73
           a node, 43-63 a node within a range (a node counts in every
           range that names it). The first range's table takes every
           node. *)
        let nodes = if r = 0 then String.length text / 60 else (hi - lo) / 55 in
        let b = Netlist.Builder.create ~title ~elements:((hi - lo) / 40) ~nodes () in
        (b, scan_range ~budget b text lo hi ~last:(r = last)))
      (Array.init (last + 1) Fun.id)
  in
  let errors = ref [] and first = ref 1 in
  Array.iter
    (fun (lines, errs) ->
      List.iter
        (fun (l, message) -> errors := { line = !first + l - 1; message } :: !errors)
        (List.rev errs);
      first := !first + lines)
    (Array.map snd scans);
  let errors = List.rev !errors in
  check errors;
  (Netlist.Builder.merge ~jobs (Array.map fst scans), errors)

let strict = function
  | [] -> ()
  | { line; message } :: _ -> raise (Parse_error { line; message })

(* Recovery mode: a malformed line becomes a recorded error and the line
   is skipped, until the budget is exhausted — then the parse aborts so
   a wholly-wrong file (a binary, a different format) cannot dribble
   thousands of diagnostics while producing a near-empty netlist. *)
let tolerant ~max_errors =
  List.iteri (fun i { line; message } ->
      if i >= max_errors then
        raise
          (Parse_error
             { line;
               message =
                 Printf.sprintf "too many malformed lines (more than %d); last error: %s"
                   max_errors message });
      Obs.Log.warn (fun () ->
          ( "netlist line skipped in recovery mode",
            [ ("line", Obs.Trace.Int line); ("reason", Obs.Trace.String message) ] )))

let parse_string ?(jobs = 1) ?(title = "parsed netlist") text =
  fst (scan ~jobs ~title ~budget:0 ~check:strict text)

let parse_string_tolerant ?(jobs = 1) ?(max_errors = default_max_errors)
    ?(title = "parsed netlist") text =
  if max_errors < 0 then invalid_arg "Parser.parse_string_tolerant: max_errors < 0";
  scan ~jobs ~title ~budget:max_errors ~check:(tolerant ~max_errors) text

let read path = In_channel.with_open_bin path In_channel.input_all

let parse_file ?jobs path =
  parse_string ?jobs ~title:(Filename.basename path) (read path)

let parse_file_tolerant ?jobs ?(max_errors = default_max_errors) path =
  if max_errors < 0 then invalid_arg "Parser.parse_file_tolerant: max_errors < 0";
  parse_string_tolerant ?jobs ~max_errors ~title:(Filename.basename path) (read path)

(** One-pass scanner for the IBM-power-grid-benchmark SPICE subset.

    The deck is read in one go and scanned line by line (lines end at
    ['\n']). Per line:
    - a ['$'] starts an inline comment;
    - the rest is trimmed of space, ['\t'], ['\n'], ['\r'] and
      ['\012'] ({!String.trim}'s set);
    - an empty line, or one starting with ['*'] (comment) or ['.']
      ([.op], [.end] and other dot-cards), is skipped;
    - otherwise it splits into fields on space and ['\t'] only, and must
      have four: [R<id> <node> <node> <value>] (resistor),
      [I<id> ...] (DC current source) or [V<id> ...] (DC voltage
      source), the leading letter in either case.

    Values accept scientific notation (including [+]-prefixed
    exponents) plus the usual SPICE magnitude suffixes
    ([t g meg k m u n p f]), optionally followed by unit text
    ("1.2ku", "15.6ma", "3.3megohm", "5v"). A value that overflows to
    an infinity ("1e999", "1e300t") is rejected like a malformed one.

    Nodes are interned straight from the deck bytes, numbered by first
    appearance with each element's second node before its first (the
    rule {!Netlist.Builder} follows). A canonical name
    ([n<layer>_<x>_<y>]) is decoded once, in place, and looked up by its
    coordinates; nothing is allocated for it.

    With [jobs > 1] the deck is cut at line boundaries into up to
    [jobs] ranges of about equal size (at least 256 KiB each), each
    scanned in one pass by its own {!Netlist.Builder} on its own domain
    ({!Numerics.Parallel.map}), then merged ({!Netlist.Builder.merge})
    into the netlist a one-range scan produces: same node ids, columns,
    names and errors. [jobs] defaults to 1; [jobs < 1] raises
    [Invalid_argument].

    Two parsing modes:
    - strict ({!parse_string} / {!parse_file}): the first malformed
      line raises {!Parse_error};
    - recovery ({!parse_string_tolerant} / {!parse_file_tolerant}):
      malformed lines are skipped and recorded as {!line_error}s, up to
      a [max_errors] budget — exceeding the budget raises
      {!Parse_error}, so a wholly-wrong file still fails fast.

    Both modes report in line order whatever [jobs] is: the strict error
    is the deck's first malformed line, and recovery mode logs its
    warnings, keeps its budget and words its abort as a one-range scan
    does (each range stops early once it alone exceeds the budget). *)

exception Parse_error of { line : int; message : string }

type line_error = { line : int; message : string }
(** One skipped line in recovery mode: 1-based line number and the
    reason it was rejected. *)

val default_max_errors : int
(** Budget used when [max_errors] is omitted (20). *)

val parse_value : string -> float
(** Parse a single numeric literal with optional suffix; raises
    [Failure] on malformed or non-finite input. *)

val parse_string : ?jobs:int -> ?title:string -> string -> Netlist.t
(** Raises {!Parse_error} with a 1-based line number on bad input. *)

val parse_file : ?jobs:int -> string -> Netlist.t
(** [parse_file path]; the title defaults to the file's basename. *)

val parse_string_tolerant :
  ?jobs:int -> ?max_errors:int -> ?title:string -> string -> Netlist.t * line_error list
(** Recovery mode: returns the netlist built from the well-formed lines
    plus the skipped lines in file order. Raises {!Parse_error} when
    more than [max_errors] lines are malformed, [Invalid_argument] when
    [max_errors < 0]. *)

val parse_file_tolerant :
  ?jobs:int -> ?max_errors:int -> string -> Netlist.t * line_error list
(** {!parse_string_tolerant} over a file. *)

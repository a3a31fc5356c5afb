(** Structured diagnostics for the EM pipeline.

    A diagnostic carries a severity, a stable machine-readable code, a
    source location (netlist line, structure id, node id, or global),
    and a human-readable message. The flow layers accumulate
    diagnostics instead of aborting: recovery-mode SPICE parsing
    records malformed lines, per-structure fault isolation in
    {!Emflow.Em_flow} records structures whose analysis threw or
    produced degenerate results, and `emcheck analyze` turns the
    totals into an exit-code policy ([--strict] / [--keep-going]).

    Severity taxonomy:
    - [Error]: a result is missing or untrustworthy (skipped structure,
      dropped netlist line). Keep-going runs complete but must not be
      signed off on without review.
    - [Warning]: the result is complete but something deserves
      attention (lint findings, the traditional Blech filter clearing
      mortal segments).
    - [Info]: neutral notes for reports. *)

type severity = Info | Warning | Error

type source =
  | Global  (** no specific location (whole-netlist lints, run notes) *)
  | Netlist_line of int  (** 1-based line in the input deck *)
  | Structure of { index : int; layer : int }
      (** extracted structure by position in the analyzed batch and
          metal level *)
  | Node of { structure : int; layer : int; node : int }
      (** a specific node of an extracted structure *)

type t = {
  severity : severity;
  code : string;  (** stable identifier, e.g. ["degenerate-structure"] *)
  source : source;
  message : string;
}

val make : ?source:source -> severity -> code:string -> string -> t
(** [source] defaults to {!Global}. *)

val error : ?source:source -> code:string -> string -> t

val warning : ?source:source -> code:string -> string -> t

val info : ?source:source -> code:string -> string -> t

val severity_to_string : severity -> string
(** ["info"], ["warning"], ["error"] — stable, used by JSON output. *)

val errors : t list -> t list

val warnings : t list -> t list

val count_errors : t list -> int

val count_warnings : t list -> int

val worst : t list -> severity option
(** Highest severity present, [None] on an empty list. *)

val pp : Format.formatter -> t -> unit
(** One line: [severity[code] source: message]. *)

val pp_summary : Format.formatter -> t list -> unit
(** ["N error(s), M warning(s)"] — the counts {!count_errors} /
    {!count_warnings} report. *)

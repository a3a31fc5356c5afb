type severity = Info | Warning | Error

type source =
  | Global
  | Netlist_line of int
  | Structure of { index : int; layer : int }
  | Node of { structure : int; layer : int; node : int }

type t = {
  severity : severity;
  code : string;
  source : source;
  message : string;
}

let make ?(source = Global) severity ~code message =
  { severity; code; source; message }

let error ?source ~code message = make ?source Error ~code message

let warning ?source ~code message = make ?source Warning ~code message

let info ?source ~code message = make ?source Info ~code message

let severity_to_string = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

let errors ds = List.filter (fun d -> d.severity = Error) ds

let warnings ds = List.filter (fun d -> d.severity = Warning) ds

let count_errors ds = List.length (errors ds)

let count_warnings ds = List.length (warnings ds)

let rank = function Info -> 0 | Warning -> 1 | Error -> 2

let worst = function
  | [] -> None
  | d :: ds ->
    Some
      (List.fold_left
         (fun acc d -> if rank d.severity > rank acc then d.severity else acc)
         d.severity ds)

let pp_source ppf = function
  | Global -> Format.pp_print_string ppf "global"
  | Netlist_line l -> Format.fprintf ppf "line %d" l
  | Structure { index; layer } ->
    Format.fprintf ppf "structure #%d (M%d)" index layer
  | Node { structure; layer; node } ->
    Format.fprintf ppf "structure #%d (M%d) node %d" structure layer node

let pp ppf d =
  Format.fprintf ppf "%s[%s] %a: %s"
    (severity_to_string d.severity)
    d.code pp_source d.source d.message

let pp_summary ppf ds =
  Format.fprintf ppf "%d error(s), %d warning(s)" (count_errors ds)
    (count_warnings ds)

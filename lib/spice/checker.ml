type severity = Warning | Error

type finding = { severity : severity; code : string; message : string }

let finding severity code fmt =
  Printf.ksprintf (fun message -> { severity; code; message }) fmt

(* Open addressing over element ids keyed by name, linear probing from
   slot [i]: a slot holds id + 1, 0 when empty. [true] when an earlier
   element already has [e]'s name; else [e] is recorded. *)
let rec seen_name net slots e i =
  let d = slots.(i) - 1 in
  if d < 0 then begin
    slots.(i) <- e + 1;
    false
  end
  else
    Netlist.same_name net d e
    || seen_name net slots e ((i + 1) land (Array.length slots - 1))

let check (net : Netlist.t) =
  let ne = Netlist.num_elements net and stats = Netlist.stats net in
  let cap = ref 16 in
  while !cap < 2 * ne do cap := 2 * !cap done;
  let slots = Array.make !cap 0 in
  let dups = ref [] and loads = ref [] and shorts = ref 0 in
  (* Conductive degree per node. *)
  let degree = Array.make (Netlist.num_nodes net) 0 in
  for e = 0 to ne - 1 do
    if seen_name net slots e (Netlist.name_hash net e land (!cap - 1)) then
      dups :=
        finding Warning "duplicate-element" "element name %S reused"
          (Netlist.element_name net e)
        :: !dups;
    let p = net.Netlist.pos.(e) and q = net.Netlist.neg.(e) in
    match Netlist.kind net e with
    | Current_source ->
      if net.Netlist.values.(e) = 0. then
        loads :=
          finding Warning "zero-current-load" "current source %S is 0 A"
            (Netlist.element_name net e)
          :: !loads
    | Resistor | Voltage_source as k ->
      if k = Resistor && net.Netlist.values.(e) = 0. then incr shorts;
      degree.(p) <- degree.(p) + 1;
      degree.(q) <- degree.(q) + 1
  done;
  let out = ref (!loads @ !dups) in
  let add f = out := f :: !out in
  Array.iteri
    (fun i d ->
      if d = 0 then
        add
          (finding Warning "isolated-node" "node %S has no conductive element"
             (Netlist.node_name net i)))
    degree;
  if stats.resistors = 0 then
    add (finding Error "no-resistors" "netlist contains no resistors");
  if stats.voltage_sources = 0 then
    add (finding Error "no-supply" "netlist contains no voltage sources");
  if !shorts > 0 then
    add
      (finding Warning "short" "%d zero-ohm resistor(s) will be merged as shorts"
         !shorts);
  List.rev !out

let errors findings =
  List.filter (fun f -> f.severity = Error) findings

let pp_finding ppf f =
  Format.fprintf ppf "%s [%s]: %s"
    (match f.severity with Warning -> "warning" | Error -> "error")
    f.code f.message

type severity = Warning | Error

type finding = { severity : severity; code : string; message : string }

let finding severity code fmt =
  Printf.ksprintf (fun message -> { severity; code; message }) fmt

(* The number in [s.[i .. stop - 1]]: decimal digits without a leading
   zero, below [bound]; -1 for anything else. *)
let rec number s i stop acc bound =
  if i = stop then acc
  else
    match String.unsafe_get s i with
    | '0' .. '9' as c
      when (acc > 0 || c <> '0' || i = stop - 1) && (10 * acc) + Char.code c - 48 < bound ->
      number s (i + 1) stop ((10 * acc) + Char.code c - 48) bound
    | _ -> -1

let check (net : Netlist.t) =
  let ne = Netlist.num_elements net and stats = Netlist.stats net in
  let arena = net.Netlist.name_arena and ends = net.Netlist.name_end in
  (* Duplicate names. A canonical one, a byte then a number below
     [bound], is one bit of that byte's set; any other, a key of a hash
     table. The two never meet. *)
  let bound = (4 * ne) + 16 and sets = Array.make 256 Bytes.empty and others = Hashtbl.create 16 in
  let duplicate e =
    let st = if e = 0 then 0 else ends.(e - 1) in
    match if ends.(e) - st < 2 then -1 else number arena (st + 1) ends.(e) 0 bound with
    | -1 ->
      let name = Netlist.element_name net e in
      Hashtbl.mem others name || (Hashtbl.add others name (); false)
    | n ->
      let c = Char.code arena.[st] in
      if sets.(c) == Bytes.empty then sets.(c) <- Bytes.make ((bound lsr 3) + 1) '\000';
      let byte = Bytes.get_uint8 sets.(c) (n lsr 3) and bit = 1 lsl (n land 7) in
      Bytes.set_uint8 sets.(c) (n lsr 3) (byte lor bit);
      byte land bit <> 0
  in
  let dups = ref [] and loads = ref [] and shorts = ref 0 in
  (* Conductive degree per node. *)
  let degree = Array.make (Netlist.num_nodes net) 0 in
  for e = 0 to ne - 1 do
    if duplicate e then
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

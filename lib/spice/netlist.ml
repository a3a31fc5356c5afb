type kind = Resistor | Current_source | Voltage_source

type t = {
  title : string;
  node_names : string array;
  coords : int array;
  index : int array;
  kinds : Bytes.t;
  pos : int array;
  neg : int array;
  values : float array;
  name_arena : string;
  name_end : int array;
  ground : int option;
}

let no_layer = min_int

let num_nodes t = Array.length t.node_names

let num_elements t = Array.length t.values

let node_name t i =
  if i < 0 || i >= num_nodes t then invalid_arg "Netlist.node_name";
  t.node_names.(i)

let code = function Resistor -> 'R' | Current_source -> 'I' | Voltage_source -> 'V'

let kind t e =
  match Bytes.get t.kinds e with 'R' -> Resistor | 'I' -> Current_source | _ -> Voltage_source

let name_start t e = if e = 0 then 0 else t.name_end.(e - 1)

let element_name t e =
  String.sub t.name_arena (name_start t e) (t.name_end.(e) - name_start t e)

let hash_slice s off len =
  let h = ref 0x0bf29ce484222325 in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x100000001b3
  done;
  let h = (!h lxor (!h lsr 32)) * 0x1ce4e5b9 in
  h lxor (h lsr 29)

let rec slice_equal a aoff b boff len =
  len = 0
  || String.unsafe_get a aoff = String.unsafe_get b boff
     && slice_equal a (aoff + 1) b (boff + 1) (len - 1)

let name_hash t e =
  hash_slice t.name_arena (name_start t e) (t.name_end.(e) - name_start t e)

let same_name t a b =
  let sa = name_start t a and sb = name_start t b in
  let len = t.name_end.(a) - sa in
  t.name_end.(b) - sb = len && slice_equal t.name_arena sa t.name_arena sb len

(* Open addressing over node ids, linear probing: a slot holds
   [(id + 1) lsl 16] plus the low 16 bits of the name's hash (a tag that
   spares most mismatching probes a visit to the name), 0 when empty;
   the next hash bits pick the first slot. [lookup] returns the slot that
   holds the node named by the slice, or the empty one where it would
   go. *)
let tag h = h land 0xffff

let rec probe slots names s off len h i =
  let slot = slots.(i) in
  let id = (slot lsr 16) - 1 in
  if slot = 0
     || tag slot = tag h && String.length names.(id) = len && slice_equal names.(id) 0 s off len
  then i
  else probe slots names s off len h ((i + 1) land (Array.length slots - 1))

let lookup slots names s off len h =
  probe slots names s off len h ((h lsr 16) land (Array.length slots - 1))

let find_id slots names name =
  let len = String.length name in
  (slots.(lookup slots names name 0 len (hash_slice name 0 len)) lsr 16) - 1

let find_node t name =
  match find_id t.index t.node_names name with -1 -> None | id -> Some id

let check_value kind value =
  if kind = Resistor && value < 0. then invalid_arg "Netlist: negative resistance"

module Builder = struct
  type nonrec netlist = t

  type t = {
    title : string;
    mutable names : string array;
    mutable slots : int array;
    mutable num_nodes : int;
    mutable kinds : Bytes.t;
    mutable pos : int array;
    mutable neg : int array;
    mutable values : float array;
    mutable name_end : int array;
    mutable num_elements : int;
    arena : Buffer.t;
    mutable auto_id : int;
    mutable finished : bool; (* the netlist now owns the arrays *)
  }

  let create ?(title = "blech netlist") () =
    { title; names = [||]; slots = Array.make 16 0; num_nodes = 0; kinds = Bytes.empty;
      pos = [||]; neg = [||]; values = [||]; name_end = [||]; num_elements = 0;
      arena = Buffer.create 4096; auto_id = 0; finished = false }

  let check_open b = if b.finished then invalid_arg "Netlist.Builder: used after finish"

  (* Room for that many elements and nodes, the table at most 3/4 full. *)
  let reserve b ~elements ~nodes =
    check_open b;
    let fit a n fill =
      if n <= Array.length a then a else Array.append a (Array.make (n - Array.length a) fill)
    in
    b.names <- fit b.names nodes "";
    if elements > Bytes.length b.kinds then begin
      b.kinds <- Bytes.extend b.kinds 0 (elements - Bytes.length b.kinds);
      b.pos <- fit b.pos elements 0;
      b.neg <- fit b.neg elements 0;
      b.values <- fit b.values elements 0.;
      b.name_end <- fit b.name_end elements 0
    end;
    let cap = ref (Array.length b.slots) in
    while 4 * nodes > 3 * !cap do cap := 2 * !cap done;
    if !cap > Array.length b.slots then begin
      let slots = Array.make !cap 0 in
      for id = 0 to b.num_nodes - 1 do
        let s = b.names.(id) in
        let h = hash_slice s 0 (String.length s) in
        slots.(lookup slots b.names s 0 (String.length s) h) <- ((id + 1) lsl 16) lor tag h
      done;
      b.slots <- slots
    end

  let intern b s off len =
    if off < 0 || len < 0 || off > String.length s - len then
      invalid_arg "Netlist.Builder.intern: slice out of bounds";
    let id = b.num_nodes in
    if id = Array.length b.names then reserve b ~elements:0 ~nodes:((2 * id) + 16);
    let h = hash_slice s off len in
    let i = lookup b.slots b.names s off len h in
    if b.slots.(i) > 0 then (b.slots.(i) lsr 16) - 1
    else begin
      check_open b;
      b.names.(id) <- (if off = 0 && len = String.length s then s else String.sub s off len);
      b.slots.(i) <- ((id + 1) lsl 16) lor tag h;
      b.num_nodes <- id + 1;
      id
    end

  let node b name = intern b name 0 (String.length name)

  let push b kind s ~off ~len ~pos ~neg value =
    check_open b;
    let e = b.num_elements in
    if e = Array.length b.pos then reserve b ~elements:((2 * e) + 16) ~nodes:0;
    Bytes.set b.kinds e (code kind);
    b.pos.(e) <- pos;
    b.neg.(e) <- neg;
    b.values.(e) <- value;
    Buffer.add_substring b.arena s off len;
    b.name_end.(e) <- Buffer.length b.arena;
    b.num_elements <- e + 1

  let add b kind s ~off ~len ~pos ~neg value =
    if pos < 0 || pos >= b.num_nodes || neg < 0 || neg >= b.num_nodes then
      invalid_arg "Netlist.Builder.add: node out of range";
    check_value kind value;
    push b kind s ~off ~len ~pos ~neg value

  let add_named b kind prefix name n1 n2 value =
    check_value kind value;
    let name =
      match name with
      | Some n -> n
      | None ->
        b.auto_id <- b.auto_id + 1;
        Printf.sprintf "%s%d" prefix b.auto_id
    in
    (* The second node is interned before the first: node ids feed the
       solver's ordering tie-breaks, and so the last bits of every
       result, and the deck scanner numbers nodes the same way. *)
    let neg = node b n2 in
    let pos = node b n1 in
    push b kind name ~off:0 ~len:(String.length name) ~pos ~neg value

  let add_resistor b ?name n1 n2 ohms = add_named b Resistor "R" name n1 n2 ohms

  let add_current_source b ?name n1 n2 amps = add_named b Current_source "I" name n1 n2 amps

  let add_voltage_source b ?name n1 n2 volts = add_named b Voltage_source "V" name n1 n2 volts

  let num_nodes b = b.num_nodes

  (* The netlist takes over the arrays: exact-size ones are not copied. *)
  let finish b : netlist =
    let fit a n = if Array.length a = n then a else Array.sub a 0 n in
    let ne = b.num_elements in
    let node_names = fit b.names b.num_nodes in
    let coords = Array.make (3 * b.num_nodes) 0 in
    Array.iteri
      (fun v name ->
        match Ibm_format.decode name with
        | Some { Ibm_format.layer; x; y } ->
          coords.(3 * v) <- layer;
          coords.((3 * v) + 1) <- x;
          coords.((3 * v) + 2) <- y
        | None -> coords.(3 * v) <- no_layer)
      node_names;
    b.finished <- true;
    { title = b.title; node_names; coords; index = b.slots;
      kinds = Bytes.sub b.kinds 0 ne; pos = fit b.pos ne; neg = fit b.neg ne;
      values = fit b.values ne; name_arena = Buffer.contents b.arena;
      name_end = fit b.name_end ne;
      ground = (match find_id b.slots b.names "0" with -1 -> None | id -> Some id) }
end

let with_values t values =
  if Array.length values <> num_elements t then
    invalid_arg "Netlist.with_values: one value per element";
  Array.iteri (fun e v -> check_value (kind t e) v) values;
  { t with values }

type stats = {
  nodes : int;
  resistors : int;
  current_sources : int;
  voltage_sources : int;
}

let stats t =
  let count c = Bytes.fold_left (fun n k -> if k = c then n + 1 else n) 0 t.kinds in
  { nodes = num_nodes t; resistors = count 'R'; current_sources = count 'I';
    voltage_sources = count 'V' }

let pp_stats ppf t =
  let s = stats t in
  Format.fprintf ppf "%s: %d nodes, %d R, %d I, %d V" t.title s.nodes
    s.resistors s.current_sources s.voltage_sources

let iter_lines t line =
  for e = 0 to num_elements t - 1 do
    line (element_name t e) t.node_names.(t.pos.(e)) t.node_names.(t.neg.(e)) t.values.(e)
  done

let output oc t =
  Printf.fprintf oc "* %s\n" t.title;
  iter_lines t (Printf.fprintf oc "%s %s %s %.10g\n");
  output_string oc ".op\n.end\n"

let to_string t =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "* %s\n" t.title;
  iter_lines t (Printf.bprintf buf "%s %s %s %.10g\n");
  Buffer.add_string buf ".op\n.end\n";
  Buffer.contents buf

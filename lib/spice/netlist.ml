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
   [(id + 1) lsl 32] plus the low 32 bits of the name's hash (its key,
   which spares nearly every mismatching probe a visit to the name), 0
   when empty. A key's first slot is the key scaled to the table, so
   every table holds its nodes in key order up to displacement, and two
   tables can be walked side by side. [lookup] returns the slot that
   holds the node named by the slice, or the empty one where it would
   go. *)
let key h = h land 0xffff_ffff

let home slots k = (k * Array.length slots) lsr 32

let next slots i = (i + 1) land (Array.length slots - 1)

let rec probe slots names s off len k i =
  let slot = slots.(i) in
  if slot = 0
     || key slot = k
        && (let name = names.((slot lsr 32) - 1) in
            String.length name = len && slice_equal name 0 s off len)
  then i
  else probe slots names s off len k (next slots i)

let lookup slots names s off len h = probe slots names s off len (key h) (home slots (key h))

let id_at slots i = (slots.(i) lsr 32) - 1

let find_id slots names name =
  let len = String.length name in
  id_at slots (lookup slots names name 0 len (hash_slice name 0 len))

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
    mutable coords : int array; (* the first [sealed] nodes' coordinates *)
    mutable sealed : int;
    mutable kinds : Bytes.t;
    mutable pos : int array;
    mutable neg : int array;
    mutable values : float array;
    mutable name_end : int array;
    base : int; (* column slot of this builder's first element *)
    limit : int; (* column slot bound of a range builder, else [max_int] *)
    nodes_hint : int; (* node capacity the table first grows to *)
    mutable num_elements : int;
    arena : Buffer.t;
    mutable auto_id : int;
    mutable finished : bool; (* the netlist now owns the arrays *)
  }

  let create ?(title = "blech netlist") () =
    { title; names = [||]; slots = Array.make 16 0; num_nodes = 0; coords = [||];
      sealed = 0; kinds = Bytes.empty; pos = [||]; neg = [||]; values = [||];
      name_end = [||]; base = 0; limit = max_int; nodes_hint = 0; num_elements = 0;
      arena = Buffer.create 4096; auto_id = 0; finished = false }

  let check_open b = if b.finished then invalid_arg "Netlist.Builder: used after finish"

  let fit a n fill =
    if n <= Array.length a then a else Array.append a (Array.make (n - Array.length a) fill)

  (* Room for that many nodes in all, the table at most 3/4 full. *)
  let reserve_nodes b nodes =
    check_open b;
    b.names <- fit b.names nodes "";
    let cap = ref (Array.length b.slots) in
    while 4 * nodes > 3 * !cap do cap := 2 * !cap done;
    if !cap > Array.length b.slots then begin
      let slots = Array.make !cap 0 in
      for id = 0 to b.num_nodes - 1 do
        let s = b.names.(id) in
        let h = hash_slice s 0 (String.length s) in
        slots.(lookup slots b.names s 0 (String.length s) h) <- ((id + 1) lsl 32) lor key h
      done;
      b.slots <- slots
    end

  let intern b s off len =
    if off < 0 || len < 0 || off > String.length s - len then
      invalid_arg "Netlist.Builder.intern: slice out of bounds";
    let id = b.num_nodes in
    if id = Array.length b.names then reserve_nodes b (max b.nodes_hint ((2 * id) + 16));
    let h = hash_slice s off len in
    let i = lookup b.slots b.names s off len h in
    if b.slots.(i) > 0 then id_at b.slots i
    else begin
      check_open b;
      b.names.(id) <- (if off = 0 && len = String.length s then s else String.sub s off len);
      b.slots.(i) <- ((id + 1) lsl 32) lor key h;
      b.num_nodes <- id + 1;
      id
    end

  let node b name = intern b name 0 (String.length name)

  let push b kind s ~off ~len ~pos ~neg value =
    check_open b;
    let i = b.base + b.num_elements in
    if i = b.limit then invalid_arg "Netlist.Builder: range full";
    if i = Array.length b.pos then begin
      let n = (2 * i) + 16 in
      b.kinds <- Bytes.extend b.kinds 0 (n - Bytes.length b.kinds);
      b.pos <- fit b.pos n 0;
      b.neg <- fit b.neg n 0;
      b.values <- fit b.values n 0.;
      b.name_end <- fit b.name_end n 0
    end;
    Bytes.set b.kinds i (code kind);
    b.pos.(i) <- pos;
    b.neg.(i) <- neg;
    b.values.(i) <- value;
    Buffer.add_substring b.arena s off len;
    b.name_end.(i) <- Buffer.length b.arena;
    b.num_elements <- b.num_elements + 1

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

  (* Ranges share one set of columns, exactly as long as their
     capacities together, so a clean deck's columns go into the netlist
     uncopied. Each range's node table is allocated by its first intern,
     on the range's own domain, sized for as many nodes as elements (in
     practice a bound, as in a one-range scan); the first range's for
     every range's nodes. *)
  let ranges ?title capacities =
    let total = Array.fold_left ( + ) 0 capacities in
    let kinds = Bytes.create total and pos = Array.make total 0
    and neg = Array.make total 0 and values = Array.create_float total
    and name_end = Array.make total 0 in
    let base = ref 0 in
    Array.mapi
      (fun r capacity ->
        if capacity < 0 then invalid_arg "Netlist.Builder.ranges: negative capacity";
        let b =
          { (create ?title ()) with kinds; pos; neg; values; name_end; base = !base;
            limit = !base + capacity; nodes_hint = (if r = 0 then total else capacity) }
        in
        base := b.limit;
        b)
      capacities

  let seal b =
    if b.sealed < b.num_nodes then begin
      let coords = Array.make (3 * b.num_nodes) 0 in
      Array.blit b.coords 0 coords 0 (3 * b.sealed);
      for v = b.sealed to b.num_nodes - 1 do
        match Ibm_format.decode b.names.(v) with
        | Some { Ibm_format.layer; x; y } ->
          coords.(3 * v) <- layer;
          coords.((3 * v) + 1) <- x;
          coords.((3 * v) + 2) <- y
        | None -> coords.(3 * v) <- no_layer
      done;
      b.coords <- coords;
      b.sealed <- b.num_nodes
    end

  (* The ids in [b0] of [b]'s nodes, -1 for a node [b0] lacks. [b]'s
     table is walked in slot order, in runs spread over [jobs] domains,
     so the probes of [b0]'s table (in key order too) move forward
     through it, and names are read only on a key match. *)
  let resolve ~jobs b0 b =
    let size = Array.length b.slots in
    let ids = Array.make b.num_nodes (-1) in
    let runs = max 1 (min (8 * jobs) (size / 65536)) in
    ignore
      (Numerics.Parallel.map ~jobs
         (fun r ->
           for i = r * size / runs to ((r + 1) * size / runs) - 1 do
             let slot = b.slots.(i) in
             if slot <> 0 then begin
               let l = (slot lsr 32) - 1 and k = key slot in
               let rec find j =
                 let slot0 = b0.slots.(j) in
                 if slot0 = 0 then -1
                 else if key slot0 = k && String.equal b0.names.((slot0 lsr 32) - 1) b.names.(l)
                 then (slot0 lsr 32) - 1
                 else find (next b0.slots j)
               in
               ids.(l) <- find (home b0.slots k)
             end
           done)
         (Array.init runs Fun.id));
    ids

  (* Later ranges join the first in place. A later range's new nodes
     take the next ids in its local order (a one-range scan meets them
     in that order too) and enter the first range's table in key order;
     its elements move down over any unused capacity, node ids remapped
     and name ends shifted past the arenas before them. The netlist
     takes over the arrays: exact-size ones are not copied. *)
  let merge ?(jobs = 1) bs : netlist =
    let b0 = if bs = [||] then invalid_arg "Netlist.Builder.merge: no builder" else bs.(0) in
    if b0.base <> 0 then invalid_arg "Netlist.Builder.merge: not the first range";
    Array.iteri
      (fun r b ->
        check_open b;
        if r > 0 && (b.pos != b0.pos || b.base <> bs.(r - 1).limit) then
          invalid_arg "Netlist.Builder.merge: not consecutive ranges of one set")
      bs;
    Array.iter seal bs;
    let fresh = Array.make (Array.length bs) 0 in
    let maps =
      Array.mapi
        (fun r b ->
          fresh.(r) <- b0.num_nodes;
          if r = 0 then [||]
          else begin
            let ids = resolve ~jobs b0 b in
            let added = Array.fold_left (fun n id -> if id < 0 then n + 1 else n) 0 ids in
            reserve_nodes b0 (max b0.nodes_hint (b0.num_nodes + added));
            Array.iteri
              (fun l id ->
                if id < 0 then begin
                  ids.(l) <- b0.num_nodes;
                  b0.names.(b0.num_nodes) <- b.names.(l);
                  b0.num_nodes <- b0.num_nodes + 1
                end)
              ids;
            Array.iter
              (fun slot ->
                let v = if slot = 0 then -1 else ids.((slot lsr 32) - 1) in
                if v >= fresh.(r) then begin
                  let rec free i = if b0.slots.(i) = 0 then i else free (next b0.slots i) in
                  b0.slots.(free (home b0.slots (key slot))) <- ((v + 1) lsl 32) lor key slot
                end)
              b.slots;
            ids
          end)
        bs
    in
    let coords =
      if b0.sealed = b0.num_nodes then b0.coords
      else begin
        let coords = Array.make (3 * b0.num_nodes) 0 in
        Array.blit b0.coords 0 coords 0 (3 * b0.sealed);
        coords
      end
    in
    let arena = Bytes.create (Array.fold_left (fun n b -> n + Buffer.length b.arena) 0 bs) in
    let dst = ref 0 and shift = ref 0 in
    Array.iteri
      (fun r b ->
        let map = maps.(r) in
        if r > 0 then begin
          Array.iteri
            (fun l v ->
              if v >= fresh.(r) then
                for c = 0 to 2 do
                  coords.((3 * v) + c) <- b.coords.((3 * l) + c)
                done)
            map;
          for e = 0 to b.num_elements - 1 do
            let s = b.base + e and d = !dst + e in
            Bytes.unsafe_set b0.kinds d (Bytes.unsafe_get b0.kinds s);
            b0.pos.(d) <- map.(b0.pos.(s));
            b0.neg.(d) <- map.(b0.neg.(s));
            b0.values.(d) <- b0.values.(s);
            b0.name_end.(d) <- b0.name_end.(s) + !shift
          done
        end;
        Buffer.blit b.arena 0 arena !shift (Buffer.length b.arena);
        dst := !dst + b.num_elements;
        shift := !shift + Buffer.length b.arena;
        b.finished <- true)
      bs;
    let cut a n = if Array.length a = n then a else Array.sub a 0 n in
    let ne = !dst in
    { title = b0.title; node_names = cut b0.names b0.num_nodes; coords; index = b0.slots;
      kinds = Bytes.sub b0.kinds 0 ne; pos = cut b0.pos ne; neg = cut b0.neg ne;
      values = cut b0.values ne; name_arena = Bytes.unsafe_to_string arena;
      name_end = cut b0.name_end ne;
      ground = (match find_id b0.slots b0.names "0" with -1 -> None | id -> Some id) }

  let finish b = merge [| b |]
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

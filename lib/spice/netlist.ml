type kind = Resistor | Current_source | Voltage_source

type t = {
  title : string;
  coords : int array;
  index : int array;
  node_end : int array;
  node_arena : string;
  kinds : Bytes.t;
  pos : int array;
  neg : int array;
  values : float array;
  name_arena : string;
  name_end : int array;
  ground : int option;
}

let no_layer = min_int

let num_nodes t = Array.length t.node_end

let num_elements t = Array.length t.values

let code = function Resistor -> 'R' | Current_source -> 'I' | Voltage_source -> 'V'

let kind t e =
  match Bytes.get t.kinds e with 'R' -> Resistor | 'I' -> Current_source | _ -> Voltage_source

let start ends i = if i = 0 then 0 else ends.(i - 1)

let element_name t e =
  String.sub t.name_arena (start t.name_end e) (t.name_end.(e) - start t.name_end e)

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

(* The interning table: open addressing over node ids, linear probing.
   A slot holds [(id + 1) lsl 32] plus a 32-bit key, 0 when empty. A
   canonical name's key is odd, a hash of its coordinates; any other
   name's is even, a hash of its bytes. Equal keys so mean the same kind
   of name, and nearly every mismatching probe is spared a look at the
   coordinates or bytes. A key's first slot is the key scaled to the
   table, so every table holds its nodes in key order up to
   displacement, and two tables can be walked side by side. *)
let key slot = slot land 0xffff_ffff

let coord_key l x y =
  let h = ((((l * 0x2545f4914f6cdd1d) + x) * 0x2545f4914f6cdd1d) + y) * 0x2545f4914f6cdd1d in
  ((h lxor (h lsr 29)) lsr 30) land 0xffff_ffff lor 1

let name_key s off len = hash_slice s off len land 0xffff_fffe

let home slots k = (k * Array.length slots) lsr 32

let next slots i = (i + 1) land (Array.length slots - 1)

let id_at slots i = (slots.(i) lsr 32) - 1

let rec probe_coords slots (coords : int array) (l : int) x y k i =
  let slot = slots.(i) in
  if slot = 0
     || key slot = k
        && (let v = 3 * id_at slots i in
            coords.(v) = l && coords.(v + 1) = x && coords.(v + 2) = y)
  then i
  else probe_coords slots coords l x y k (next slots i)

let rec probe_name slots ends arena s off len k i =
  let slot = slots.(i) in
  if slot = 0
     || key slot = k
        && (let v = id_at slots i in
            ends.(v) - start ends v = len && slice_equal arena (start ends v) s off len)
  then i
  else probe_name slots ends arena s off len k (next slots i)

let find_node t name =
  let p = [| 0; 0; 0 |] and len = String.length name and slots = t.index in
  let i =
    if Ibm_format.canonical name 0 len p then
      let k = coord_key p.(0) p.(1) p.(2) in
      probe_coords slots t.coords p.(0) p.(1) p.(2) k (home slots k)
    else
      let k = name_key name 0 len in
      probe_name slots t.node_end t.node_arena name 0 len k (home slots k)
  in
  if slots.(i) = 0 then None else Some (id_at slots i)

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

(* A canonical name is formatted from the coordinates. *)
let add_node_name buf t v =
  let st = start t.node_end v in
  if t.node_end.(v) > st then Buffer.add_substring buf t.node_arena st (t.node_end.(v) - st)
  else
    for c = 0 to 2 do
      Buffer.add_char buf (if c = 0 then 'n' else '_');
      add_digits buf t.coords.((3 * v) + c)
    done

let node_name t v =
  let buf = Buffer.create 24 in
  add_node_name buf t v;
  Buffer.contents buf

let check_value kind value =
  if kind = Resistor && value < 0. then invalid_arg "Netlist: negative resistance"

module Builder = struct
  type nonrec netlist = t

  type t = {
    title : string;
    mutable slots : int array;
    mutable num_nodes : int;
    mutable coords : int array;
    mutable node_end : int array;
    mutable node_arena : Bytes.t;
    parts : int array; (* scratch for a canonical name's coordinates *)
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

  let check_open b = if b.finished then invalid_arg "Netlist.Builder: used after finish"

  let fit a n fill =
    if n <= Array.length a then a
    else begin
      let b = Array.make n fill in
      Array.blit a 0 b 0 (Array.length a);
      b
    end

  let rec free slots i = if slots.(i) = 0 then i else free slots (next slots i)

  (* Room for that many nodes in all, the table at most 3/4 full. *)
  let reserve_nodes b nodes =
    check_open b;
    b.coords <- fit b.coords (3 * nodes) 0;
    b.node_end <- fit b.node_end nodes 0;
    let cap = ref (Array.length b.slots) in
    while 4 * nodes > 3 * !cap do cap := 2 * !cap done;
    if !cap > Array.length b.slots then begin
      let slots = Array.make !cap 0 in
      Array.iter (fun slot -> if slot <> 0 then slots.(free slots (home slots (key slot))) <- slot)
        b.slots;
      b.slots <- slots
    end

  let create ?(title = "blech netlist") ?(elements = 0) ?(nodes = elements) () =
    let elements = max 0 elements in
    let b =
      { title; slots = Array.make 16 0; num_nodes = 0; coords = [||]; node_end = [||];
        node_arena = Bytes.empty; parts = [| 0; 0; 0 |]; kinds = Bytes.create elements;
        pos = Array.make elements 0; neg = Array.make elements 0;
        values = Array.create_float elements; name_end = Array.make elements 0;
        num_elements = 0; arena = Buffer.create 4096; auto_id = 0; finished = false }
    in
    reserve_nodes b (max 0 nodes);
    b

  (* A new node: its coordinates, and its name's bytes unless the name
     is canonical ([len] = 0). *)
  let add_node b l x y s off len =
    check_open b;
    let v = b.num_nodes and at = start b.node_end b.num_nodes in
    b.coords.(3 * v) <- l;
    b.coords.((3 * v) + 1) <- x;
    b.coords.((3 * v) + 2) <- y;
    if at + len > Bytes.length b.node_arena then
      b.node_arena <- Bytes.extend b.node_arena 0 (at + len + Bytes.length b.node_arena + 16);
    if len > 0 then Bytes.blit_string s off b.node_arena at len;
    b.node_end.(v) <- at + len;
    b.num_nodes <- v + 1;
    v

  let set_slot b i k v =
    b.slots.(i) <- ((v + 1) lsl 32) lor k;
    v

  let room b =
    if b.num_nodes = Array.length b.node_end then reserve_nodes b ((2 * b.num_nodes) + 16)

  let coord_node b l x y =
    room b;
    let k = coord_key l x y in
    let i = probe_coords b.slots b.coords l x y k (home b.slots k) in
    if b.slots.(i) <> 0 then id_at b.slots i else set_slot b i k (add_node b l x y "" 0 0)

  let intern b s off len =
    if off < 0 || len <= 0 || off > String.length s - len then
      invalid_arg "Netlist.Builder.intern: empty slice or out of bounds";
    let p = b.parts in
    if Ibm_format.canonical s off len p then coord_node b p.(0) p.(1) p.(2)
    else begin
      room b;
      let k = name_key s off len in
      let arena = Bytes.unsafe_to_string b.node_arena in
      let i = probe_name b.slots b.node_end arena s off len k (home b.slots k) in
      if b.slots.(i) <> 0 then id_at b.slots i
      else
        set_slot b i k
          (match Ibm_format.decode (String.sub s off len) with
          | Some { Ibm_format.layer; x; y } -> add_node b layer x y s off len
          | None -> add_node b no_layer 0 0 s off len)
    end

  let node b name = intern b name 0 (String.length name)

  (* What a canonical name's part can hold: 1 to 18 digits. *)
  let part v = v >= 0 && v < 1_000_000_000_000_000_000

  let node_at b ~layer ~x ~y =
    if not (part layer && part x && part y) then
      invalid_arg "Netlist.Builder.node_at: coordinate negative or past 18 digits";
    coord_node b layer x y

  let push b kind s ~off ~len ~pos ~neg value =
    check_open b;
    let i = b.num_elements in
    if i = Array.length b.pos then begin
      let n = i + (i / 2) + 16 in
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
    if len > 0 then Buffer.add_substring b.arena s off len
    else begin
      b.auto_id <- b.auto_id + 1;
      Buffer.add_char b.arena (code kind);
      add_digits b.arena b.auto_id
    end;
    b.name_end.(i) <- Buffer.length b.arena;
    b.num_elements <- i + 1

  let add b kind s ~off ~len ~pos ~neg value =
    if pos < 0 || pos >= b.num_nodes || neg < 0 || neg >= b.num_nodes then
      invalid_arg "Netlist.Builder.add: node out of range";
    check_value kind value;
    push b kind s ~off ~len ~pos ~neg value

  let add_named b kind ?(name = "") n1 n2 value =
    check_value kind value;
    (* The second node is interned before the first: node ids feed the
       solver's ordering tie-breaks, and so the last bits of every
       result, and the deck scanner numbers nodes the same way. *)
    let neg = node b n2 in
    let pos = node b n1 in
    push b kind name ~off:0 ~len:(String.length name) ~pos ~neg value

  let add_resistor b ?name n1 n2 ohms = add_named b Resistor ?name n1 n2 ohms

  let add_current_source b ?name n1 n2 amps = add_named b Current_source ?name n1 n2 amps

  let add_voltage_source b ?name n1 n2 volts = add_named b Voltage_source ?name n1 n2 volts

  let num_nodes b = b.num_nodes

  (* The ids in [b0] of [b]'s nodes, -1 for a node [b0] lacks. [b]'s
     table is walked in slot order, in runs spread over [jobs] domains,
     so the probes of [b0]'s table (in key order too) move forward
     through it. *)
  let resolve ~jobs b0 b =
    let size = Array.length b.slots and ids = Array.make b.num_nodes (-1) in
    let runs = max 1 (min (8 * jobs) (size / 65536)) in
    let arena0 = Bytes.unsafe_to_string b0.node_arena
    and arena = Bytes.unsafe_to_string b.node_arena in
    ignore
      (Numerics.Parallel.map ~jobs
         (fun r ->
           for i = r * size / runs to ((r + 1) * size / runs) - 1 do
             if b.slots.(i) <> 0 then begin
               let l = id_at b.slots i and k = key b.slots.(i) in
               let c = 3 * l and st = start b.node_end l in
               let j =
                 if k land 1 = 1 then
                   probe_coords b0.slots b0.coords b.coords.(c) b.coords.(c + 1)
                     b.coords.(c + 2) k (home b0.slots k)
                 else
                   probe_name b0.slots b0.node_end arena0 arena st (b.node_end.(l) - st) k
                     (home b0.slots k)
               in
               if b0.slots.(j) <> 0 then ids.(l) <- id_at b0.slots j
             end
           done)
         (Array.init runs Fun.id));
    ids

  (* A later range joins the first: its new nodes take the next ids in
     its local order (a one-range scan meets them in that order too)
     and enter [b0]'s table in key order. Returns its local-to-merged id
     map. *)
  let join ~jobs b0 b =
    let ids = resolve ~jobs b0 b and fresh = b0.num_nodes in
    reserve_nodes b0 (fresh + Array.fold_left (fun n id -> if id < 0 then n + 1 else n) 0 ids);
    let arena = Bytes.unsafe_to_string b.node_arena in
    Array.iteri
      (fun l id ->
        if id < 0 then begin
          let c = 3 * l and st = start b.node_end l in
          ids.(l) <-
            add_node b0 b.coords.(c) b.coords.(c + 1) b.coords.(c + 2) arena st
              (b.node_end.(l) - st)
        end)
      ids;
    Array.iter
      (fun slot ->
        let v = if slot = 0 then -1 else ids.((slot lsr 32) - 1) in
        if v >= fresh then
          ignore (set_slot b0 (free b0.slots (home b0.slots (key slot))) (key slot) v))
      b.slots;
    ids

  let cut a n = if Array.length a = n then a else Array.sub a 0 n

  (* The builders' elements, one after another, copied into exact-size
     columns and one name arena, one range per task on [jobs] domains
     (node ids remapped through [maps], name ends shifted past the
     arenas before); the first, the lightest, also cuts the node ones. *)
  let columns ~jobs bs maps =
    let before f = Array.fold_left_map (fun sum b -> (sum + f b, sum)) 0 bs in
    let ne, first = before (fun b -> b.num_elements)
    and size, shift = before (fun b -> Buffer.length b.arena) in
    let kinds = Bytes.create ne and pos = Array.make ne 0 and neg = Array.make ne 0
    and values = Array.create_float ne and name_end = Array.make ne 0
    and arena = Bytes.create size in
    let nodes =
      Numerics.Parallel.map ~jobs
        (fun r ->
          let b = bs.(r) and d = first.(r) and map = maps.(r) in
          Bytes.blit b.kinds 0 kinds d b.num_elements;
          Array.blit b.values 0 values d b.num_elements;
          Buffer.blit b.arena 0 arena shift.(r) (Buffer.length b.arena);
          for e = 0 to b.num_elements - 1 do
            pos.(d + e) <- (if r = 0 then b.pos.(e) else map.(b.pos.(e)));
            neg.(d + e) <- (if r = 0 then b.neg.(e) else map.(b.neg.(e)));
            name_end.(d + e) <- b.name_end.(e) + shift.(r)
          done;
          if r > 0 then ([||], [||])
          else (cut b.coords (3 * b.num_nodes), cut b.node_end b.num_nodes))
        (Array.init (Array.length bs) Fun.id)
    in
    (kinds, pos, neg, values, name_end, Bytes.unsafe_to_string arena, nodes.(0))

  let merge ?(jobs = 1) bs : netlist =
    if bs = [||] then invalid_arg "Netlist.Builder.merge: no builder";
    Array.iter check_open bs;
    let b0 = bs.(0) in
    let maps = Array.mapi (fun r b -> if r = 0 then [||] else join ~jobs b0 b) bs in
    let kinds, pos, neg, values, name_end, arena, (coords, node_end) = columns ~jobs bs maps in
    Array.iter (fun b -> b.finished <- true) bs;
    let net =
      { title = b0.title; coords; index = b0.slots; node_end; kinds; pos; neg; values;
        node_arena = Bytes.sub_string b0.node_arena 0 (start node_end b0.num_nodes);
        name_arena = arena; name_end; ground = None }
    in
    { net with ground = find_node net "0" }

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

external format_float : string -> float -> string = "caml_format_float"

(* Values as [%.10g] prints them. The deck goes through one chunk
   buffer that [emit] drains whenever it fills, so a writer never holds
   more than a chunk of the formatted deck. *)
let chunk = 65536

let format emit t =
  let buf = Buffer.create (2 * chunk) in
  Buffer.add_string buf ("* " ^ t.title ^ "\n");
  for e = 0 to num_elements t - 1 do
    let st = start t.name_end e in
    Buffer.add_substring buf t.name_arena st (t.name_end.(e) - st);
    Buffer.add_char buf ' ';
    add_node_name buf t t.pos.(e);
    Buffer.add_char buf ' ';
    add_node_name buf t t.neg.(e);
    Buffer.add_char buf ' ';
    Buffer.add_string buf (format_float "%.10g" t.values.(e));
    Buffer.add_char buf '\n';
    if Buffer.length buf >= chunk then begin
      emit buf;
      Buffer.clear buf
    end
  done;
  Buffer.add_string buf ".op\n.end\n";
  emit buf

let to_string t =
  let out = Buffer.create (64 + (56 * num_elements t)) in
  format (Buffer.add_buffer out) t;
  Buffer.contents out

let output oc t = format (Buffer.output_buffer oc) t

module N = Spice.Netlist
module Mna = Spice.Mna
module St = Em_core.Structure

type em_structure = {
  layer_level : int;
  structure : St.t;
  node_names : string array;
  element_ids : int array;
}

type compact_structure = {
  cs_layer_level : int;
  compact : St.t;
  cs_netlist : N.t;
  cs_nodes : int array;
  cs_element_ids : int array;
}

let node_name cs i = N.node_name cs.cs_netlist cs.cs_nodes.(i)

(* Tech layer by metal level, O(1) per lookup; later table entries win
   on duplicate levels. *)
let level_lookup tech =
  let levels = Array.map (fun (l : Pdn.Tech.layer) -> l.Pdn.Tech.level) tech.Pdn.Tech.layers in
  let lut = Array.make (Array.fold_left max (-1) levels + 1) None in
  Array.iter (fun (l : Pdn.Tech.layer) -> lut.(l.Pdn.Tech.level) <- Some l) tech.Pdn.Tech.layers;
  lut

let lut_find lut level =
  if level < 0 || level >= Array.length lut then None else lut.(level)

let nm = 1e-9

let manhattan coords p q =
  abs (coords.((3 * p) + 1) - coords.((3 * q) + 1))
  + abs (coords.((3 * p) + 2) - coords.((3 * q) + 2))

(* One group's wires on one level, [ws.(first .. first + nw - 1)] in
   element order: one interning sweep, union-find grouping, then a
   counting sort by component. Each structure comes with where its
   union-find root first appears among the level's wires ([2 e] for
   element [e]'s tail, [2 e + 1] for its head), which is also where it
   appears among the whole level's wires: a component's unions, and so
   its root, depend on its own wires alone. [local] (netlist node ->
   level-local id) is reset by walking the wires again. *)
let extract_run (sol : Mna.solution) layer local ws first nw =
  let net = sol.Mna.netlist in
  let coords = net.N.coords and pos = net.N.pos and neg = net.N.neg in
  let level = layer.Pdn.Tech.level and thickness = layer.Pdn.Tech.thickness in
  let tail k = pos.(ws.(first + k)) and head k = neg.(ws.(first + k)) in
  (* Intern endpoints in wire order, tail before head. *)
  let rev_local = Array.make (2 * nw) 0 in
  let n_local = ref 0 in
  let intern id =
    if local.(id) < 0 then begin
      local.(id) <- !n_local;
      rev_local.(!n_local) <- id;
      incr n_local
    end
  in
  for k = 0 to nw - 1 do
    intern (tail k);
    intern (head k)
  done;
  let n_local = !n_local in
  let uf = Unionfind.create n_local in
  for k = 0 to nw - 1 do
    ignore (Unionfind.union uf local.(tail k) local.(head k))
  done;
  (* Stable counting sort of wires by component root: preserves the
     ascending element order inside each component. *)
  let root = Array.make nw 0 in
  let count = Array.make n_local 0 in
  for k = 0 to nw - 1 do
    let r = Unionfind.find uf local.(tail k) in
    root.(k) <- r;
    count.(r) <- count.(r) + 1
  done;
  let cstart = Array.make (n_local + 1) 0 in
  for r = 0 to n_local - 1 do
    cstart.(r + 1) <- cstart.(r) + count.(r)
  done;
  let order = Array.make nw 0 in
  let fill = Array.make n_local 0 in
  for k = 0 to nw - 1 do
    let r = root.(k) in
    order.(cstart.(r) + fill.(r)) <- k;
    fill.(r) <- fill.(r) + 1
  done;
  (* [fill] becomes where each local node first appears. *)
  let first_at = fill in
  Array.fill first_at 0 n_local (-1);
  for k = nw - 1 downto 0 do
    first_at.(local.(head k)) <- (2 * ws.(first + k)) + 1;
    first_at.(local.(tail k)) <- 2 * ws.(first + k)
  done;
  (* Per component ([comp_node] needs no reset: components partition
     the level's nodes), segments go into a pre-sized
     [Structure.Builder]. Width from the resistance (w = rho l / (R h))
     tracks repairs that rescale it; electron current flows towards
     higher potential. *)
  let comp_node = Array.make n_local (-1) in
  let out = ref [] in
  for r = 0 to n_local - 1 do
    let m = count.(r) in
    if m > 0 then begin
      let bld = St.Builder.create ~expected_segments:m () in
      let elems = Array.make m 0 in
      let cnodes = Array.make (m + 1) 0 in
      let nc = ref 0 in
      let cintern li =
        if comp_node.(li) < 0 then begin
          comp_node.(li) <- !nc;
          cnodes.(!nc) <- li;
          incr nc
        end;
        comp_node.(li)
      in
      for i = 0 to m - 1 do
        let k = order.(cstart.(r) + i) in
        let e = ws.(first + k) in
        let ohms = net.N.values.(e) in
        let length = float_of_int (manhattan coords pos.(e) neg.(e)) *. nm in
        let width = layer.Pdn.Tech.resistivity *. length /. (ohms *. thickness) in
        let j =
          (sol.Mna.voltages.(neg.(e)) -. sol.Mna.voltages.(pos.(e)))
          /. (ohms *. (width *. thickness))
        in
        let tail = cintern local.(pos.(e)) in
        let head = cintern local.(neg.(e)) in
        St.Builder.add_segment bld ~tail ~head ~length ~width ~height:thickness ~j;
        elems.(i) <- e
      done;
      let compact = St.Builder.finish bld ~num_nodes:!nc in
      let cs_nodes = Array.init !nc (fun i -> rev_local.(cnodes.(i))) in
      out :=
        ( first_at.(r),
          { cs_layer_level = level; compact; cs_netlist = net; cs_nodes;
            cs_element_ids = elems } )
        :: !out
    end
  done;
  for k = 0 to nw - 1 do
    local.(tail k) <- -1;
    local.(head k) <- -1
  done;
  !out

let extract_compact ?jobs ~tech (sol : Mna.solution) =
  let net = sol.Mna.netlist in
  let coords = net.N.coords and pos = net.N.pos and neg = net.N.neg in
  let lut = level_lookup tech in
  let num_levels = Array.length lut in
  (* Pass 1: the wires, resistors of positive resistance and length
     within one tech layer (a name without geometry reads
     [N.no_layer], which no tech has), by level; and the groups. No
     wire crosses the solve's nets, but wires can meet at a pinned node
     (a pad on a rail): such a node gets a key of its own, after the
     nets', and its wires join their keys. Every structure lies inside
     one group of joined keys. *)
  let ne = N.num_elements net and nets = sol.Mna.nets in
  let level_of = Array.make ne (-1) in
  let key = Array.copy sol.Mna.net_of_node and nkeys = ref nets and to_pins = ref [] in
  let pinned v = key.(v) < 0 || key.(v) >= nets in
  let key_pinned v = if key.(v) < 0 then (key.(v) <- !nkeys; incr nkeys) in
  for e = 0 to ne - 1 do
    let level = coords.(3 * pos.(e)) in
    if N.kind net e = N.Resistor && net.N.values.(e) > 0.
       && coords.(3 * neg.(e)) = level && lut_find lut level <> None
       && manhattan coords pos.(e) neg.(e) > 0
    then begin
      level_of.(e) <- level;
      if pinned pos.(e) || pinned neg.(e) then begin
        key_pinned pos.(e);
        key_pinned neg.(e);
        to_pins := e :: !to_pins
      end
    end
  done;
  let nkeys = !nkeys in
  let groups = Unionfind.create nkeys in
  List.iter (fun e -> ignore (Unionfind.union groups key.(pos.(e)) key.(neg.(e)))) !to_pins;
  (* Pass 2: a counting sort of the wires by level, then group, so
     each (level, group) is one run in element order. *)
  let group = Array.init nkeys (Unionfind.find groups) in
  let run e = (level_of.(e) * nkeys) + group.(key.(pos.(e))) in
  let start = Array.make ((num_levels * nkeys) + 1) 0 in
  for e = 0 to ne - 1 do
    if level_of.(e) >= 0 then start.(run e + 1) <- start.(run e + 1) + 1
  done;
  for b = 0 to (num_levels * nkeys) - 1 do
    start.(b + 1) <- start.(b + 1) + start.(b)
  done;
  let wires = Array.make start.(num_levels * nkeys) 0 in
  let next = Array.sub start 0 (num_levels * nkeys) in
  for e = 0 to ne - 1 do
    if level_of.(e) >= 0 then begin
      wires.(next.(run e)) <- e;
      next.(run e) <- next.(run e) + 1
    end
  done;
  (* Pass 3: one task per group, the largest first, over its runs.
     Groups touch disjoint nodes, so their tasks share [local]. *)
  let local = Array.make (N.num_nodes net) (-1) in
  let runs g = List.init num_levels (fun l -> (l * nkeys) + g) in
  let size g = List.fold_left (fun acc b -> acc + start.(b + 1) - start.(b)) 0 (runs g) in
  let task g =
    List.concat_map
      (fun b ->
        let nw = start.(b + 1) - start.(b) in
        if nw = 0 then []
        else extract_run sol (Option.get lut.(b / nkeys)) local wires start.(b) nw)
      (runs g)
  in
  let roots = List.filter (fun g -> group.(g) = g) (List.init nkeys Fun.id) in
  (* Back into one list: by level, then by where the structure's root
     first appears among the level's wires. *)
  Numerics.Parallel.map ?jobs task
    (Array.of_list (List.stable_sort (fun a b -> Int.compare (size b) (size a)) roots))
  |> Array.to_list |> List.concat
  |> List.sort (fun (a, x) (b, y) ->
         match Int.compare x.cs_layer_level y.cs_layer_level with
         | 0 -> Int.compare a b
         | c -> c)
  |> List.map snd

let total_compact_segments structures =
  List.fold_left (fun acc s -> acc + St.num_segments s.compact) 0 structures

let boxed_view cs =
  {
    layer_level = cs.cs_layer_level;
    structure = cs.compact;
    node_names = Array.init (Array.length cs.cs_nodes) (node_name cs);
    element_ids = cs.cs_element_ids;
  }

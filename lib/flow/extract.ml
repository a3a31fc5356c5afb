module N = Spice.Netlist
module Mna = Spice.Mna
module St = Em_core.Structure
module Cc = Em_core.Compact

type em_structure = {
  layer_level : int;
  structure : St.t;
  node_names : string array;
  element_ids : int array;
}

type compact_structure = {
  cs_layer_level : int;
  compact : Cc.t;
  cs_node_names : string array;
  cs_element_ids : int array;
}

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

let structures_extracted =
  Obs.Metrics.counter ~help:"EM structures emitted by extraction"
    "em_structures_extracted_total"

let segments_extracted =
  Obs.Metrics.counter ~help:"EM segments emitted by extraction"
    "em_segments_extracted_total"

let manhattan coords p q =
  abs (coords.((3 * p) + 1) - coords.((3 * q) + 1))
  + abs (coords.((3 * p) + 2) - coords.((3 * q) + 2))

let extract_compact ~tech (sol : Mna.solution) =
  let net = sol.Mna.netlist in
  let coords = net.N.coords and pos = net.N.pos and neg = net.N.neg in
  let lut = level_lookup tech in
  let num_levels = Array.length lut in
  (* Pass 1: the wires (resistors of positive resistance and length
     within one tech layer; a name without geometry reads [N.no_layer],
     which no tech has), counting-sorted by level. The sort is stable,
     so every later ordering (segment ids, node interning, element ids)
     is ascending by element. *)
  let ne = N.num_elements net in
  let level_of = Array.make ne (-1) in
  let start = Array.make (num_levels + 1) 0 in
  for e = 0 to ne - 1 do
    let level = coords.(3 * pos.(e)) in
    if N.kind net e = N.Resistor && net.N.values.(e) > 0.
       && coords.(3 * neg.(e)) = level && lut_find lut level <> None
       && manhattan coords pos.(e) neg.(e) > 0
    then begin
      level_of.(e) <- level;
      start.(level + 1) <- start.(level + 1) + 1
    end
  done;
  for l = 0 to num_levels - 1 do
    start.(l + 1) <- start.(l + 1) + start.(l)
  done;
  let wires = Array.make start.(num_levels) 0 in
  let next = Array.sub start 0 num_levels in
  for e = 0 to ne - 1 do
    let l = level_of.(e) in
    if l >= 0 then begin
      wires.(next.(l)) <- e;
      next.(l) <- next.(l) + 1
    end
  done;
  (* Pass 2: per level, one interning sweep, union-find grouping, then a
     counting sort by component. [local] (netlist node -> level-local id)
     is reset by walking the level's wires again: O(wires) per level. *)
  let local = Array.make (N.num_nodes net) (-1) in
  let out = ref [] in
  for level = 0 to num_levels - 1 do
    let first = start.(level) and nw = start.(level + 1) - start.(level) in
    if nw > 0 then begin
      let layer = Option.get lut.(level) in
      let thickness = layer.Pdn.Tech.thickness in
      let tail k = pos.(wires.(first + k)) and head k = neg.(wires.(first + k)) in
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
      (* Per component ([comp_node] needs no reset: components partition
         the level's nodes), segments go into a pre-sized
         [Compact.Builder]. Width from the resistance (w = rho l / (R h))
         tracks repairs that rescale it; electron current flows towards
         higher potential. *)
      let comp_node = Array.make n_local (-1) in
      for r = 0 to n_local - 1 do
        let m = count.(r) in
        if m > 0 then begin
          let bld = Cc.Builder.create ~expected_segments:m () in
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
            let e = wires.(first + k) in
            let ohms = net.N.values.(e) in
            let length = float_of_int (manhattan coords pos.(e) neg.(e)) *. nm in
            let width = layer.Pdn.Tech.resistivity *. length /. (ohms *. thickness) in
            let j =
              (sol.Mna.voltages.(neg.(e)) -. sol.Mna.voltages.(pos.(e)))
              /. (ohms *. (width *. thickness))
            in
            let tail = cintern local.(pos.(e)) in
            let head = cintern local.(neg.(e)) in
            Cc.Builder.add_segment bld ~tail ~head ~length ~width ~height:thickness ~j;
            elems.(i) <- e
          done;
          let compact = Cc.Builder.finish bld ~num_nodes:!nc in
          let cs_node_names =
            Array.init !nc (fun i -> net.N.node_names.(rev_local.(cnodes.(i))))
          in
          out :=
            { cs_layer_level = level; compact; cs_node_names; cs_element_ids = elems }
            :: !out
        end
      done;
      (* Reset the shared netlist-id map for the next level. *)
      for k = 0 to nw - 1 do
        local.(tail k) <- -1;
        local.(head k) <- -1
      done
    end
  done;
  let structures = List.rev !out in
  Obs.Metrics.inc_by structures_extracted (List.length structures);
  Obs.Metrics.inc_by segments_extracted
    (List.fold_left (fun acc s -> acc + Cc.num_segments s.compact) 0 structures);
  structures

let total_compact_segments structures =
  List.fold_left (fun acc s -> acc + Cc.num_segments s.compact) 0 structures

(* Boxed view of a fused-path structure, for the ancillary consumers
   (layer report, fix planner, PDE layer) that still read [Structure.t].
   Node ids, names, segment order and element ids carry over unchanged. *)
let boxed_view cs =
  {
    layer_level = cs.cs_layer_level;
    structure = Cc.to_structure cs.compact;
    node_names = cs.cs_node_names;
    element_ids = cs.cs_element_ids;
  }

(* The reference extraction: an independent, straightforward
   implementation of [Emflow.Extract.extract_compact]'s contract (boxed
   records, hash tables, node names decoded by [Ibm_format.decode]) that
   the extraction-equivalence tests compare it against.

   Skips resistors that are vias (endpoints on different layers), shorts
   (zero ohms), or touch non-geometric nodes (pads/package). *)

module N = Spice.Netlist
module Mna = Spice.Mna
module Ibm = Spice.Ibm_format
module St = Em_core.Structure
open Emflow.Extract

let nm = 1e-9

(* The tech layer on a metal level, by a linear scan; later table entries
   win on duplicate levels. *)
let layer_of_level tech level =
  Array.fold_left
    (fun acc (l : Pdn.Tech.layer) -> if l.Pdn.Tech.level = level then Some l else acc)
    None tech.Pdn.Tech.layers

type wire = {
  elem : int;
  a : int; (* netlist node id, reference tail *)
  b : int;
  length : float;
  j : float; (* electron current density along a -> b *)
  width : float;
  thickness : float;
}

let extract ~tech (sol : Mna.solution) =
  let net = sol.Mna.netlist in
  (* Spell and decode every node name once. *)
  let node_names = Array.init (N.num_nodes net) (N.node_name net) in
  let coords = Array.map Ibm.decode node_names in
  let lut = layer_of_level tech in
  (* Pass 1: collect intra-layer wires grouped by metal level. *)
  let wires_by_level : (int, wire list ref) Hashtbl.t = Hashtbl.create 8 in
  for elem = 0 to N.num_elements net - 1 do
    let pos = net.N.pos.(elem) and neg = net.N.neg.(elem) in
    let ohms = net.N.values.(elem) in
    if N.kind net elem = N.Resistor && ohms > 0. then begin
      match (coords.(pos), coords.(neg)) with
      | Some ca, Some cb when ca.Ibm.layer = cb.Ibm.layer -> begin
        match lut ca.Ibm.layer with
        | None -> ()
        | Some layer ->
          let length =
            float_of_int (abs (ca.Ibm.x - cb.Ibm.x) + abs (ca.Ibm.y - cb.Ibm.y)) *. nm
          in
          if length > 0. then begin
            (* Width from the resistor value (w = rho l / (R h)): equals
               the tech width for as-generated grids and stays
               consistent when a repair flow rescales resistances. *)
            let width =
              layer.Pdn.Tech.resistivity *. length
              /. (ohms *. layer.Pdn.Tech.thickness)
            in
            let wh = width *. layer.Pdn.Tech.thickness in
            (* Electron current flows towards higher potential. *)
            let j =
              (sol.Mna.voltages.(neg) -. sol.Mna.voltages.(pos))
              /. (ohms *. wh)
            in
            let w =
              {
                elem;
                a = pos;
                b = neg;
                length;
                j;
                width;
                thickness = layer.Pdn.Tech.thickness;
              }
            in
            let bucket =
              match Hashtbl.find_opt wires_by_level ca.Ibm.layer with
              | Some r -> r
              | None ->
                let r = ref [] in
                Hashtbl.add wires_by_level ca.Ibm.layer r;
                r
            in
            bucket := w :: !bucket
          end
      end
      | _ -> ()
    end
  done;
  (* Pass 2: per level, split into connected components and emit
     structures. *)
  let out = ref [] in
  let levels =
    Hashtbl.fold (fun level _ acc -> level :: acc) wires_by_level []
    |> List.sort compare
  in
  List.iter
    (fun level ->
      let wires = Array.of_list !(Hashtbl.find wires_by_level level) in
      (* Local dense numbering of the nodes this level touches. *)
      let local : (int, int) Hashtbl.t = Hashtbl.create (Array.length wires) in
      let names = ref [] in
      let n_local = ref 0 in
      let intern id =
        match Hashtbl.find_opt local id with
        | Some i -> i
        | None ->
          let i = !n_local in
          Hashtbl.add local id i;
          names := node_names.(id) :: !names;
          incr n_local;
          i
      in
      Array.iter
        (fun w ->
          ignore (intern w.a);
          ignore (intern w.b))
        wires;
      let node_names = Array.of_list (List.rev !names) in
      let uf = Unionfind.create !n_local in
      Array.iter
        (fun w ->
          ignore
            (Unionfind.union uf (Hashtbl.find local w.a) (Hashtbl.find local w.b)))
        wires;
      (* Component of each wire = component of its tail. *)
      let comp_wires : (int, wire list ref) Hashtbl.t = Hashtbl.create 64 in
      Array.iter
        (fun w ->
          let c = Unionfind.find uf (Hashtbl.find local w.a) in
          match Hashtbl.find_opt comp_wires c with
          | Some r -> r := w :: !r
          | None -> Hashtbl.add comp_wires c (ref [ w ]))
        wires;
      let comps =
        Hashtbl.fold (fun c r acc -> (c, !r) :: acc) comp_wires []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      List.iter
        (fun (_, comp) ->
          let comp = Array.of_list comp in
          (* Dense numbering within the component. *)
          let cl : (int, int) Hashtbl.t = Hashtbl.create (Array.length comp) in
          let cnames = ref [] in
          let nc = ref 0 in
          let cintern li =
            match Hashtbl.find_opt cl li with
            | Some i -> i
            | None ->
              let i = !nc in
              Hashtbl.add cl li i;
              cnames := node_names.(li) :: !cnames;
              incr nc;
              i
          in
          let segs =
            Array.map
              (fun w ->
                let a = cintern (Hashtbl.find local w.a) in
                let b = cintern (Hashtbl.find local w.b) in
                ( a,
                  b,
                  St.segment ~height:w.thickness ~length:w.length ~width:w.width
                    ~j:w.j () ))
              comp
          in
          let structure = St.make ~num_nodes:!nc segs in
          out :=
            {
              layer_level = level;
              structure;
              node_names = Array.of_list (List.rev !cnames);
              element_ids = Array.map (fun w -> w.elem) comp;
            }
            :: !out)
        comps)
    levels;
  List.rev !out

let total_segments structures =
  List.fold_left
    (fun acc s -> acc + St.num_segments s.structure)
    0 structures


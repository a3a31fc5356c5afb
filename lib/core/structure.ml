type segment = {
  length : float;
  width : float;
  height : float;
  current_density : float;
}

let default_height = 2e-7

let segment ?(height = default_height) ~length ~width ~j () =
  { length; width; height; current_density = j }

type t = { g : segment Ugraph.t }

let check_segment k (s : segment) =
  if not (s.length > 0. && s.width > 0. && s.height > 0.) then
    invalid_arg
      (Printf.sprintf
         "Structure.make: segment %d has non-positive geometry (l=%g w=%g h=%g)"
         k s.length s.width s.height);
  if not (Float.is_finite s.current_density) then
    invalid_arg
      (Printf.sprintf "Structure.make: segment %d has non-finite current" k)

let make ~num_nodes segs =
  if Array.length segs = 0 then
    invalid_arg "Structure.make: a structure needs at least one segment";
  Array.iteri (fun k (_, _, s) -> check_segment k s) segs;
  { g = Ugraph.create ~num_nodes segs }

let graph t = t.g

let num_nodes t = Ugraph.num_nodes t.g

let num_segments t = Ugraph.num_edges t.g

let seg t k = Ugraph.attr t.g k

let endpoints t k =
  let e = Ugraph.edge t.g k in
  (e.Ugraph.tail, e.Ugraph.head)

let cross_section s = s.width *. s.height

let jl s = s.current_density *. s.length

let volume t =
  Ugraph.fold_edges
    (fun _ s acc -> acc +. (cross_section s *. s.length))
    t.g 0.

let total_length t =
  Ugraph.fold_edges (fun _ s acc -> acc +. s.length) t.g 0.

let is_connected t = Ugraph.is_connected t.g

let is_tree t =
  is_connected t && num_segments t = num_nodes t - 1

let with_current_densities t js =
  if Array.length js <> num_segments t then
    invalid_arg "Structure.with_current_densities: wrong array length";
  { g = Ugraph.mapi_attr (fun e s -> { s with current_density = js.(e.Ugraph.id) }) t.g }

let with_duty_cycles t duties =
  if Array.length duties <> num_segments t then
    invalid_arg "Structure.with_duty_cycles: wrong array length";
  Array.iter
    (fun d ->
      if d < 0. || d > 1. then
        invalid_arg "Structure.with_duty_cycles: duty outside [0, 1]")
    duties;
  { g =
      Ugraph.mapi_attr
        (fun e s ->
          { s with current_density = s.current_density *. duties.(e.Ugraph.id) })
        t.g }

let current t k =
  let s = seg t k in
  s.current_density *. cross_section s

let kcl_imbalance t v =
  let acc = ref 0. in
  Ugraph.iter_incident t.g v (fun ~edge_id ~neighbor:_ ->
      let e = Ugraph.edge t.g edge_id in
      let i = current t edge_id in
      (* Positive j along the reference direction carries current from
         tail to head, so it arrives at the head. *)
      if e.Ugraph.head = v then acc := !acc +. i else acc := !acc -. i);
  !acc

let pp ppf t =
  let pp_seg ppf s =
    Format.fprintf ppf "l=%.3gum w=%.3gum h=%.3gum j=%.3gA/m2"
      (s.length *. 1e6) (s.width *. 1e6) (s.height *. 1e6) s.current_density
  in
  Ugraph.pp pp_seg ppf t.g

(* ------------------------------------------------------------------ *)
(* Topology builders                                                   *)

let line segs =
  let segs = Array.of_list segs in
  let n = Array.length segs in
  if n = 0 then invalid_arg "Structure.line: empty";
  make ~num_nodes:(n + 1) (Array.mapi (fun i s -> (i, i + 1, s)) segs)

let single s = line [ s ]

let star ~center_degree f =
  if center_degree < 1 then invalid_arg "Structure.star";
  make ~num_nodes:(center_degree + 1)
    (Array.init center_degree (fun i -> (0, i + 1, f i)))

let grid_mesh ~rows ~cols f =
  if rows < 1 || cols < 1 || rows * cols < 2 then
    invalid_arg "Structure.grid_mesh";
  let node r c = (r * cols) + c in
  let segs = ref [] in
  for r = rows - 1 downto 0 do
    for c = cols - 1 downto 0 do
      if r < rows - 1 then
        segs := (node r c, node (r + 1) c, f ~horizontal:false r c) :: !segs;
      if c < cols - 1 then
        segs := (node r c, node r (c + 1), f ~horizontal:true r c) :: !segs
    done
  done;
  make ~num_nodes:(rows * cols) (Array.of_list !segs)

let random_tree rng ~num_nodes f =
  if num_nodes < 2 then invalid_arg "Structure.random_tree";
  make ~num_nodes
    (Array.init (num_nodes - 1) (fun k ->
         let child = k + 1 in
         let parent = Numerics.Rng.int rng child in
         (* Randomize the reference direction so tests exercise both. *)
         if Numerics.Rng.bool rng then (parent, child, f k)
         else (child, parent, f k)))

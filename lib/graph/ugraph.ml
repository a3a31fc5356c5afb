type edge = { id : int; tail : int; head : int }

(* Columnar layout: endpoints live in two flat int arrays and the
   adjacency is CSR ([offsets]/[adj_nbr]/[adj_edge]), so traversals touch
   contiguous memory and [iter_incident] allocates nothing. The [edge]
   record is materialized on demand for API compatibility. *)
type 'a t = {
  num_nodes : int;
  tails : int array;
  heads : int array;
  attrs : 'a array;
  offsets : int array;  (* length num_nodes + 1 *)
  adj_edge : int array; (* length 2m, edge id per incidence slot *)
  adj_nbr : int array;  (* length 2m, neighbor per incidence slot *)
}

let create ~num_nodes raw_edges =
  if num_nodes < 0 then invalid_arg "Ugraph.create: negative node count";
  let m = Array.length raw_edges in
  let tails = Array.make m 0 and heads = Array.make m 0 in
  Array.iteri
    (fun id (u, v, _) ->
      if u < 0 || u >= num_nodes || v < 0 || v >= num_nodes then
        invalid_arg
          (Printf.sprintf "Ugraph.create: edge %d endpoint out of range" id);
      if u = v then
        invalid_arg (Printf.sprintf "Ugraph.create: edge %d is a self-loop" id);
      tails.(id) <- u;
      heads.(id) <- v)
    raw_edges;
  let attrs = Array.map (fun (_, _, a) -> a) raw_edges in
  (* CSR build: count degrees, prefix-sum, then fill in edge-id order so
     each node's incidence list ascends by edge id (tail slot first). *)
  let offsets = Array.make (num_nodes + 1) 0 in
  for e = 0 to m - 1 do
    offsets.(tails.(e) + 1) <- offsets.(tails.(e) + 1) + 1;
    offsets.(heads.(e) + 1) <- offsets.(heads.(e) + 1) + 1
  done;
  for v = 1 to num_nodes do
    offsets.(v) <- offsets.(v) + offsets.(v - 1)
  done;
  let adj_edge = Array.make (2 * m) 0 and adj_nbr = Array.make (2 * m) 0 in
  let fill = Array.make num_nodes 0 in
  for e = 0 to m - 1 do
    let u = tails.(e) and v = heads.(e) in
    let su = offsets.(u) + fill.(u) in
    adj_edge.(su) <- e;
    adj_nbr.(su) <- v;
    fill.(u) <- fill.(u) + 1;
    let sv = offsets.(v) + fill.(v) in
    adj_edge.(sv) <- e;
    adj_nbr.(sv) <- u;
    fill.(v) <- fill.(v) + 1
  done;
  { num_nodes; tails; heads; attrs; offsets; adj_edge; adj_nbr }

let num_nodes g = g.num_nodes

let num_edges g = Array.length g.tails

let check_edge_id g id name =
  if id < 0 || id >= num_edges g then invalid_arg name

let edge g id =
  check_edge_id g id "Ugraph.edge: bad id";
  { id; tail = g.tails.(id); head = g.heads.(id) }

let tail g id =
  check_edge_id g id "Ugraph.tail: bad id";
  g.tails.(id)

let head g id =
  check_edge_id g id "Ugraph.head: bad id";
  g.heads.(id)

let attr g id =
  check_edge_id g id "Ugraph.attr: bad id";
  g.attrs.(id)

let mapi_attr f g =
  { g with
    attrs =
      Array.mapi
        (fun id a -> f { id; tail = g.tails.(id); head = g.heads.(id) } a)
        g.attrs }

let check_node g v name = if v < 0 || v >= g.num_nodes then invalid_arg name

let iter_incident g v f =
  check_node g v "Ugraph.iter_incident: bad node";
  for k = g.offsets.(v) to g.offsets.(v + 1) - 1 do
    f ~edge_id:g.adj_edge.(k) ~neighbor:g.adj_nbr.(k)
  done

let csr_offsets g = g.offsets

let csr_edges g = g.adj_edge

let csr_neighbors g = g.adj_nbr

let fold_edges f g init =
  let acc = ref init in
  for id = 0 to num_edges g - 1 do
    acc :=
      f { id; tail = g.tails.(id); head = g.heads.(id) } g.attrs.(id) !acc
  done;
  !acc

let termini g =
  let out = ref [] in
  for v = g.num_nodes - 1 downto 0 do
    if g.offsets.(v + 1) - g.offsets.(v) = 1 then out := v :: !out
  done;
  !out

let is_connected g =
  if g.num_nodes <= 1 then true
  else begin
    let seen = Array.make g.num_nodes false in
    let queue = Array.make g.num_nodes 0 in
    let qhead = ref 0 and qtail = ref 0 in
    queue.(0) <- 0;
    incr qtail;
    seen.(0) <- true;
    while !qhead < !qtail do
      let v = queue.(!qhead) in
      incr qhead;
      for k = g.offsets.(v) to g.offsets.(v + 1) - 1 do
        let u = g.adj_nbr.(k) in
        if not seen.(u) then begin
          seen.(u) <- true;
          queue.(!qtail) <- u;
          incr qtail
        end
      done
    done;
    !qtail = g.num_nodes
  end

let pp pp_attr ppf g =
  Format.fprintf ppf "@[<v>graph: %d nodes, %d edges" g.num_nodes (num_edges g);
  for id = 0 to num_edges g - 1 do
    Format.fprintf ppf "@,  e%d: %d -> %d  %a" id g.tails.(id) g.heads.(id)
      pp_attr g.attrs.(id)
  done;
  Format.fprintf ppf "@]"

(* Breadth-first discovery order; components not containing [root] are
   picked up from the lowest-numbered unvisited node. *)
let bfs_order ~num_nodes ~offsets ~neighbors ~root =
  if root < 0 || root >= num_nodes then
    invalid_arg (Printf.sprintf "Reorder.bfs_order: root %d out of range" root);
  let order = Array.make num_nodes 0 in
  let seen = Array.make num_nodes false in
  let filled = ref 0 in
  let qhead = ref 0 in
  let push v =
    seen.(v) <- true;
    order.(!filled) <- v;
    incr filled
  in
  let next_seed = ref 0 in
  let rec run seed =
    push seed;
    while !qhead < !filled do
      let v = order.(!qhead) in
      incr qhead;
      for slot = offsets.(v) to offsets.(v + 1) - 1 do
        let u = neighbors.(slot) in
        if not seen.(u) then push u
      done
    done;
    if !filled < num_nodes then begin
      while seen.(!next_seed) do
        incr next_seed
      done;
      run !next_seed
    end
  in
  run root;
  order

let is_permutation order =
  let n = Array.length order in
  let seen = Array.make n false in
  let ok = ref true in
  Array.iter
    (fun v ->
      if v < 0 || v >= n || seen.(v) then ok := false else seen.(v) <- true)
    order;
  !ok

let inverse order =
  if not (is_permutation order) then
    invalid_arg "Reorder.inverse: not a permutation";
  let inv = Array.make (Array.length order) 0 in
  Array.iteri (fun new_id old_id -> inv.(old_id) <- new_id) order;
  inv

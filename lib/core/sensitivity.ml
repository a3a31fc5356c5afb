let current_slack material s =
  let sol = Steady_state.solve material s in
  let max_stress, _ = Steady_state.max_stress sol in
  let threshold = Material.effective_critical_stress material in
  if max_stress <= 0. then Float.infinity else threshold /. max_stress

let width_slack material s =
  let sol = Steady_state.solve material s in
  let max_stress, _ = Steady_state.max_stress sol in
  let threshold = Material.effective_critical_stress material in
  if threshold <= 0. then Float.infinity
  else Float.max 0. (max_stress /. threshold)

(* d sigma_node / d j_k, from
     sigma_i = beta (Q/A - B_i),
     Q = sum_e w h (j_e l_e^2/2 + B_tail(e) l_e):
   a tree edge k (child c_k) contributes sign_k l_k to every Blech sum in
   the subtree of c_k, so
     dQ/dj_k = w_k h_k l_k^2/2 + sign_k l_k * (edge volume with reference
               tails inside subtree(c_k)),
     dB_i/dj_k = sign_k l_k iff k lies on the tree path root -> i.
   Chords only contribute their own Q term. *)
let stress_gradient material (s : Structure.t) ~node =
  if not (Structure.is_connected s) then
    invalid_arg "Sensitivity.stress_gradient: disconnected structure";
  if node < 0 || node >= Structure.num_nodes s then
    invalid_arg "Sensitivity.stress_gradient: node out of range";
  let beta = Material.beta material in
  let tree = Traversal.bfs s ~root:(Structure.default_reference s) in
  let n = Structure.num_nodes s in
  let m = Structure.num_segments s in
  (* Edge-volume of each node's outgoing (reference-tail) edges, then
     subtree-accumulate towards the root. *)
  let volume_at = Array.make n 0. in
  let total_volume = ref 0. in
  for k = 0 to m - 1 do
    let v = s.Structure.width.(k) *. s.Structure.height.(k) *. s.Structure.length.(k) in
    let t = s.Structure.tail.(k) in
    volume_at.(t) <- volume_at.(t) +. v;
    total_volume := !total_volume +. v
  done;
  let sub_volume = Array.copy volume_at in
  let order = tree.Traversal.order in
  for idx = Array.length order - 1 downto 1 do
    let v = order.(idx) in
    let p = tree.Traversal.parent_node.(v) in
    sub_volume.(p) <- sub_volume.(p) +. sub_volume.(v)
  done;
  (* Tree edges on the path root -> node. *)
  let on_path = Array.make m false in
  let v = ref node in
  while tree.Traversal.parent_edge.(!v) >= 0 do
    on_path.(tree.Traversal.parent_edge.(!v)) <- true;
    v := tree.Traversal.parent_node.(!v)
  done;
  Array.init m (fun k ->
      let wh = s.Structure.width.(k) *. s.Structure.height.(k) in
      let l = s.Structure.length.(k) in
      let tail = s.Structure.tail.(k) and head = s.Structure.head.(k) in
      let own_q = wh *. l *. l /. 2. in
      (* Identify the child endpoint when k is a tree edge. *)
      let child =
        if tree.Traversal.parent_edge.(head) = k then Some head
        else if tree.Traversal.parent_edge.(tail) = k then Some tail
        else None
      in
      match child with
      | None -> beta *. own_q /. !total_volume (* chord *)
      | Some c ->
        let sign = if head = c then 1. else -1. in
        let dq = own_q +. (sign *. l *. sub_volume.(c)) in
        let db = if on_path.(k) then sign *. l else 0. in
        beta *. ((dq /. !total_volume) -. db))

let most_influential material (s : Structure.t) ~node n =
  let grad = stress_gradient material s ~node in
  let scored =
    Array.to_list
      (Array.mapi
         (fun k dg ->
           (k, Float.abs (dg *. s.Structure.j.(k))))
         grad)
  in
  let sorted = List.sort (fun (_, a) (_, b) -> compare b a) scored in
  List.filteri (fun i _ -> i < n) sorted

type t = {
  num_nodes : int;
  tail : int array;
  head : int array;
  length : float array;
  width : float array;
  height : float array;
  wh : float array;
  j : float array;
  offsets : int array;
  adj_edge : int array;
  adj_nbr : int array;
}

let num_nodes c = c.num_nodes

let num_segments c = Array.length c.tail

let check_geometry k ~length ~width ~height ~j =
  if not (length > 0. && width > 0. && height > 0.) then
    invalid_arg
      (Printf.sprintf
         "Compact.make: segment %d has non-positive geometry (l=%g w=%g h=%g)"
         k length width height);
  if not (Float.is_finite j) then
    invalid_arg (Printf.sprintf "Compact.make: segment %d has non-finite current" k)

(* Same CSR fill as Ugraph.create: counting sort in edge-id order, tail
   slot before head slot, so adjacency order (and hence BFS visit order)
   matches the boxed representation exactly. *)
let build_csr ~num_nodes ~tail ~head =
  let m = Array.length tail in
  let offsets = Array.make (num_nodes + 1) 0 in
  for e = 0 to m - 1 do
    offsets.(tail.(e) + 1) <- offsets.(tail.(e) + 1) + 1;
    offsets.(head.(e) + 1) <- offsets.(head.(e) + 1) + 1
  done;
  for v = 1 to num_nodes do
    offsets.(v) <- offsets.(v) + offsets.(v - 1)
  done;
  let adj_edge = Array.make (2 * m) 0 and adj_nbr = Array.make (2 * m) 0 in
  let fill = Array.make num_nodes 0 in
  for e = 0 to m - 1 do
    let u = tail.(e) and v = head.(e) in
    let su = offsets.(u) + fill.(u) in
    adj_edge.(su) <- e;
    adj_nbr.(su) <- v;
    fill.(u) <- fill.(u) + 1;
    let sv = offsets.(v) + fill.(v) in
    adj_edge.(sv) <- e;
    adj_nbr.(sv) <- u;
    fill.(v) <- fill.(v) + 1
  done;
  (offsets, adj_edge, adj_nbr)

let make ~num_nodes ~tail ~head ~length ~width ~height ~j =
  let m = Array.length tail in
  if m = 0 then invalid_arg "Compact.make: a structure needs at least one segment";
  if
    Array.length head <> m || Array.length length <> m
    || Array.length width <> m || Array.length height <> m
    || Array.length j <> m
  then invalid_arg "Compact.make: column length mismatch";
  if num_nodes < 0 then invalid_arg "Compact.make: negative node count";
  for k = 0 to m - 1 do
    if tail.(k) < 0 || tail.(k) >= num_nodes || head.(k) < 0 || head.(k) >= num_nodes
    then invalid_arg (Printf.sprintf "Compact.make: segment %d endpoint out of range" k);
    if tail.(k) = head.(k) then
      invalid_arg (Printf.sprintf "Compact.make: segment %d is a self-loop" k);
    check_geometry k ~length:length.(k) ~width:width.(k) ~height:height.(k) ~j:j.(k)
  done;
  let wh = Array.init m (fun k -> width.(k) *. height.(k)) in
  let offsets, adj_edge, adj_nbr = build_csr ~num_nodes ~tail ~head in
  { num_nodes; tail; head; length; width; height; wh; j; offsets; adj_edge; adj_nbr }

(* Same structure, new geometry columns: the topology (tail/head/CSR)
   and lengths are shared, so a perturbed variant costs three column
   validations and one multiply per segment instead of a CSR rebuild.
   This is the scalar-oracle path of the Monte-Carlo variation engine. *)
let with_geometry c ~width ~height ~j =
  let m = num_segments c in
  if Array.length width <> m || Array.length height <> m || Array.length j <> m
  then invalid_arg "Compact.with_geometry: column length mismatch";
  for k = 0 to m - 1 do
    check_geometry k ~length:c.length.(k) ~width:width.(k) ~height:height.(k)
      ~j:j.(k)
  done;
  let wh = Array.init m (fun k -> width.(k) *. height.(k)) in
  { c with width; height; wh; j }

(* ------------------------------------------------------------------ *)
(* Streaming builder                                                   *)

module Builder = struct
  type compact = t

  type t = {
    mutable n : int;            (* segments appended so far *)
    mutable tail : int array;
    mutable head : int array;
    mutable length : float array;
    mutable width : float array;
    mutable height : float array;
    mutable wh : float array;
    mutable j : float array;
    mutable deg : int array;    (* per-node incidence count, grow-on-demand *)
    mutable max_node : int;
  }

  let create ?(expected_segments = 16) () =
    let cap = max 1 expected_segments in
    {
      n = 0;
      tail = Array.make cap 0;
      head = Array.make cap 0;
      length = Array.make cap 0.;
      width = Array.make cap 0.;
      height = Array.make cap 0.;
      wh = Array.make cap 0.;
      j = Array.make cap 0.;
      deg = Array.make (max 2 (2 * cap)) 0;
      max_node = -1;
    }

  let segment_count b = b.n

  let grow_columns b =
    let cap = Array.length b.tail in
    let grow_i a = let f = Array.make (2 * cap) 0 in Array.blit a 0 f 0 cap; f in
    let grow_f a = let f = Array.make (2 * cap) 0. in Array.blit a 0 f 0 cap; f in
    b.tail <- grow_i b.tail;
    b.head <- grow_i b.head;
    b.length <- grow_f b.length;
    b.width <- grow_f b.width;
    b.height <- grow_f b.height;
    b.wh <- grow_f b.wh;
    b.j <- grow_f b.j

  let bump_degree b v =
    let cap = Array.length b.deg in
    if v >= cap then begin
      let fresh = Array.make (max (2 * cap) (v + 1)) 0 in
      Array.blit b.deg 0 fresh 0 cap;
      b.deg <- fresh
    end;
    b.deg.(v) <- b.deg.(v) + 1

  (* Validation happens as segments arrive (same checks and messages as
     [make]); [finish] then only has to range-check the endpoints
     against the final node count and assemble the CSR. *)
  let add_segment b ~tail ~head ~length ~width ~height ~j =
    let k = b.n in
    if tail < 0 || head < 0 then
      invalid_arg (Printf.sprintf "Compact.make: segment %d endpoint out of range" k);
    if tail = head then
      invalid_arg (Printf.sprintf "Compact.make: segment %d is a self-loop" k);
    check_geometry k ~length ~width ~height ~j;
    if k = Array.length b.tail then grow_columns b;
    b.tail.(k) <- tail;
    b.head.(k) <- head;
    b.length.(k) <- length;
    b.width.(k) <- width;
    b.height.(k) <- height;
    b.wh.(k) <- width *. height;
    b.j.(k) <- j;
    bump_degree b tail;
    bump_degree b head;
    if tail > b.max_node then b.max_node <- tail;
    if head > b.max_node then b.max_node <- head;
    b.n <- k + 1

  (* CSR assembly from the degree counts accumulated during the adds:
     the same counting sort as [build_csr] (slots in edge-id order, tail
     before head per edge), minus its initial counting pass. *)
  let finish b ~num_nodes =
    let m = b.n in
    if m = 0 then invalid_arg "Compact.make: a structure needs at least one segment";
    if num_nodes < 0 then invalid_arg "Compact.make: negative node count";
    if b.max_node >= num_nodes then
      invalid_arg
        (Printf.sprintf "Compact.make: segment endpoint %d out of range (%d nodes)"
           b.max_node num_nodes);
    let shrink_i a = if Array.length a = m then a else Array.sub a 0 m in
    let shrink_f a = if Array.length a = m then a else Array.sub a 0 m in
    let tail = shrink_i b.tail and head = shrink_i b.head in
    let offsets = Array.make (num_nodes + 1) 0 in
    for v = 0 to num_nodes - 1 do
      let d = if v < Array.length b.deg then b.deg.(v) else 0 in
      offsets.(v + 1) <- offsets.(v) + d
    done;
    let adj_edge = Array.make (2 * m) 0 and adj_nbr = Array.make (2 * m) 0 in
    let fill = Array.make num_nodes 0 in
    for e = 0 to m - 1 do
      let u = tail.(e) and v = head.(e) in
      let su = offsets.(u) + fill.(u) in
      adj_edge.(su) <- e;
      adj_nbr.(su) <- v;
      fill.(u) <- fill.(u) + 1;
      let sv = offsets.(v) + fill.(v) in
      adj_edge.(sv) <- e;
      adj_nbr.(sv) <- u;
      fill.(v) <- fill.(v) + 1
    done;
    {
      num_nodes;
      tail;
      head;
      length = shrink_f b.length;
      width = shrink_f b.width;
      height = shrink_f b.height;
      wh = shrink_f b.wh;
      j = shrink_f b.j;
      offsets;
      adj_edge;
      adj_nbr;
    }
end

let of_structure s =
  let g = Structure.graph s in
  let m = Structure.num_segments s in
  let tail = Array.init m (fun k -> Ugraph.tail g k) in
  let head = Array.init m (fun k -> Ugraph.head g k) in
  let length = Array.make m 0. and width = Array.make m 0. in
  let height = Array.make m 0. and wh = Array.make m 0. in
  let j = Array.make m 0. in
  for k = 0 to m - 1 do
    let seg = Structure.seg s k in
    length.(k) <- seg.Structure.length;
    width.(k) <- seg.Structure.width;
    height.(k) <- seg.Structure.height;
    wh.(k) <- seg.Structure.width *. seg.Structure.height;
    j.(k) <- seg.Structure.current_density
  done;
  (* The graph's CSR arrays are immutable and index-compatible: share
     them instead of rebuilding. *)
  {
    num_nodes = Structure.num_nodes s;
    tail;
    head;
    length;
    width;
    height;
    wh;
    j;
    offsets = Ugraph.csr_offsets g;
    adj_edge = Ugraph.csr_edges g;
    adj_nbr = Ugraph.csr_neighbors g;
  }

let to_structure c =
  Structure.make ~num_nodes:c.num_nodes
    (Array.init (num_segments c) (fun k ->
         ( c.tail.(k),
           c.head.(k),
           Structure.segment ~height:c.height.(k) ~length:c.length.(k)
             ~width:c.width.(k) ~j:c.j.(k) () )))

let degree c v = c.offsets.(v + 1) - c.offsets.(v)

(* Lowest-numbered terminus, node 0 when there is none — the reference
   the baselines take from [Ugraph.termini]. *)
let default_reference c =
  let n = c.num_nodes in
  let rec scan v = if v >= n then 0 else if degree c v = 1 then v else scan (v + 1) in
  scan 0

let volume c =
  let acc = ref 0. in
  for k = 0 to num_segments c - 1 do
    acc := !acc +. (c.wh.(k) *. c.length.(k))
  done;
  !acc

let total_length c =
  let acc = ref 0. in
  for k = 0 to num_segments c - 1 do
    acc := !acc +. c.length.(k)
  done;
  !acc

let is_connected c =
  let n = c.num_nodes in
  if n <= 1 then true
  else begin
    let seen = Array.make n false in
    let queue = Array.make n 0 in
    let qtail = ref 1 and qhead = ref 0 in
    seen.(0) <- true;
    while !qhead < !qtail do
      let v = queue.(!qhead) in
      incr qhead;
      for k = c.offsets.(v) to c.offsets.(v + 1) - 1 do
        let u = c.adj_nbr.(k) in
        if not seen.(u) then begin
          seen.(u) <- true;
          queue.(!qtail) <- u;
          incr qtail
        end
      done
    done;
    !qtail = n
  end

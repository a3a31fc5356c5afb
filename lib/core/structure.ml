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

let num_nodes s = s.num_nodes

let num_segments s = Array.length s.tail

let check_geometry k ~length ~width ~height ~j =
  if not (length > 0. && width > 0. && height > 0.) then
    invalid_arg
      (Printf.sprintf
         "Structure.make: segment %d has non-positive geometry (l=%g w=%g h=%g)"
         k length width height);
  if not (Float.is_finite j) then
    invalid_arg (Printf.sprintf "Structure.make: segment %d has non-finite current" k)

let check_endpoints k ~tail ~head =
  if tail < 0 || head < 0 then
    invalid_arg (Printf.sprintf "Structure.make: segment %d endpoint out of range" k);
  if tail = head then
    invalid_arg (Printf.sprintf "Structure.make: segment %d is a self-loop" k)

(* The structure over its columns, [offsets] already holding each CSR
   row's start. The slots fill by a counting sort in edge-id order, tail
   slot before head slot: this fixes the adjacency order, and with it
   every BFS order. *)
let assemble ~num_nodes ~tail ~head ~length ~width ~height ~wh ~j offsets =
  let m = Array.length tail in
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
  { num_nodes; tail; head; length; width; height; wh; j; offsets; adj_edge; adj_nbr }

let make ~num_nodes ~tail ~head ~length ~width ~height ~j =
  let m = Array.length tail in
  if m = 0 then invalid_arg "Structure.make: a structure needs at least one segment";
  if
    Array.length head <> m || Array.length length <> m
    || Array.length width <> m || Array.length height <> m
    || Array.length j <> m
  then invalid_arg "Structure.make: column length mismatch";
  if num_nodes < 0 then invalid_arg "Structure.make: negative node count";
  for k = 0 to m - 1 do
    check_endpoints k ~tail:tail.(k) ~head:head.(k);
    if tail.(k) >= num_nodes || head.(k) >= num_nodes then
      invalid_arg (Printf.sprintf "Structure.make: segment %d endpoint out of range" k);
    check_geometry k ~length:length.(k) ~width:width.(k) ~height:height.(k) ~j:j.(k)
  done;
  let wh = Array.init m (fun k -> width.(k) *. height.(k)) in
  let offsets = Array.make (num_nodes + 1) 0 in
  for e = 0 to m - 1 do
    offsets.(tail.(e) + 1) <- offsets.(tail.(e) + 1) + 1;
    offsets.(head.(e) + 1) <- offsets.(head.(e) + 1) + 1
  done;
  for v = 1 to num_nodes do
    offsets.(v) <- offsets.(v) + offsets.(v - 1)
  done;
  assemble ~num_nodes ~tail ~head ~length ~width ~height ~wh ~j offsets

(* Same structure, new geometry columns: the topology (tail/head/CSR)
   and lengths are shared, so a perturbed variant costs three column
   validations and one multiply per segment instead of a CSR rebuild.
   This is the scalar-oracle path of the Monte-Carlo variation engine. *)
let with_geometry s ~width ~height ~j =
  let m = num_segments s in
  if Array.length width <> m || Array.length height <> m || Array.length j <> m
  then invalid_arg "Structure.with_geometry: column length mismatch";
  for k = 0 to m - 1 do
    check_geometry k ~length:s.length.(k) ~width:width.(k) ~height:height.(k)
      ~j:j.(k)
  done;
  let wh = Array.init m (fun k -> width.(k) *. height.(k)) in
  { s with width; height; wh; j }

let with_current_densities s js =
  with_geometry s ~width:s.width ~height:s.height ~j:(Array.copy js)

let with_duty_cycles s duties =
  if Array.length duties <> num_segments s then
    invalid_arg "Structure.with_duty_cycles: wrong array length";
  Array.iter
    (fun d ->
      if d < 0. || d > 1. then
        invalid_arg "Structure.with_duty_cycles: duty outside [0, 1]")
    duties;
  { s with j = Array.mapi (fun k j -> j *. duties.(k)) s.j }

(* ------------------------------------------------------------------ *)
(* Streaming builder                                                   *)

module Builder = struct
  type structure = t

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
    check_endpoints k ~tail ~head;
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

  (* The degree counts accumulated during the adds give the row starts
     directly: [make]'s counting pass is skipped. *)
  let finish b ~num_nodes =
    let m = b.n in
    if m = 0 then invalid_arg "Structure.make: a structure needs at least one segment";
    if num_nodes < 0 then invalid_arg "Structure.make: negative node count";
    if b.max_node >= num_nodes then
      invalid_arg
        (Printf.sprintf "Structure.make: segment endpoint %d out of range (%d nodes)"
           b.max_node num_nodes);
    let shrink_i a = if Array.length a = m then a else Array.sub a 0 m in
    let shrink_f a = if Array.length a = m then a else Array.sub a 0 m in
    let tail = shrink_i b.tail and head = shrink_i b.head in
    let offsets = Array.make (num_nodes + 1) 0 in
    for v = 0 to num_nodes - 1 do
      let d = if v < Array.length b.deg then b.deg.(v) else 0 in
      offsets.(v + 1) <- offsets.(v) + d
    done;
    assemble ~num_nodes ~tail ~head ~length:(shrink_f b.length)
      ~width:(shrink_f b.width) ~height:(shrink_f b.height) ~wh:(shrink_f b.wh)
      ~j:(shrink_f b.j) offsets
end

let degree s v = s.offsets.(v + 1) - s.offsets.(v)

let default_reference s =
  let n = s.num_nodes in
  let rec scan v = if v >= n then 0 else if degree s v = 1 then v else scan (v + 1) in
  scan 0

let volume s =
  let acc = ref 0. in
  for k = 0 to num_segments s - 1 do
    acc := !acc +. (s.wh.(k) *. s.length.(k))
  done;
  !acc

let is_connected s =
  let n = s.num_nodes in
  if n <= 1 then true
  else begin
    let seen = Array.make n false in
    let queue = Array.make n 0 in
    let qtail = ref 1 and qhead = ref 0 in
    seen.(0) <- true;
    while !qhead < !qtail do
      let v = queue.(!qhead) in
      incr qhead;
      for k = s.offsets.(v) to s.offsets.(v + 1) - 1 do
        let u = s.adj_nbr.(k) in
        if not seen.(u) then begin
          seen.(u) <- true;
          queue.(!qtail) <- u;
          incr qtail
        end
      done
    done;
    !qtail = n
  end

let kcl_imbalance s v =
  let acc = ref 0. in
  for slot = s.offsets.(v) to s.offsets.(v + 1) - 1 do
    let e = s.adj_edge.(slot) in
    let i = s.j.(e) *. s.wh.(e) in
    (* Positive j along the reference direction carries current from
       tail to head, so it arrives at the head. *)
    if s.head.(e) = v then acc := !acc +. i else acc := !acc -. i
  done;
  !acc

let pp ppf s =
  Format.fprintf ppf "@[<v>graph: %d nodes, %d edges" s.num_nodes (num_segments s);
  for k = 0 to num_segments s - 1 do
    Format.fprintf ppf "@,  e%d: %d -> %d  l=%.3gum w=%.3gum h=%.3gum j=%.3gA/m2" k
      s.tail.(k) s.head.(k) (s.length.(k) *. 1e6) (s.width.(k) *. 1e6)
      (s.height.(k) *. 1e6) s.j.(k)
  done;
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Topology builders                                                   *)

type segment = { l : float; w : float; h : float; jd : float }

let segment ?(height = 2e-7) ~length ~width ~j () =
  { l = length; w = width; h = height; jd = j }

let of_segments ~num_nodes segs =
  let col f = Array.map f segs in
  make ~num_nodes
    ~tail:(col (fun (t, _, _) -> t))
    ~head:(col (fun (_, h, _) -> h))
    ~length:(col (fun (_, _, s) -> s.l))
    ~width:(col (fun (_, _, s) -> s.w))
    ~height:(col (fun (_, _, s) -> s.h))
    ~j:(col (fun (_, _, s) -> s.jd))

let line segs =
  let segs = Array.of_list segs in
  let n = Array.length segs in
  if n = 0 then invalid_arg "Structure.line: empty";
  of_segments ~num_nodes:(n + 1) (Array.mapi (fun i s -> (i, i + 1, s)) segs)

let single s = line [ s ]

let star ~center_degree f =
  if center_degree < 1 then invalid_arg "Structure.star";
  of_segments ~num_nodes:(center_degree + 1)
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
  of_segments ~num_nodes:(rows * cols) (Array.of_list !segs)

let random_tree rng ~num_nodes f =
  if num_nodes < 2 then invalid_arg "Structure.random_tree";
  of_segments ~num_nodes
    (Array.init (num_nodes - 1) (fun k ->
         let child = k + 1 in
         let parent = Numerics.Rng.int rng child in
         (* Randomize the reference direction so tests exercise both. *)
         if Numerics.Rng.bool rng then (parent, child, f k)
         else (child, parent, f k)))

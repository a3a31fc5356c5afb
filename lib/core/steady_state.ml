exception Degenerate of string

(* A structure whose total volume underflows to 0 (e.g. sub-femtometer
   cross-sections from a damaged extraction) makes Q/A = 0/0 = nan, and
   every downstream stress silently nan — which the classifiers would
   then miscount. Detect it at the source and fail loudly; the flow
   layer turns this into a per-structure diagnostic. *)
let check_normalization ~volume ~q =
  let q_over_a = q /. volume in
  if not (Float.is_finite q_over_a) then begin
    Obs.Log.warn (fun () ->
        ( "steady-state solve rejected: non-finite normalization",
          [ ("q", Obs.Trace.Float q); ("volume", Obs.Trace.Float volume) ] ));
    raise
      (Degenerate
         (Printf.sprintf
            "steady-state normalization Q/A = %g/%g is not finite (all \
             segment volumes vanished or overflowed)"
            q volume))
  end;
  q_over_a

type solution = {
  reference : int;
  node_stress : float array;
  blech_sum : float array;
  volume : float;
  q : float;
  beta : float;
}

module Workspace = struct
  type t = {
    mutable queue : int array;     (* grow-only *)
    mutable reached : bool array;  (* grow-only, cleared per solve *)
    mutable b : float array;       (* exact-size, swapped on size change *)
    mutable stress : float array;  (* exact-size, swapped on size change *)
  }

  let create () = { queue = [||]; reached = [||]; b = [||]; stress = [||] }

  let buffers ws n =
    if Array.length ws.queue < n then begin
      ws.queue <- Array.make n 0;
      ws.reached <- Array.make n false
    end
    else Array.fill ws.reached 0 n false;
    (* The result arrays must be exactly node-count long (callers measure
       them); reuse only when the size repeats, which is the hot case of
       scanning many same-shape structures. *)
    if Array.length ws.b <> n then begin
      ws.b <- Array.make n 0.;
      ws.stress <- Array.make n 0.
    end;
    (ws.queue, ws.reached, ws.b, ws.stress)
end

module Schedule = struct
  (* The BFS discovery order of [solve] depends only on the
     topology (CSR slot order), never on the geometry columns — so it
     can be recorded once per structure and replayed against thousands
     of perturbed geometry samples. Event [i] discovers [node.(i)] from
     [parent.(i)] through segment [edge.(i)], whose current contributes
     with [sign.(i)] (+1 when the parent is the segment's tail). The
     replay

       b.(node.(i)) <- b.(parent.(i)) +. sign.(i) *. j.(edge.(i)) *. l.(edge.(i))

     evaluates, for any geometry sharing this topology, the exact
     floating-point expressions [solve] would: [sign *. j]
     reproduces the [jhat] branch bit-for-bit ([1. *. x = x] and
     [-1. *. x = -.x] exactly). *)
  type t = {
    reference : int;
    node : int array;   (* length num_nodes - 1, in discovery order *)
    parent : int array;
    edge : int array;
    sign : float array; (* +1. / -1. *)
  }

  let reference t = t.reference

  let make ?reference (c : Structure.t) =
    let n = Structure.num_nodes c in
    let reference =
      match reference with
      | Some r ->
        if r < 0 || r >= n then
          invalid_arg "Steady_state.Schedule.make: reference out of range";
        r
      | None -> Structure.default_reference c
    in
    let tails = c.Structure.tail in
    let offsets = c.Structure.offsets in
    let adj_edge = c.Structure.adj_edge and adj_nbr = c.Structure.adj_nbr in
    let queue = Array.make n 0 and reached = Array.make n false in
    let node = Array.make (n - 1) 0 and parent = Array.make (n - 1) 0 in
    let edge = Array.make (n - 1) 0 and sign = Array.make (n - 1) 1. in
    reached.(reference) <- true;
    queue.(0) <- reference;
    let qhead = ref 0 and qtail = ref 1 in
    while !qhead < !qtail do
      let v = queue.(!qhead) in
      incr qhead;
      for slot = offsets.(v) to offsets.(v + 1) - 1 do
        let u = adj_nbr.(slot) in
        if not reached.(u) then begin
          let e = adj_edge.(slot) in
          let i = !qtail - 1 in
          node.(i) <- u;
          parent.(i) <- v;
          edge.(i) <- e;
          sign.(i) <- (if tails.(e) = v then 1. else -1.);
          reached.(u) <- true;
          queue.(!qtail) <- u;
          incr qtail
        end
      done
    done;
    if !qtail <> n then
      invalid_arg "Steady_state.Schedule.make: structure is disconnected";
    { reference; node; parent; edge; sign }
end

(* The Section-IV one-pass algorithm on the structure-of-arrays layout:
   Blech sums accumulate during the BFS itself (no spanning-tree record,
   no parent arrays), then one sweep over the segment columns builds A
   and Q over every segment (chords included: the integral of sigma over
   a segment is orientation-independent, so each is integrated from its
   reference tail with its own j), then one sweep over the nodes
   evaluates the stresses. *)
let solve ?reference ?ws material (c : Structure.t) =
  let n = Structure.num_nodes c in
  let m = Structure.num_segments c in
  let beta = Material.beta material in
  let reference =
    match reference with
    | Some r ->
      if r < 0 || r >= n then
        invalid_arg "Steady_state.solve: reference out of range";
      r
    | None -> Structure.default_reference c
  in
  let queue, reached, b, stress =
    match ws with
    | Some ws -> Workspace.buffers ws n
    | None -> (Array.make n 0, Array.make n false, Array.make n 0., Array.make n 0.)
  in
  (* Step 1: Blech sums along the BFS tree, computed at discovery. *)
  let tails = c.Structure.tail in
  let lengths = c.Structure.length and js = c.Structure.j in
  let offsets = c.Structure.offsets in
  let adj_edge = c.Structure.adj_edge and adj_nbr = c.Structure.adj_nbr in
  b.(reference) <- 0.;
  reached.(reference) <- true;
  queue.(0) <- reference;
  let qhead = ref 0 and qtail = ref 1 in
  while !qhead < !qtail do
    let v = queue.(!qhead) in
    incr qhead;
    for slot = offsets.(v) to offsets.(v + 1) - 1 do
      let u = adj_nbr.(slot) in
      if not reached.(u) then begin
        let e = adj_edge.(slot) in
        let jhat = if tails.(e) = v then js.(e) else -.js.(e) in
        b.(u) <- b.(v) +. (jhat *. lengths.(e));
        reached.(u) <- true;
        queue.(!qtail) <- u;
        incr qtail
      end
    done
  done;
  if !qtail <> n then
    invalid_arg "Steady_state.solve: structure is disconnected";
  (* Step 2: A and Q over every segment column. *)
  let whs = c.Structure.wh in
  let volume = ref 0. and q = ref 0. in
  for k = 0 to m - 1 do
    let wh = whs.(k) in
    let l = lengths.(k) in
    let j = js.(k) in
    volume := !volume +. (wh *. l);
    q := !q +. (wh *. ((j *. l *. l /. 2.) +. (b.(tails.(k)) *. l)))
  done;
  (* Step 3: node stresses. *)
  let q_over_a = check_normalization ~volume:!volume ~q:!q in
  for i = 0 to n - 1 do
    stress.(i) <- beta *. (q_over_a -. b.(i))
  done;
  { reference; node_stress = stress; blech_sum = b; volume = !volume; q = !q; beta }

let extreme_stress cmp sol =
  let best = ref (-1) in
  (* Keep the running best in a ref instead of re-reading
     node_stress.(!best) inside the comparator. *)
  let best_v = ref Float.nan in
  Array.iteri
    (fun i v ->
      if not (Float.is_nan v) then
        if !best < 0 || cmp v !best_v then begin
          best := i;
          best_v := v
        end)
    sol.node_stress;
  if !best < 0 then invalid_arg "Steady_state: empty solution";
  (!best_v, !best)

let max_stress sol = extreme_stress ( > ) sol

let min_stress sol = extreme_stress ( < ) sol

(* The reference assembly: the whole-deck free-node system that
   [Spice.Mna.solve] splits into one task per net, built the plain way
   (triplets through [Sparse.Builder], pinned voltages as options) for
   the tests to compare the per-net solve against.

   Rows are the free representatives of merged shorts, numbered net by
   net (nets in the order of their first representative, node order
   inside a net), so net [b] is rows [blocks.(b) .. blocks.(b+1) - 1]
   and the matrix is block diagonal. A net with no conductance to a
   pinned node gets identity rows. *)

module N = Spice.Netlist
module Sp = Numerics.Sparse

type t = {
  matrix : Sp.t;
  rhs : float array;
  row_of_node : int array; (* per node: its row, or -1 when pinned *)
  fixed : float array;     (* per node: its pinned voltage, else 0 *)
  blocks : int array;
}

let assemble net =
  let n = N.num_nodes net and ne = N.num_elements net in
  let pos = net.N.pos and neg = net.N.neg and values = net.N.values in
  let shorts = Unionfind.create n in
  for e = 0 to ne - 1 do
    if N.kind net e = N.Resistor && values.(e) = 0. then
      ignore (Unionfind.union shorts pos.(e) neg.(e))
  done;
  let rep = Unionfind.find shorts in
  let pinned = Array.make n None in
  Option.iter (fun g -> pinned.(rep g) <- Some 0.) net.N.ground;
  let changed = ref true in
  while !changed do
    changed := false;
    for e = 0 to ne - 1 do
      if N.kind net e = N.Voltage_source then begin
        let p = rep pos.(e) and q = rep neg.(e) in
        match (pinned.(p), pinned.(q)) with
        | Some vp, None ->
          pinned.(q) <- Some (vp -. values.(e));
          changed := true
        | None, Some vq ->
          pinned.(p) <- Some (vq +. values.(e));
          changed := true
        | _ -> ()
      end
    done
  done;
  let free v = pinned.(rep v) = None in
  let joined = Unionfind.create n in
  for e = 0 to ne - 1 do
    if N.kind net e = N.Resistor && values.(e) > 0. && free pos.(e) && free neg.(e) then
      ignore (Unionfind.union joined (rep pos.(e)) (rep neg.(e)))
  done;
  (* Nets by first representative, then rows net by net. *)
  let reps = List.filter (fun v -> rep v = v && free v) (List.init n Fun.id) in
  let roots =
    List.fold_left
      (fun acc v ->
        let r = Unionfind.find joined v in
        if List.mem r acc then acc else r :: acc)
      [] reps
    |> List.rev
  in
  let row_of_rep = Array.make n (-1) and blocks = ref [ 0 ] and rows = ref 0 in
  List.iter
    (fun root ->
      List.iter
        (fun v ->
          if Unionfind.find joined v = root then begin
            row_of_rep.(v) <- !rows;
            incr rows
          end)
        reps;
      blocks := !rows :: !blocks)
    roots;
  let nf = !rows in
  let row_of_node = Array.init n (fun v -> row_of_rep.(rep v)) in
  let fixed = Array.init n (fun v -> Option.value pinned.(rep v) ~default:0.) in
  let blocks = Array.of_list (List.rev !blocks) in
  let b = Sp.Builder.create nf nf in
  (* Every row holds its diagonal, a floating one's included. *)
  for i = 0 to nf - 1 do
    Sp.Builder.add b i i 0.
  done;
  let rhs = Array.make nf 0. in
  let tied = Array.make nf false in
  for e = 0 to ne - 1 do
    let fp = row_of_node.(pos.(e)) and fq = row_of_node.(neg.(e)) in
    let v = values.(e) in
    match N.kind net e with
    | N.Resistor when v > 0. ->
      let g = 1. /. v in
      if fp >= 0 && fq >= 0 then begin
        if fp <> fq then begin
          Sp.Builder.add b fp fp g;
          Sp.Builder.add b fq fq g;
          Sp.Builder.add b fp fq (-.g);
          Sp.Builder.add b fq fp (-.g)
        end
      end
      else if fp >= 0 then begin
        Sp.Builder.add b fp fp g;
        rhs.(fp) <- rhs.(fp) +. (g *. fixed.(neg.(e)));
        tied.(fp) <- true
      end
      else if fq >= 0 then begin
        Sp.Builder.add b fq fq g;
        rhs.(fq) <- rhs.(fq) +. (g *. fixed.(pos.(e)));
        tied.(fq) <- true
      end
    | N.Resistor | N.Voltage_source -> ()
    | N.Current_source ->
      if fp >= 0 then rhs.(fp) <- rhs.(fp) -. v;
      if fq >= 0 then rhs.(fq) <- rhs.(fq) +. v
  done;
  let m = Sp.Builder.to_csr b in
  (* Floating nets: identity rows. *)
  for k = 0 to Array.length blocks - 2 do
    let lo = blocks.(k) and hi = blocks.(k + 1) in
    if not (List.exists (fun r -> tied.(r)) (List.init (hi - lo) (( + ) lo))) then
      for i = lo to hi - 1 do
        for q = m.Sp.row_ptr.(i) to m.Sp.row_ptr.(i + 1) - 1 do
          m.Sp.values.(q) <- (if m.Sp.col_idx.(q) = i then 1. else 0.)
        done
      done
  done;
  { matrix = m; rhs; row_of_node; fixed; blocks }

(* Node voltages from a solution [x] of the system. *)
let voltages t x =
  Array.mapi (fun v r -> if r >= 0 then x.(r) else t.fixed.(v)) t.row_of_node

(* Node voltages from one factorization of the whole matrix. *)
let whole_factor_voltages t =
  voltages t Numerics.Cholesky.(solve (factorize t.matrix) t.rhs)

(* |b - A x|_2 / |b|_2 of the node voltages [v], or the absolute norm
   when b = 0. *)
let residual t v =
  let x = Array.make (Array.length t.rhs) 0. in
  Array.iteri (fun node r -> if r >= 0 then x.(r) <- v.(node)) t.row_of_node;
  let ax = Sp.mul_vec t.matrix x in
  let num = ref 0. and den = ref 0. in
  Array.iteri
    (fun i b ->
      let r = b -. ax.(i) in
      num := !num +. (r *. r);
      den := !den +. (b *. b))
    t.rhs;
  if !den = 0. then sqrt !num else sqrt (!num /. !den)

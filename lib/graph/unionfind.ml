(* A rank never exceeds log2 n, so one byte holds it. *)
type t = { parent : int array; rank : Bytes.t; mutable count : int }

let create n =
  if n < 0 then invalid_arg "Unionfind.create";
  { parent = Array.init n (fun i -> i); rank = Bytes.make n '\000'; count = n }

let rec find t i =
  let p = t.parent.(i) in
  if p = i then i
  else begin
    let root = find t p in
    t.parent.(i) <- root;
    root
  end

let union t i j =
  let ri = find t i and rj = find t j in
  if ri = rj then false
  else begin
    t.count <- t.count - 1;
    let rank_i = Bytes.get_uint8 t.rank ri and rank_j = Bytes.get_uint8 t.rank rj in
    if rank_i < rank_j then t.parent.(ri) <- rj
    else if rank_i > rank_j then t.parent.(rj) <- ri
    else begin
      t.parent.(rj) <- ri;
      Bytes.set_uint8 t.rank ri (rank_i + 1)
    end;
    true
  end

let same t i j = find t i = find t j

let count t = t.count

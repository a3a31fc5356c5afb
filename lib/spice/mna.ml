module Sp = Numerics.Sparse
module Ch = Numerics.Cholesky

type solution = {
  netlist : Netlist.t;
  voltages : float array;
  cg_iterations : int;
  residual : float;
  free_nodes : int;
  fill : int;
  nets : int;
  net_of_node : int array;
}

exception Unsupported of string

let max_residual = 1e-9

(* Merge zero-ohm shorts, then propagate pinned voltages through
   voltage sources until fixpoint: a representative [r] is pinned when
   [pinned.[r]] is set, at [volts.(r)] volts. *)
let pinned_voltages net =
  let n = Netlist.num_nodes net in
  let uf = Unionfind.create n and sources = ref [] in
  for e = 0 to Netlist.num_elements net - 1 do
    match Netlist.kind net e with
    | Resistor when net.Netlist.values.(e) = 0. ->
      ignore (Unionfind.union uf net.Netlist.pos.(e) net.Netlist.neg.(e))
    | Voltage_source -> sources := e :: !sources
    | Resistor | Current_source -> ()
  done;
  let volts = Array.make n 0. and pinned = Bytes.make n '\000' in
  let is_pinned r = Bytes.get pinned r <> '\000' in
  let pin r v =
    volts.(r) <- v;
    Bytes.set pinned r '\001'
  in
  Option.iter (fun g -> pin (Unionfind.find uf g) 0.) net.Netlist.ground;
  let find = Unionfind.find uf in
  let sources =
    List.rev_map
      (fun e -> (find net.Netlist.pos.(e), find net.Netlist.neg.(e), net.Netlist.values.(e), e))
      !sources
  in
  if sources <> [] && net.Netlist.ground = None then
    raise (Unsupported "voltage sources without a ground node");
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (p, q, dv, e) ->
        match (is_pinned p, is_pinned q) with
        | true, true ->
          if Float.abs (volts.(p) -. volts.(q) -. dv) > 1e-9 *. (Float.abs dv +. 1.) then
            raise
              (Unsupported
                 (Printf.sprintf "conflicting voltage constraints at %s"
                    (Netlist.element_name net e)))
        | true, false ->
          pin q (volts.(p) -. dv);
          changed := true
        | false, true ->
          pin p (volts.(q) +. dv);
          changed := true
        | false, false -> ())
      sources
  done;
  List.iter
    (fun (p, q, _, e) ->
      if not (is_pinned p && is_pinned q) then
        raise
          (Unsupported
             (Printf.sprintf "floating voltage source %s (not pinned to ground)"
                (Netlist.element_name net e))))
    sources;
  (uf, volts, pinned)

(* The deck cut into nets. A net is a group of free representatives
   joined through positive resistors, with its shorts, its resistors to
   pinned pads and the current sources that touch it; no resistor joins
   two nets, and a current source between two is listed in both. Nets
   are numbered in the order of their first representative, and a net's
   rows are its representatives in node order. *)
type nets = {
  count : int;
  net_of : int array;     (* per node: its net, or -1 when pinned *)
  row_of : int array;     (* per node: its representative's row in its net, or -1 *)
  rows : int array;       (* per net: its row count *)
  elem_start : int array;
  elems : int array;
      (* net [k]'s elements, ascending:
         [elems.(elem_start.(k)) .. elems.(elem_start.(k + 1) - 1)] *)
  volts : float array;    (* per node: its pinned voltage, else 0 *)
}

(* The one serial pass: shorts, the pinned fixpoint, the nets and a
   counting sort of the elements by net. *)
let partition net =
  let n = Netlist.num_nodes net in
  if n = 0 then invalid_arg "Mna.solve: empty netlist";
  let uf, volts, pinned = pinned_voltages net in
  if not (Bytes.contains pinned '\001') then
    raise (Unsupported "no ground or voltage source to set a reference");
  let is_pinned r = Bytes.get pinned r <> '\000' in
  let ne = Netlist.num_elements net in
  let pos = net.Netlist.pos and neg = net.Netlist.neg in
  let values = net.Netlist.values in
  (* [row_of] holds each node's representative until the rows are
     numbered; the same union-find then joins the free representatives
     into nets. *)
  let row_of = Array.init n (Unionfind.find uf) in
  for e = 0 to ne - 1 do
    if Netlist.kind net e = Resistor && values.(e) > 0. then begin
      let p = row_of.(pos.(e)) and q = row_of.(neg.(e)) in
      if p <> q && not (is_pinned p || is_pinned q) then ignore (Unionfind.union uf p q)
    end
  done;
  (* Number the nets by their first representative; until every
     representative has its own, [net_of] of a net's root holds its
     number. *)
  let net_of = Array.make n (-1) and count = ref 0 in
  for v = 0 to n - 1 do
    if row_of.(v) = v && not (is_pinned v) then begin
      let root = Unionfind.find uf v in
      if net_of.(root) < 0 then begin
        net_of.(root) <- !count;
        incr count
      end;
      net_of.(v) <- net_of.(root)
    end
  done;
  let count = !count in
  let rows = Array.make count 0 in
  for v = 0 to n - 1 do
    let k = net_of.(v) in
    if k >= 0 then begin
      row_of.(v) <- rows.(k);
      rows.(k) <- rows.(k) + 1
    end
  done;
  (* Every other node takes its representative's net, row or pinned
     voltage. *)
  for v = 0 to n - 1 do
    if is_pinned v then row_of.(v) <- -1
    else if net_of.(v) < 0 then begin
      let r = row_of.(v) in
      net_of.(v) <- net_of.(r);
      row_of.(v) <- (if is_pinned r then -1 else row_of.(r));
      volts.(v) <- volts.(r)
    end
  done;
  let elem_start = Array.make (count + 1) 0 in
  for e = 0 to ne - 1 do
    let a = net_of.(pos.(e)) and b = net_of.(neg.(e)) in
    if a >= 0 then elem_start.(a + 1) <- elem_start.(a + 1) + 1;
    if b >= 0 && b <> a then elem_start.(b + 1) <- elem_start.(b + 1) + 1
  done;
  for k = 0 to count - 1 do
    elem_start.(k + 1) <- elem_start.(k + 1) + elem_start.(k)
  done;
  let elems = Array.make elem_start.(count) 0 in
  let next = Array.sub elem_start 0 count in
  let put k e =
    elems.(next.(k)) <- e;
    next.(k) <- next.(k) + 1
  in
  for e = 0 to ne - 1 do
    let a = net_of.(pos.(e)) and b = net_of.(neg.(e)) in
    if a >= 0 then put a e;
    if b >= 0 && b <> a then put b e
  done;
  { count; net_of; row_of; rows; elem_start; elems; volts }

(* Node [v]'s row when it lies in net [k], else -1 (pinned, or another
   net's end of a current source). *)
let[@inline] row p k v = if p.net_of.(v) = k then p.row_of.(v) else -1

(* Net [k]'s share of the KCL residual [|b - A v|_2 / |b|_2], as its
   squared numerator and denominator. The numerator comes from the
   elements alone: per row, what its sources inject less what its
   resistors carry away at [voltages] (shorts carry no observable
   current), summed into [res], scratch of the net's row count. [b] is
   the net's right-hand side, what the sources and the pinned ends
   inject. *)
let kcl_share net p k voltages ~res ~b =
  let pos = net.Netlist.pos and neg = net.Netlist.neg in
  let values = net.Netlist.values in
  Array.fill res 0 p.rows.(k) 0.;
  for i = p.elem_start.(k) to p.elem_start.(k + 1) - 1 do
    let e = p.elems.(i) in
    let rp = row p k pos.(e) and rq = row p k neg.(e) in
    let amps =
      match Netlist.kind net e with
      | Resistor when values.(e) > 0. && rp <> rq ->
        (voltages.(pos.(e)) -. voltages.(neg.(e))) /. values.(e)
      | Current_source -> values.(e)
      | Resistor | Voltage_source -> 0.
    in
    if rp >= 0 then res.(rp) <- res.(rp) -. amps;
    if rq >= 0 then res.(rq) <- res.(rq) +. amps
  done;
  let num = ref 0. and den = ref 0. in
  for r = 0 to p.rows.(k) - 1 do
    num := !num +. (res.(r) *. res.(r));
    den := !den +. (b.(r) *. b.(r))
  done;
  (!num, !den)

(* The shares summed in net order; the absolute norm when b = 0. *)
let combine shares =
  let num, den = Array.fold_left (fun (n, d) (r, b) -> (n +. r, d +. b)) (0., 0.) shares in
  if den = 0. then sqrt num else sqrt (num /. den)

(* Sort one row's (column, value) pairs by column, in place. Rows are
   short (a grid node has a handful of neighbours), so insertion sort;
   a long row falls back to a general sort. *)
let sort_row cols vals lo hi =
  if hi - lo <= 32 then
    for p = lo + 1 to hi - 1 do
      let c = cols.(p) and v = vals.(p) in
      let q = ref (p - 1) in
      while !q >= lo && cols.(!q) > c do
        cols.(!q + 1) <- cols.(!q);
        vals.(!q + 1) <- vals.(!q);
        decr q
      done;
      cols.(!q + 1) <- c;
      vals.(!q + 1) <- v
    done
  else begin
    let order = Array.init (hi - lo) (fun k -> lo + k) in
    Array.sort (fun a b -> Int.compare cols.(a) cols.(b)) order;
    let c = Array.map (fun k -> cols.(k)) order in
    let v = Array.map (fun k -> vals.(k)) order in
    Array.blit c 0 cols lo (hi - lo);
    Array.blit v 0 vals lo (hi - lo)
  end

(* A symmetric CSR matrix stamped in two passes; a net's rows and its
   chain-reduced rows are both built this way. The caller counts each
   row's off-diagonal entries, or a bound on them, into
   [row_ptr.(i + 1)]; [open_rows] reserves each row's diagonal as its
   first slot, [stamp_diag] and [stamp_off] fill the rows, and
   [close_rows] sorts each row and merges duplicate columns (parallel
   resistors, or a chain beside a direct edge). *)
type rows = {
  row_ptr : int array;
  cols : int array;
  vals : float array;
  next : int array;  (* per row: its next free slot *)
}

let open_rows row_ptr =
  let n = Array.length row_ptr - 1 in
  for i = 0 to n - 1 do
    row_ptr.(i + 1) <- row_ptr.(i + 1) + row_ptr.(i) + 1
  done;
  let total = row_ptr.(n) in
  let cols = Array.make total 0 and vals = Array.make total 0. in
  let next = Array.make n 0 in
  for i = 0 to n - 1 do
    cols.(row_ptr.(i)) <- i;
    next.(i) <- row_ptr.(i) + 1
  done;
  { row_ptr; cols; vals; next }

let[@inline] stamp_diag t r g =
  let s = t.row_ptr.(r) in
  t.vals.(s) <- t.vals.(s) +. g

let[@inline] stamp_off t r c v =
  let s = t.next.(r) in
  t.cols.(s) <- c;
  t.vals.(s) <- v;
  t.next.(r) <- s + 1

(* Compacts in place: the write cursor never passes the read cursor. *)
let close_rows { row_ptr; cols; vals; next } =
  let n = Array.length next in
  let out = ref 0 in
  for i = 0 to n - 1 do
    let lo = row_ptr.(i) and hi = next.(i) in
    sort_row cols vals lo hi;
    row_ptr.(i) <- !out;
    let p = ref lo in
    while !p < hi do
      let c = cols.(!p) in
      let acc = ref vals.(!p) in
      incr p;
      while !p < hi && cols.(!p) = c do
        acc := !acc +. vals.(!p);
        incr p
      done;
      cols.(!out) <- c;
      vals.(!out) <- !acc;
      incr out
    done
  done;
  row_ptr.(n) <- !out;
  let cols, vals =
    if !out = Array.length cols then (cols, vals)
    else (Array.sub cols 0 !out, Array.sub vals 0 !out)
  in
  Sp.of_csr ~ncols:n ~row_ptr ~col_idx:cols ~values:vals

(* Net [k]'s rows: its conductance matrix, right-hand side, and whether
   any resistor ties it to a pinned node. Elements stamp in element
   order, so a row's sums do not depend on how the deck splits into
   nets. *)
let assemble_net net p k =
  let m = p.rows.(k) and lo = p.elem_start.(k) and hi = p.elem_start.(k + 1) in
  let pos = net.Netlist.pos and neg = net.Netlist.neg in
  let values = net.Netlist.values and row_of = p.row_of in
  (* Pass 1: row lengths. Every row reserves its diagonal slot first;
     each resistor between two distinct rows adds one entry to each.
     A resistor's ends are in this net or pinned, so [row_of] alone
     places them. *)
  let row_ptr = Array.make (m + 1) 0 in
  for i = lo to hi - 1 do
    let e = p.elems.(i) in
    if Netlist.kind net e = Resistor && values.(e) > 0. then begin
      let rp = row_of.(pos.(e)) and rq = row_of.(neg.(e)) in
      if rp >= 0 && rq >= 0 && rp <> rq then begin
        row_ptr.(rp + 1) <- row_ptr.(rp + 1) + 1;
        row_ptr.(rq + 1) <- row_ptr.(rq + 1) + 1
      end
    end
  done;
  let t = open_rows row_ptr in
  (* Pass 2: stamp. *)
  let rhs = Array.make m 0. and tied = ref false in
  for i = lo to hi - 1 do
    let e = p.elems.(i) in
    match Netlist.kind net e with
    | Resistor when values.(e) > 0. ->
      let rp = row_of.(pos.(e)) and rq = row_of.(neg.(e)) in
      let g = 1. /. values.(e) in
      if rp >= 0 && rq >= 0 then begin
        if rp <> rq then begin
          stamp_diag t rp g;
          stamp_diag t rq g;
          stamp_off t rp rq (-.g);
          stamp_off t rq rp (-.g)
        end
      end
      else if rp >= 0 then begin
        stamp_diag t rp g;
        rhs.(rp) <- rhs.(rp) +. (g *. p.volts.(neg.(e)));
        tied := true
      end
      else begin
        stamp_diag t rq g;
        rhs.(rq) <- rhs.(rq) +. (g *. p.volts.(pos.(e)));
        tied := true
      end
    | Resistor -> () (* shorts already merged *)
    | Current_source ->
      (* The value flows out of [pos] into [neg] through the source,
         whose other end may lie in another net. *)
      let rp = row p k pos.(e) and rq = row p k neg.(e) in
      if rp >= 0 then rhs.(rp) <- rhs.(rp) -. values.(e);
      if rq >= 0 then rhs.(rq) <- rhs.(rq) +. values.(e)
    | Voltage_source -> ()
  done;
  (close_rows t, rhs, !tied)

(* ------------------------------------------------------------------ *)
(* Series chains. A row with exactly two off-diagonal entries (most of
   a power grid's rows: the wire segments between vias) is a link of a
   chain between two kept rows, or of a loop back to one. Gaussian
   elimination along the chain, in order (a Thomas sweep), removes it
   exactly and leaves its ends its Schur complement: a diagonal and a
   right-hand side term each and one equivalent coupling. Only the
   kept rows are ordered and factored; the chain voltages follow by
   back-substitution. *)

let degree (a : Sp.t) r = a.Sp.row_ptr.(r + 1) - a.Sp.row_ptr.(r) - 1

(* Per row: a kept row's index in the reduced system, or one of
   these for a chain row. A chain is swept from the kept row that
   reaches it first, walking kept rows in order and each row's entries
   in column order; the back-substitution walks the same way and so
   meets every chain from the same end. *)
let pending = -1
and swept = -2

(* One chain's sweep, grow-only. After the rows before it are
   eliminated, the chain's [j]-th row [rows.(j)] reads
   [piv x_j + toa x_start + link x_(j+1) = carry], where row [j + 1]
   after the last is the chain's far end. *)
type chain = {
  mutable len : int;
  mutable rows : int array;
  mutable piv : float array;
  mutable toa : float array;
  mutable link : float array;
  mutable carry : float array;
}

let new_chain () =
  let n = 16 in
  {
    len = 0;
    rows = Array.make n 0;
    piv = Array.make n 0.;
    toa = Array.make n 0.;
    link = Array.make n 0.;
    carry = Array.make n 0.;
  }

let grow ch =
  let n = 2 * Array.length ch.rows in
  let ints a = Array.append a (Array.make (n - Array.length a) 0) in
  let floats a = Array.append a (Array.make (n - Array.length a) 0.) in
  ch.rows <- ints ch.rows;
  ch.piv <- floats ch.piv;
  ch.toa <- floats ch.toa;
  ch.link <- floats ch.link;
  ch.carry <- floats ch.carry

(* Sweep the chain that leaves kept row [start] through its row [first]
   ([coupling] is their entry), setting each chain row's mark to
   [mark]; returns the far end. Raises [Ch.Not_positive_definite] with
   the row of a pivot that is not positive and finite. *)
let sweep (a : Sp.t) rhs index ch ~mark ~start ~first ~coupling =
  let rp = a.Sp.row_ptr and ci = a.Sp.col_idx and av = a.Sp.values in
  ch.len <- 0;
  let prev = ref start and cur = ref first in
  (* What eliminating the previous row took from this one. *)
  let sub = ref 0. and toa = ref coupling and csub = ref 0. in
  while index.(!cur) < 0 do
    let r = !cur in
    let diag = ref 0. and next = ref r and link = ref 0. in
    for p = rp.(r) to rp.(r + 1) - 1 do
      let c = ci.(p) in
      if c = r then diag := av.(p)
      else if c <> !prev then begin
        next := c;
        link := av.(p)
      end
    done;
    let piv = !diag -. !sub in
    if not (piv > 0. && Float.is_finite piv) then
      raise (Ch.Not_positive_definite r);
    let carry = rhs.(r) -. !csub in
    if ch.len = Array.length ch.rows then grow ch;
    let j = ch.len in
    ch.rows.(j) <- r;
    ch.piv.(j) <- piv;
    ch.toa.(j) <- !toa;
    ch.link.(j) <- !link;
    ch.carry.(j) <- carry;
    ch.len <- j + 1;
    index.(r) <- mark;
    let u = !link in
    sub := u *. u /. piv;
    csub := u *. carry /. piv;
    toa := -.(u *. !toa /. piv);
    prev := r;
    cur := !next
  done;
  !cur

(* Solve one net's system [a x = rhs] into [x]: sweep out its series
   chains, factor and solve the kept rows' reduced system, then
   back-substitute the chains. Returns the reduced factor. *)
let solve_block (a : Sp.t) rhs x =
  let rp = a.Sp.row_ptr and ci = a.Sp.col_idx and av = a.Sp.values in
  let n = a.Sp.nrows in
  (* Kept rows are those whose degree is not 2, numbered in row order.
     A net whose rows all have degree 2 is a ring: its first row is
     kept, and the rest is a loop back to it. *)
  let index = Array.make n pending in
  let m = ref 0 in
  for r = 0 to n - 1 do
    if degree a r <> 2 then begin
      index.(r) <- !m;
      incr m
    end
  done;
  if !m = 0 then begin
    index.(0) <- 0;
    m := 1
  end;
  let kept = Array.make !m 0 in
  Array.iteri (fun r k -> if k >= 0 then kept.(k) <- r) index;
  (* A kept row gets at most one entry per neighbour: the neighbour
     itself, or the far end of the chain through it. *)
  let row_ptr = Array.make (!m + 1) 0 in
  Array.iteri (fun k r -> row_ptr.(k + 1) <- degree a r) kept;
  let t = open_rows row_ptr in
  let reduced_rhs = Array.map (fun r -> rhs.(r)) kept in
  let[@inline] schur k g c piv =
    stamp_diag t k (-.(g *. g /. piv));
    reduced_rhs.(k) <- reduced_rhs.(k) -. (g *. c /. piv)
  in
  let ch = new_chain () in
  Array.iteri
    (fun k r ->
      for p = rp.(r) to rp.(r + 1) - 1 do
        let c = ci.(p) in
        let i = index.(c) in
        if c = r then stamp_diag t k av.(p)
        else if i >= 0 then stamp_off t k i av.(p)
        else if i = pending then begin
          let far =
            sweep a rhs index ch ~mark:swept ~start:r ~first:c ~coupling:av.(p)
          in
          let last = ch.len - 1 in
          for j = 0 to last - 1 do
            schur k ch.toa.(j) ch.carry.(j) ch.piv.(j)
          done;
          let piv = ch.piv.(last) and toa = ch.toa.(last)
          and link = ch.link.(last) and carry = ch.carry.(last) in
          if far = r then schur k (toa +. link) carry piv
          else begin
            let kf = index.(far) in
            schur k toa carry piv;
            schur kf link carry piv;
            let g = -.(toa *. link /. piv) in
            stamp_off t k kf g;
            stamp_off t kf k g
          end
        end
      done)
    kept;
  let f =
    try Ch.factorize (close_rows t)
    with Ch.Not_positive_definite k -> raise (Ch.Not_positive_definite kept.(k))
  in
  let xr = Ch.solve f reduced_rhs in
  Array.iteri (fun k r -> x.(r) <- xr.(k)) kept;
  Array.iter
    (fun r ->
      for p = rp.(r) to rp.(r + 1) - 1 do
        let c = ci.(p) in
        if c <> r && index.(c) = swept then begin
          let far =
            sweep a rhs index ch ~mark:pending ~start:r ~first:c ~coupling:av.(p)
          in
          let next = ref x.(far) in
          for j = ch.len - 1 downto 0 do
            let v =
              (ch.carry.(j) -. (ch.toa.(j) *. x.(r)) -. (ch.link.(j) *. !next))
              /. ch.piv.(j)
            in
            x.(ch.rows.(j)) <- v;
            next := v
          done
        end
      done)
    kept;
  f

(* What one net's task ends with. A net that no resistor ties to a
   pinned node floats: undriven, its rows become identity rows (they
   read 0 V); driven, its first row with a nonzero right-hand side is
   reported. *)
type 'f outcome =
  | Solved of 'f * (float * float)  (* the factor, or its nnz(L); the residual share *)
  | Driven of int
  | Not_pd of int  (* the row of a pivot that is not positive and finite *)

(* Net [k], start to end: assemble, solve, write its nodes' voltages
   into [p.volts] (no other net writes them), and take its residual
   share. *)
let solve_net net p k =
  let a, rhs, tied = assemble_net net p k in
  let driven = if tied then None else Array.find_index (fun b -> b <> 0.) rhs in
  match driven with
  | Some r -> Driven r
  | None -> (
    if not tied then
      for i = 0 to a.Sp.nrows - 1 do
        for q = a.Sp.row_ptr.(i) to a.Sp.row_ptr.(i + 1) - 1 do
          a.Sp.values.(q) <- (if a.Sp.col_idx.(q) = i then 1. else 0.)
        done
      done;
    let x = Array.make p.rows.(k) 0. in
    match solve_block a rhs x with
    | exception Ch.Not_positive_definite r -> Not_pd r
    | factor ->
      let pos = net.Netlist.pos and neg = net.Netlist.neg in
      for i = p.elem_start.(k) to p.elem_start.(k + 1) - 1 do
        let e = p.elems.(i) in
        let r = row p k pos.(e) in
        if r >= 0 then p.volts.(pos.(e)) <- x.(r);
        let r = row p k neg.(e) in
        if r >= 0 then p.volts.(neg.(e)) <- x.(r)
      done;
      (* [x] is free again: the share's scratch. *)
      Solved (factor, kcl_share net p k p.volts ~res:x ~b:rhs))

let solve ?jobs net =
  let p = partition net in
  (* Largest net first, so the longest factorization starts at once;
     a task keeps nnz(L) of its factor, not the factor. *)
  let order = Array.init p.count Fun.id in
  Array.stable_sort (fun a b -> Int.compare p.rows.(b) p.rows.(a)) order;
  let task k =
    match
      Obs.Trace.with_span "spice.mna.block"
        ~attrs:[ ("rows", Obs.Trace.Int p.rows.(k)) ]
        ~result_attrs:(function
          | Solved (f, _) ->
            [
              ("reduced_rows", Obs.Trace.Int (Ch.dim f));
              ("nnz_l", Obs.Trace.Int (Ch.nnz_l f));
              ("supernodes", Obs.Trace.Int (Ch.supernodes f));
              ("ordering_s", Obs.Trace.Float (Ch.ordering_seconds f));
              ("factor_s", Obs.Trace.Float (Ch.factor_seconds f));
            ]
          | Driven _ | Not_pd _ -> [])
        (fun () -> solve_net net p k)
    with
    | Solved (f, share) -> Solved (Ch.nnz_l f, share)
    | (Driven _ | Not_pd _) as o -> o
  in
  let outcomes = Array.to_list (Numerics.Parallel.map ?jobs task order) in
  (* Errors: a driven floating net first, the one whose driven row's
     first node comes first, named by its own first node and size; then
     the first bad pivot in task order, named by the last node of its
     row. *)
  let nodes () = List.init (Netlist.num_nodes net) Fun.id in
  let in_row k r v = p.net_of.(v) = k && p.row_of.(v) = r in
  let fail fmt = Printf.ksprintf (fun msg -> raise (Unsupported msg)) fmt in
  let driven =
    List.concat
      (List.mapi
         (fun i -> function
           | Driven r -> [ (List.find (in_row order.(i) r) (nodes ()), order.(i)) ]
           | Solved _ | Not_pd _ -> [])
         outcomes)
  in
  (match List.sort compare driven with
  | (_, k) :: _ ->
    let group = List.filter (fun v -> p.net_of.(v) = k) (nodes ()) in
    fail
      "floating subnetwork of %d nodes at %s carries a current source but has \
       no conductive path to ground or a supply"
      (List.length group)
      (Netlist.node_name net (List.hd group))
  | [] -> ());
  let shares = Array.make p.count (0., 0.) and fill = ref 0 in
  List.iteri
    (fun i -> function
      | Solved (nnz_l, share) ->
        shares.(order.(i)) <- share;
        fill := !fill + nnz_l
      | Not_pd r ->
        let row = List.filter (in_row order.(i) r) (nodes ()) in
        fail
          "conductance matrix is not positive definite at node %s (non-finite \
           or non-physical resistance?)"
          (Netlist.node_name net (List.nth row (List.length row - 1)))
      | Driven _ -> ())
    outcomes;
  {
    netlist = net;
    voltages = p.volts;
    cg_iterations = 0;
    residual = combine shares;
    free_nodes = Array.fold_left ( + ) 0 p.rows;
    fill = !fill;
    nets = p.count;
    net_of_node = p.net_of;
  }

let residual net voltages =
  if Array.length voltages <> Netlist.num_nodes net then
    invalid_arg "Mna.residual: one voltage per node";
  let p = partition net in
  (* Pinned nodes read the deck's pinned voltages. *)
  let v = Array.mapi (fun i x -> if p.net_of.(i) >= 0 then x else p.volts.(i)) voltages in
  combine
    (Array.init p.count (fun k ->
         let _, b, _ = assemble_net net p k in
         kcl_share net p k v ~res:(Array.make p.rows.(k) 0.) ~b))

let resistor_current sol e =
  let net = sol.netlist in
  if e < 0 || e >= Netlist.num_elements net then
    invalid_arg "Mna.resistor_current: bad element index";
  if Netlist.kind net e <> Resistor then
    invalid_arg "Mna.resistor_current: element is not a resistor";
  let ohms = net.Netlist.values.(e) in
  if ohms = 0. then 0.
  else (sol.voltages.(net.Netlist.pos.(e)) -. sol.voltages.(net.Netlist.neg.(e))) /. ohms

let node_voltage sol name =
  Option.map
    (fun i -> sol.voltages.(i))
    (Netlist.find_node sol.netlist name)

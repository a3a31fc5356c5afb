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
}

exception Unsupported of string

let max_residual = 1e-9

(* Representatives after merging zero-ohm shorts. *)
let short_representatives net =
  let n = Netlist.num_nodes net in
  let uf = Unionfind.create n in
  for e = 0 to Netlist.num_elements net - 1 do
    if Netlist.kind net e = Resistor && net.Netlist.values.(e) = 0. then
      ignore (Unionfind.union uf net.Netlist.pos.(e) net.Netlist.neg.(e))
  done;
  uf

(* Propagate pinned voltages through voltage sources until fixpoint. *)
let pinned_voltages net uf =
  let n = Netlist.num_nodes net in
  let pinned : float option array = Array.make n None in
  (match net.Netlist.ground with
  | Some g -> pinned.(Unionfind.find uf g) <- Some 0.
  | None -> ());
  let sources = ref [] and find = Unionfind.find uf in
  for e = Netlist.num_elements net - 1 downto 0 do
    if Netlist.kind net e = Voltage_source then
      sources := (find net.Netlist.pos.(e), find net.Netlist.neg.(e), net.Netlist.values.(e), e) :: !sources
  done;
  let sources = !sources in
  if sources <> [] && net.Netlist.ground = None then
    raise (Unsupported "voltage sources without a ground node");
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (p, q, volts, e) ->
        match (pinned.(p), pinned.(q)) with
        | Some vp, Some vq ->
          if Float.abs (vp -. vq -. volts) > 1e-9 *. (Float.abs volts +. 1.) then
            raise
              (Unsupported
                 (Printf.sprintf "conflicting voltage constraints at %s"
                    (Netlist.element_name net e)))
        | Some vp, None ->
          pinned.(q) <- Some (vp -. volts);
          changed := true
        | None, Some vq ->
          pinned.(p) <- Some (vq +. volts);
          changed := true
        | None, None -> ())
      sources
  done;
  List.iter
    (fun (p, q, _, e) ->
      if pinned.(p) = None || pinned.(q) = None then
        raise
          (Unsupported
             (Printf.sprintf "floating voltage source %s (not pinned to ground)"
                (Netlist.element_name net e))))
    sources;
  pinned

type system = {
  matrix : Sp.t;
  rhs : float array;
  row_of_node : int array;
  fixed : float array;
  blocks : int array;
}

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

(* A symmetric CSR matrix stamped in two passes; {!assemble} and the
   chain reduction both build theirs this way. The caller counts each
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

let stamp_diag t r g =
  let s = t.row_ptr.(r) in
  t.vals.(s) <- t.vals.(s) +. g

let stamp_off t r c v =
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

(* The block of row [r]: the [b] with [blocks.(b) <= r < blocks.(b + 1)]. *)
let block_of_row blocks r =
  let rec find lo hi =
    if hi - lo = 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if blocks.(mid) <= r then find mid hi else find lo mid
  in
  find 0 (Array.length blocks - 1)

(* A block with no conductance to a pinned node ([tied] is per block)
   floats. Undriven, its rows become identity rows (they read 0 V);
   driven, it is an error naming the group of the first driven row in
   node order of the representatives, by its first node and size. *)
let pin_floating net uf ~row_of_node (m : Sp.t) ~rhs ~tied ~blocks =
  if Bytes.exists (fun c -> c = '\000') tied then begin
    let floating r = Bytes.get tied (block_of_row blocks r) = '\000' in
    Array.iteri
      (fun v r ->
        if r >= 0 && rhs.(r) <> 0. && Unionfind.find uf v = v && floating r
        then begin
          let b = block_of_row blocks r in
          let lo = blocks.(b) and hi = blocks.(b + 1) in
          let size = ref 0 and first = ref (-1) in
          Array.iteri
            (fun v r ->
              if r >= lo && r < hi then begin
                if !first < 0 then first := v;
                incr size
              end)
            row_of_node;
          raise
            (Unsupported
               (Printf.sprintf
                  "floating subnetwork of %d nodes at %s carries a current \
                   source but has no conductive path to ground or a supply"
                  !size
                  (Netlist.node_name net !first)))
        end)
      row_of_node;
    for i = 0 to Array.length rhs - 1 do
      if floating i then
        for p = m.Sp.row_ptr.(i) to m.Sp.row_ptr.(i + 1) - 1 do
          m.Sp.values.(p) <- (if m.Sp.col_idx.(p) = i then 1. else 0.)
        done
    done
  end

let assemble net =
  let n = Netlist.num_nodes net in
  if n = 0 then invalid_arg "Mna.solve: empty netlist";
  let uf = short_representatives net in
  let pinned = pinned_voltages net uf in
  if not (Array.exists Option.is_some pinned) then
    raise (Unsupported "no ground or voltage source to set a reference");
  let ne = Netlist.num_elements net in
  let pos = net.Netlist.pos and neg = net.Netlist.neg in
  let values = net.Netlist.values in
  (* Blocks: free representatives joined through positive resistors,
     i.e. the connected components of the reduced matrix (one per net
     of a grid). *)
  let joined = Unionfind.create n in
  for e = 0 to ne - 1 do
    if Netlist.kind net e = Resistor && values.(e) > 0. then begin
      let p = Unionfind.find uf pos.(e) and q = Unionfind.find uf neg.(e) in
      if p <> q && pinned.(p) = None && pinned.(q) = None then
        ignore (Unionfind.union joined p q)
    end
  done;
  (* Rows are the free representatives, block by block (blocks in order
     of their first node, node order inside a block), so each block is
     a contiguous row range. Every node maps to its representative's
     row, or carries its pinned voltage. [row_of_node] holds each
     representative's block until the rows are numbered. *)
  let row_of_node = Array.make n (-1) and fixed = Array.make n 0. in
  let block_of_root = Array.make n (-1) and bounds = Array.make (n + 1) 0 in
  let nb = ref 0 in
  for v = 0 to n - 1 do
    if Unionfind.find uf v = v && pinned.(v) = None then begin
      let root = Unionfind.find joined v in
      if block_of_root.(root) < 0 then begin
        block_of_root.(root) <- !nb;
        incr nb
      end;
      let b = block_of_root.(root) in
      row_of_node.(v) <- b;
      bounds.(b + 1) <- bounds.(b + 1) + 1
    end
  done;
  let nb = !nb in
  for b = 0 to nb - 1 do
    bounds.(b + 1) <- bounds.(b + 1) + bounds.(b)
  done;
  let blocks = Array.sub bounds 0 (nb + 1) in
  (* [bounds] becomes each block's next row. *)
  for v = 0 to n - 1 do
    let b = row_of_node.(v) in
    if b >= 0 then begin
      row_of_node.(v) <- bounds.(b);
      bounds.(b) <- bounds.(b) + 1
    end
  done;
  let nf = blocks.(nb) in
  for v = 0 to n - 1 do
    let r = Unionfind.find uf v in
    match pinned.(r) with
    | Some volts -> fixed.(v) <- volts
    | None -> row_of_node.(v) <- row_of_node.(r)
  done;
  (* Pass 1: row lengths. Every row reserves its diagonal slot first;
     each resistor between two distinct free rows adds one entry to
     each. *)
  let row_ptr = Array.make (nf + 1) 0 in
  for e = 0 to ne - 1 do
    if Netlist.kind net e = Resistor && values.(e) > 0. then begin
      let rp = row_of_node.(pos.(e)) and rq = row_of_node.(neg.(e)) in
      if rp >= 0 && rq >= 0 && rp <> rq then begin
        row_ptr.(rp + 1) <- row_ptr.(rp + 1) + 1;
        row_ptr.(rq + 1) <- row_ptr.(rq + 1) + 1
      end
    end
  done;
  let t = open_rows row_ptr in
  (* Pass 2: stamp. *)
  let rhs = Array.make nf 0. in
  let tied = Bytes.make nb '\000' in
  for e = 0 to ne - 1 do
    let rp = row_of_node.(pos.(e)) and rq = row_of_node.(neg.(e)) in
    match Netlist.kind net e with
    | Resistor when values.(e) > 0. ->
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
        rhs.(rp) <- rhs.(rp) +. (g *. fixed.(neg.(e)));
        Bytes.set tied (block_of_row blocks rp) '\001'
      end
      else if rq >= 0 then begin
        stamp_diag t rq g;
        rhs.(rq) <- rhs.(rq) +. (g *. fixed.(pos.(e)));
        Bytes.set tied (block_of_row blocks rq) '\001'
      end
    | Resistor -> () (* shorts already merged *)
    | Current_source ->
      (* The value flows out of [pos] into [neg] through the source. *)
      if rp >= 0 then rhs.(rp) <- rhs.(rp) -. values.(e);
      if rq >= 0 then rhs.(rq) <- rhs.(rq) +. values.(e)
    | Voltage_source -> ()
  done;
  let matrix = close_rows t in
  pin_floating net uf ~row_of_node matrix ~rhs ~tied ~blocks;
  {
    matrix;
    rhs;
    row_of_node;
    fixed;
    blocks;
  }

(* |b - A x|_2 / |b|_2, or the absolute norm when b = 0. *)
let relative_residual (a : Sp.t) x b =
  let num = ref 0. and den = ref 0. in
  for i = 0 to a.Sp.nrows - 1 do
    let acc = ref 0. in
    for p = a.Sp.row_ptr.(i) to a.Sp.row_ptr.(i + 1) - 1 do
      acc := !acc +. (a.Sp.values.(p) *. x.(a.Sp.col_idx.(p)))
    done;
    let r = b.(i) -. !acc in
    num := !num +. (r *. r);
    den := !den +. (b.(i) *. b.(i))
  done;
  if !den = 0. then sqrt !num else sqrt (!num /. !den)

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

(* Per block row: a kept row's index in the reduced system, or one of
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
   [mark]; returns the far end. [index] is per row of the block that
   starts at row [lo]. Raises [Ch.Not_positive_definite] with the row of a pivot that is
   not positive and finite. *)
let sweep (a : Sp.t) rhs index ~lo ch ~mark ~start ~first ~coupling =
  let rp = a.Sp.row_ptr and ci = a.Sp.col_idx and av = a.Sp.values in
  ch.len <- 0;
  let prev = ref start and cur = ref first in
  (* What eliminating the previous row took from this one. *)
  let sub = ref 0. and toa = ref coupling and csub = ref 0. in
  while index.(!cur - lo) < 0 do
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
    index.(r - lo) <- mark;
    let u = !link in
    sub := u *. u /. piv;
    csub := u *. carry /. piv;
    toa := -.(u *. !toa /. piv);
    prev := r;
    cur := !next
  done;
  !cur

(* Solve rows [\[lo, hi)] of [sys], a block, into [x]: sweep out its
   series chains, factor and solve the kept rows' reduced system, then
   back-substitute the chains. Returns the reduced factor. *)
let solve_block sys x ~lo ~hi =
  let a = sys.matrix and rhs = sys.rhs in
  let rp = a.Sp.row_ptr and ci = a.Sp.col_idx and av = a.Sp.values in
  (* Kept rows are those whose degree is not 2, numbered in row order.
     A block whose rows all have degree 2 is a ring: its first row is
     kept, and the rest is a loop back to it. *)
  let index = Array.make (hi - lo) pending in
  let m = ref 0 in
  for r = lo to hi - 1 do
    if degree a r <> 2 then begin
      index.(r - lo) <- !m;
      incr m
    end
  done;
  if !m = 0 then begin
    index.(0) <- 0;
    m := 1
  end;
  let kept = Array.make !m 0 in
  Array.iteri (fun i k -> if k >= 0 then kept.(k) <- lo + i) index;
  (* A kept row gets at most one entry per neighbour: the neighbour
     itself, or the far end of the chain through it. *)
  let row_ptr = Array.make (!m + 1) 0 in
  Array.iteri (fun k r -> row_ptr.(k + 1) <- degree a r) kept;
  let t = open_rows row_ptr in
  let reduced_rhs = Array.map (fun r -> rhs.(r)) kept in
  let schur k g c piv =
    stamp_diag t k (-.(g *. g /. piv));
    reduced_rhs.(k) <- reduced_rhs.(k) -. (g *. c /. piv)
  in
  let ch = new_chain () in
  Array.iteri
    (fun k r ->
      for p = rp.(r) to rp.(r + 1) - 1 do
        let c = ci.(p) in
        let i = index.(c - lo) in
        if c = r then stamp_diag t k av.(p)
        else if i >= 0 then stamp_off t k i av.(p)
        else if i = pending then begin
          let far =
            sweep a rhs index ~lo ch ~mark:swept ~start:r ~first:c ~coupling:av.(p)
          in
          let last = ch.len - 1 in
          for j = 0 to last - 1 do
            schur k ch.toa.(j) ch.carry.(j) ch.piv.(j)
          done;
          let piv = ch.piv.(last) and toa = ch.toa.(last)
          and link = ch.link.(last) and carry = ch.carry.(last) in
          if far = r then schur k (toa +. link) carry piv
          else begin
            let kf = index.(far - lo) in
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
        if c <> r && index.(c - lo) = swept then begin
          let far =
            sweep a rhs index ~lo ch ~mark:pending ~start:r ~first:c ~coupling:av.(p)
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

let solve ?jobs net =
  let sys = assemble net in
  let nf = Array.length sys.rhs and blocks = sys.blocks in
  let x = Array.make nf 0. in
  (* Every block fills its own slice of [x]; largest first, so the
     longest factorization starts at once. *)
  let size b = blocks.(b + 1) - blocks.(b) in
  let order = Array.init (Array.length blocks - 1) Fun.id in
  Array.stable_sort (fun a b -> Int.compare (size b) (size a)) order;
  let factor_block b =
    Obs.Trace.with_span "spice.mna.block"
      ~attrs:[ ("rows", Obs.Trace.Int (size b)) ]
      ~result_attrs:(fun f ->
        [
          ("reduced_rows", Obs.Trace.Int (Ch.dim f));
          ("nnz_l", Obs.Trace.Int (Ch.nnz_l f));
          ("supernodes", Obs.Trace.Int (Ch.supernodes f));
          ("ordering_s", Obs.Trace.Float (Ch.ordering_seconds f));
          ("factor_s", Obs.Trace.Float (Ch.factor_seconds f));
        ])
      (fun () -> solve_block sys x ~lo:blocks.(b) ~hi:blocks.(b + 1))
    |> Ch.nnz_l
  in
  let fill =
    match Numerics.Parallel.map ?jobs factor_block order with
    | fills -> Array.fold_left ( + ) 0 fills
    | exception Ch.Not_positive_definite row ->
      let node = ref 0 in
      Array.iteri (fun v r -> if r = row then node := v) sys.row_of_node;
      raise
        (Unsupported
           (Printf.sprintf
              "conductance matrix is not positive definite at node %s \
               (non-finite or non-physical resistance?)"
              (Netlist.node_name net !node)))
  in
  let n = Netlist.num_nodes net in
  let voltages = Array.make n 0. in
  for v = 0 to n - 1 do
    let r = sys.row_of_node.(v) in
    voltages.(v) <- (if r >= 0 then x.(r) else sys.fixed.(v))
  done;
  {
    netlist = net;
    voltages;
    cg_iterations = 0;
    residual = relative_residual sys.matrix x sys.rhs;
    free_nodes = nf;
    fill;
    nets = Array.length order;
  }

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

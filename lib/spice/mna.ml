module Sp = Numerics.Sparse
module Ch = Numerics.Cholesky

type solution = {
  netlist : Netlist.t;
  voltages : float array;
  cg_iterations : int;
  residual : float;
  free_nodes : int;
  fill : int;
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

(* Free nodes with no conductive path to a pinned node. Unexcited ones
   get an identity row (they read 0 V); an excited one is an error,
   reported with one of its nodes and its size. [tied] marks the rows
   with a conductance to a pinned node. *)
let pin_floating net ~row_of_node ~row_ptr ~cols ~vals ~rhs ~tied =
  let nf = Array.length rhs in
  let queue = Array.make nf 0 in
  let tail = ref 0 in
  for i = 0 to nf - 1 do
    if Bytes.get tied i <> '\000' then begin
      queue.(!tail) <- i;
      incr tail
    end
  done;
  (* Breadth-first from [queue.(from)] up to [!tail], marking with [m]. *)
  let sweep from m =
    let head = ref from in
    while !head < !tail do
      let i = queue.(!head) in
      incr head;
      for p = row_ptr.(i) to row_ptr.(i + 1) - 1 do
        let j = cols.(p) in
        if Bytes.get tied j = '\000' then begin
          Bytes.set tied j m;
          queue.(!tail) <- j;
          incr tail
        end
      done
    done
  in
  sweep 0 '\001';
  if !tail < nf then
    for i = 0 to nf - 1 do
      if Bytes.get tied i = '\000' then
        if rhs.(i) <> 0. then begin
          let from = !tail in
          Bytes.set tied i '\002';
          queue.(!tail) <- i;
          incr tail;
          sweep from '\002';
          let size = ref 0 and first = ref (-1) in
          Array.iteri
            (fun v r ->
              if r >= 0 && Bytes.get tied r = '\002' then begin
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
        end
        else
          for p = row_ptr.(i) to row_ptr.(i + 1) - 1 do
            vals.(p) <- (if cols.(p) = i then 1. else 0.)
          done
    done

let assemble net =
  let n = Netlist.num_nodes net in
  if n = 0 then invalid_arg "Mna.solve: empty netlist";
  let uf = short_representatives net in
  let pinned = pinned_voltages net uf in
  if not (Array.exists Option.is_some pinned) then
    raise (Unsupported "no ground or voltage source to set a reference");
  (* Rows are the free representatives, in node order; every node maps
     to its representative's row, or carries its pinned voltage. *)
  let row_of_node = Array.make n (-1) and fixed = Array.make n 0. in
  let nf = ref 0 in
  for v = 0 to n - 1 do
    if Unionfind.find uf v = v && pinned.(v) = None then begin
      row_of_node.(v) <- !nf;
      incr nf
    end
  done;
  for v = 0 to n - 1 do
    let r = Unionfind.find uf v in
    match pinned.(r) with
    | Some volts -> fixed.(v) <- volts
    | None -> row_of_node.(v) <- row_of_node.(r)
  done;
  let nf = !nf in
  (* Pass 1: row lengths. Every row reserves its diagonal slot first;
     each resistor between two distinct free rows adds one entry to
     each. *)
  let row_ptr = Array.make (nf + 1) 0 in
  let ne = Netlist.num_elements net in
  let pos = net.Netlist.pos and neg = net.Netlist.neg in
  let values = net.Netlist.values in
  for e = 0 to ne - 1 do
    if Netlist.kind net e = Resistor && values.(e) > 0. then begin
      let rp = row_of_node.(pos.(e)) and rq = row_of_node.(neg.(e)) in
      if rp >= 0 && rq >= 0 && rp <> rq then begin
        row_ptr.(rp + 1) <- row_ptr.(rp + 1) + 1;
        row_ptr.(rq + 1) <- row_ptr.(rq + 1) + 1
      end
    end
  done;
  for i = 0 to nf - 1 do
    row_ptr.(i + 1) <- row_ptr.(i + 1) + row_ptr.(i) + 1
  done;
  let total = row_ptr.(nf) in
  let cols = Array.make total 0 and vals = Array.make total 0. in
  let next = Array.make nf 0 in
  for i = 0 to nf - 1 do
    cols.(row_ptr.(i)) <- i;
    next.(i) <- row_ptr.(i) + 1
  done;
  (* Pass 2: stamp. *)
  let rhs = Array.make nf 0. in
  let tied = Bytes.make nf '\000' in
  let stamp_diag r g = vals.(row_ptr.(r)) <- vals.(row_ptr.(r)) +. g in
  let stamp_off r c g =
    let s = next.(r) in
    cols.(s) <- c;
    vals.(s) <- -.g;
    next.(r) <- s + 1
  in
  for e = 0 to ne - 1 do
    let rp = row_of_node.(pos.(e)) and rq = row_of_node.(neg.(e)) in
    match Netlist.kind net e with
    | Resistor when values.(e) > 0. ->
      let g = 1. /. values.(e) in
      if rp >= 0 && rq >= 0 then begin
        if rp <> rq then begin
          stamp_diag rp g;
          stamp_diag rq g;
          stamp_off rp rq g;
          stamp_off rq rp g
        end
      end
      else if rp >= 0 then begin
        stamp_diag rp g;
        rhs.(rp) <- rhs.(rp) +. (g *. fixed.(neg.(e)));
        Bytes.set tied rp '\001'
      end
      else if rq >= 0 then begin
        stamp_diag rq g;
        rhs.(rq) <- rhs.(rq) +. (g *. fixed.(pos.(e)));
        Bytes.set tied rq '\001'
      end
    | Resistor -> () (* shorts already merged *)
    | Current_source ->
      (* The value flows out of [pos] into [neg] through the source. *)
      if rp >= 0 then rhs.(rp) <- rhs.(rp) -. values.(e);
      if rq >= 0 then rhs.(rq) <- rhs.(rq) +. values.(e)
    | Voltage_source -> ()
  done;
  (* Sort each row and merge parallel resistors, compacting in place:
     the write cursor never passes the read cursor. *)
  let out = ref 0 in
  for i = 0 to nf - 1 do
    let lo = row_ptr.(i) and hi = row_ptr.(i + 1) in
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
  row_ptr.(nf) <- !out;
  let cols, vals =
    if !out = total then (cols, vals)
    else (Array.sub cols 0 !out, Array.sub vals 0 !out)
  in
  pin_floating net ~row_of_node ~row_ptr ~cols ~vals ~rhs ~tied;
  {
    matrix = Sp.of_csr ~ncols:nf ~row_ptr ~col_idx:cols ~values:vals;
    rhs;
    row_of_node;
    fixed;
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

let solve net =
  let sys = assemble net in
  let nf = Array.length sys.rhs in
  let x, fill =
    if nf = 0 then ([||], 0)
    else
      match Ch.factorize sys.matrix with
      | f -> (Ch.solve f sys.rhs, Ch.nnz_l f)
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

let ir_drop sol ~supply = Array.map (fun v -> supply -. v) sol.voltages

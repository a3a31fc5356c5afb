type ordering = Natural | Amd

exception Not_positive_definite of int

type t = {
  n : int;
  perm : int array;   (* perm.(new) = old *)
  nnz : int;          (* structural nonzeros of L below the diagonal *)
  super : int array;  (* columns of supernode s: [super.(s), super.(s+1)) *)
  rp : int array;     (* rows of supernode s: ri.(rp.(s)) .. ri.(rp.(s+1) - 1) *)
  ri : int array;     (* row indices, each supernode's own columns first *)
  xp : int array;     (* block of supernode s: lx.(xp.(s)) onwards *)
  lx : float array;   (* column-major blocks of L, D on their diagonals *)
  ordering_s : float;
  factor_s : float;
}

(* ------------------------------------------------------------------ *)
(* Approximate minimum degree ordering, after Davis' cs_amd: a quotient
   graph of uneliminated nodes and elements (eliminated cliques), with
   supervariable detection, element absorption and approximate external
   degrees. Everything lives in one int array [ws]: the quotient graph's
   adjacency lists in [0, nzmax) followed by ten (n+1)-long segments,
   addressed as [ws.(segment + i)]. *)

let flip i = -i - 2

(* Reset the marks in [w] when [mark] would overflow. *)
let wclear ws w mark lemax n =
  if mark < 2 || mark + lemax < 0 then begin
    for k = 0 to n - 1 do
      if ws.(w + k) <> 0 then ws.(w + k) <- 1
    done;
    2
  end
  else mark

(* Depth-first postorder of the tree rooted at [j]; returns the next
   free slot of [post]. *)
let tdfs ws j k ~head ~next ~post ~stack =
  let top = ref 0 and k = ref k in
  ws.(stack) <- j;
  while !top >= 0 do
    let p = ws.(stack + !top) in
    let i = ws.(head + p) in
    if i = -1 then begin
      decr top;
      ws.(post + !k) <- p;
      incr k
    end
    else begin
      ws.(head + p) <- ws.(next + i);
      incr top;
      ws.(stack + !top) <- i
    end
  done;
  !k

let amd (a : Sparse.t) =
  let n = a.Sparse.nrows in
  let row_ptr = a.Sparse.row_ptr and col_idx = a.Sparse.col_idx in
  (* The graph of A + A^T without the diagonal, read off the lower
     triangle (the only part the factorization reads). *)
  let cnz0 = ref 0 in
  for i = 0 to n - 1 do
    for p = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      if col_idx.(p) < i then cnz0 := !cnz0 + 2
    done
  done;
  let cnz0 = !cnz0 in
  let nzmax = cnz0 + (cnz0 / 5) + (2 * n) in
  let seg k = nzmax + (k * (n + 1)) in
  let cp = seg 0 and len = seg 1 and nv = seg 2 and next = seg 3
  and head = seg 4 and elen = seg 5 and degree = seg 6 and w = seg 7
  and hhead = seg 8 and last = seg 9 in
  let ws = Array.make (seg 10) 0 in
  for i = 0 to n - 1 do
    for p = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      let j = col_idx.(p) in
      if j < i then begin
        ws.(len + i) <- ws.(len + i) + 1;
        ws.(len + j) <- ws.(len + j) + 1
      end
    done
  done;
  (* Column pointers; [head] doubles as the fill cursor. *)
  for k = 0 to n - 1 do
    ws.(cp + k + 1) <- ws.(cp + k) + ws.(len + k);
    ws.(head + k) <- ws.(cp + k)
  done;
  for i = 0 to n - 1 do
    for p = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      let j = col_idx.(p) in
      if j < i then begin
        ws.(ws.(head + i)) <- j;
        ws.(head + i) <- ws.(head + i) + 1;
        ws.(ws.(head + j)) <- i;
        ws.(head + j) <- ws.(head + j) + 1
      end
    done
  done;
  (* Initialize the quotient graph. *)
  for i = 0 to n do
    ws.(head + i) <- -1;
    ws.(last + i) <- -1;
    ws.(next + i) <- -1;
    ws.(hhead + i) <- -1;
    ws.(nv + i) <- 1;
    ws.(w + i) <- 1;
    ws.(elen + i) <- 0;
    ws.(degree + i) <- ws.(len + i)
  done;
  let mark = ref (wclear ws w 0 0 n) in
  ws.(elen + n) <- -2;
  ws.(cp + n) <- -1;
  ws.(w + n) <- 0;
  let dense =
    min (n - 2) (int_of_float (Float.max 16. (10. *. sqrt (float_of_int n))))
  in
  let nel = ref 0 and mindeg = ref 0 and lemax = ref 0 and cnz = ref cnz0 in
  (* Degree lists; empty nodes are eliminated at once, dense ones are
     absorbed into the placeholder element n and ordered last. *)
  for i = 0 to n - 1 do
    let d = ws.(degree + i) in
    if d = 0 then begin
      ws.(elen + i) <- -2;
      incr nel;
      ws.(cp + i) <- -1;
      ws.(w + i) <- 0
    end
    else if d > dense then begin
      ws.(nv + i) <- 0;
      ws.(elen + i) <- -1;
      incr nel;
      ws.(cp + i) <- flip n;
      ws.(nv + n) <- ws.(nv + n) + 1
    end
    else begin
      let h = ws.(head + d) in
      if h <> -1 then ws.(last + h) <- i;
      ws.(next + i) <- h;
      ws.(head + d) <- i
    end
  done;
  while !nel < n do
    (* Select a node of minimum approximate degree. *)
    let k = ref (-1) in
    while
      !mindeg < n
      && begin
           k := ws.(head + !mindeg);
           !k = -1
         end
    do
      incr mindeg
    done;
    let k = !k in
    let nk = ws.(next + k) in
    if nk <> -1 then ws.(last + nk) <- -1;
    ws.(head + !mindeg) <- nk;
    let elenk = ws.(elen + k) in
    let nvk = ref ws.(nv + k) in
    nel := !nel + !nvk;
    (* Garbage-collect the adjacency lists when the new element might
       not fit. *)
    if elenk > 0 && !cnz + !mindeg >= nzmax then begin
      for j = 0 to n - 1 do
        let p = ws.(cp + j) in
        if p >= 0 then begin
          ws.(cp + j) <- ws.(p);
          ws.(p) <- flip j
        end
      done;
      let q = ref 0 and p = ref 0 in
      while !p < !cnz do
        let j = flip ws.(!p) in
        incr p;
        if j >= 0 then begin
          ws.(!q) <- ws.(cp + j);
          ws.(cp + j) <- !q;
          incr q;
          for _ = 1 to ws.(len + j) - 1 do
            ws.(!q) <- ws.(!p);
            incr q;
            incr p
          done
        end
      done;
      cnz := !q
    end;
    (* Construct the new element Lk. *)
    let dk = ref 0 in
    ws.(nv + k) <- - !nvk;
    let p = ref ws.(cp + k) in
    let pk1 = if elenk = 0 then !p else !cnz in
    let pk2 = ref pk1 in
    for k1 = 1 to elenk + 1 do
      let e = ref k and pj = ref 0 and ln = ref 0 in
      if k1 > elenk then begin
        pj := !p;
        ln := ws.(len + k) - elenk
      end
      else begin
        e := ws.(!p);
        incr p;
        pj := ws.(cp + !e);
        ln := ws.(len + !e)
      end;
      for _ = 1 to !ln do
        let i = ws.(!pj) in
        incr pj;
        let nvi = ws.(nv + i) in
        if nvi > 0 then begin
          dk := !dk + nvi;
          ws.(nv + i) <- -nvi;
          ws.(!pk2) <- i;
          incr pk2;
          let ni = ws.(next + i) and li = ws.(last + i) in
          if ni <> -1 then ws.(last + ni) <- li;
          if li <> -1 then ws.(next + li) <- ni
          else ws.(head + ws.(degree + i)) <- ni
        end
      done;
      if !e <> k then begin
        ws.(cp + !e) <- flip k;
        ws.(w + !e) <- 0
      end
    done;
    if elenk <> 0 then cnz := !pk2;
    let pk2 = !pk2 in
    ws.(degree + k) <- !dk;
    ws.(cp + k) <- pk1;
    ws.(len + k) <- pk2 - pk1;
    ws.(elen + k) <- -2;
    (* Set differences |Le \ Lk| for every element e next to Lk. *)
    mark := wclear ws w !mark !lemax n;
    for pk = pk1 to pk2 - 1 do
      let i = ws.(pk) in
      let eln = ws.(elen + i) in
      if eln > 0 then begin
        let nvi = -ws.(nv + i) in
        let wnvi = !mark - nvi in
        for p = ws.(cp + i) to ws.(cp + i) + eln - 1 do
          let e = ws.(p) in
          let we = ws.(w + e) in
          if we >= !mark then ws.(w + e) <- we - nvi
          else if we <> 0 then ws.(w + e) <- ws.(degree + e) + wnvi
        done
      end
    done;
    (* Degree update, element absorption, hashing for supervariables. *)
    for pk = pk1 to pk2 - 1 do
      let i = ws.(pk) in
      let p1 = ws.(cp + i) in
      let p2 = p1 + ws.(elen + i) - 1 in
      let pn = ref p1 and h = ref 0 and d = ref 0 in
      for p = p1 to p2 do
        let e = ws.(p) in
        if ws.(w + e) <> 0 then begin
          let dext = ws.(w + e) - !mark in
          if dext > 0 then begin
            d := !d + dext;
            ws.(!pn) <- e;
            incr pn;
            h := !h + e
          end
          else begin
            (* Aggressive absorption: Le is a subset of Lk. *)
            ws.(cp + e) <- flip k;
            ws.(w + e) <- 0
          end
        end
      done;
      ws.(elen + i) <- !pn - p1 + 1;
      let p3 = !pn and p4 = p1 + ws.(len + i) in
      for p = p2 + 1 to p4 - 1 do
        let j = ws.(p) in
        let nvj = ws.(nv + j) in
        if nvj > 0 then begin
          d := !d + nvj;
          ws.(!pn) <- j;
          incr pn;
          h := !h + j
        end
      done;
      if !d = 0 then begin
        (* Mass elimination: i is adjacent to nothing outside Lk. *)
        ws.(cp + i) <- flip k;
        let nvi = -ws.(nv + i) in
        dk := !dk - nvi;
        nvk := !nvk + nvi;
        nel := !nel + nvi;
        ws.(nv + i) <- 0;
        ws.(elen + i) <- -1
      end
      else begin
        ws.(degree + i) <- min ws.(degree + i) !d;
        ws.(!pn) <- ws.(p3);
        ws.(p3) <- ws.(p1);
        ws.(p1) <- k;
        ws.(len + i) <- !pn - p1 + 1;
        let h = abs !h mod n in
        ws.(next + i) <- ws.(hhead + h);
        ws.(hhead + h) <- i;
        ws.(last + i) <- h
      end
    done;
    ws.(degree + k) <- !dk;
    lemax := max !lemax !dk;
    mark := wclear ws w (!mark + !lemax) !lemax n;
    (* Supervariable detection: merge nodes of Lk with identical
       adjacency, found through the hash buckets. *)
    for pk = pk1 to pk2 - 1 do
      let i0 = ws.(pk) in
      if ws.(nv + i0) < 0 then begin
        let h = ws.(last + i0) in
        let i = ref ws.(hhead + h) in
        ws.(hhead + h) <- -1;
        while !i <> -1 && ws.(next + !i) <> -1 do
          let ln = ws.(len + !i) and eln = ws.(elen + !i) in
          for p = ws.(cp + !i) + 1 to ws.(cp + !i) + ln - 1 do
            ws.(w + ws.(p)) <- !mark
          done;
          let jlast = ref !i and j = ref ws.(next + !i) in
          while !j <> -1 do
            let ok = ref (ws.(len + !j) = ln && ws.(elen + !j) = eln) in
            let p = ref (ws.(cp + !j) + 1) in
            while !ok && !p <= ws.(cp + !j) + ln - 1 do
              if ws.(w + ws.(!p)) <> !mark then ok := false;
              incr p
            done;
            if !ok then begin
              ws.(cp + !j) <- flip !i;
              ws.(nv + !i) <- ws.(nv + !i) + ws.(nv + !j);
              ws.(nv + !j) <- 0;
              ws.(elen + !j) <- -1;
              j := ws.(next + !j);
              ws.(next + !jlast) <- !j
            end
            else begin
              jlast := !j;
              j := ws.(next + !j)
            end
          done;
          i := ws.(next + !i);
          incr mark
        done
      end
    done;
    (* Finalize Lk and put its nodes back in the degree lists. *)
    let p = ref pk1 in
    for pk = pk1 to pk2 - 1 do
      let i = ws.(pk) in
      let nvi = -ws.(nv + i) in
      if nvi > 0 then begin
        ws.(nv + i) <- nvi;
        let d = min (ws.(degree + i) + !dk - nvi) (n - !nel - nvi) in
        let hd = ws.(head + d) in
        if hd <> -1 then ws.(last + hd) <- i;
        ws.(next + i) <- hd;
        ws.(last + i) <- -1;
        ws.(head + d) <- i;
        mindeg := min !mindeg d;
        ws.(degree + i) <- d;
        ws.(!p) <- i;
        incr p
      end
    done;
    ws.(nv + k) <- !nvk;
    ws.(len + k) <- !p - pk1;
    if ws.(len + k) = 0 then begin
      ws.(cp + k) <- -1;
      ws.(w + k) <- 0
    end;
    if elenk <> 0 then cnz := !p
  done;
  (* Postorder the assembly tree; [last] receives the order. *)
  for i = 0 to n - 1 do
    ws.(cp + i) <- flip ws.(cp + i)
  done;
  for j = 0 to n do
    ws.(head + j) <- -1
  done;
  for j = n downto 0 do
    if ws.(nv + j) <= 0 then begin
      let parent = ws.(cp + j) in
      ws.(next + j) <- ws.(head + parent);
      ws.(head + parent) <- j
    end
  done;
  for e = n downto 0 do
    if ws.(nv + e) > 0 && ws.(cp + e) <> -1 then begin
      let parent = ws.(cp + e) in
      ws.(next + e) <- ws.(head + parent);
      ws.(head + parent) <- e
    end
  done;
  let k = ref 0 in
  for i = 0 to n do
    if ws.(cp + i) = -1 then
      k := tdfs ws i !k ~head ~next ~post:last ~stack:w
  done;
  (* The placeholder n comes last; the rest is the permutation. *)
  Array.sub ws last n

(* ------------------------------------------------------------------ *)
(* Left-looking supernodal LDL^T (after Ng & Peyton, and CHOLMOD).     *)

(* [acc.(r) <- sum over k < nk of l(row + r, k) * l(row, k) * d(k)] for
   [r < len], where column k of a block starts at [lx.(b + k * ld)] and
   holds d(k) on its diagonal: the update that the first [nk] columns
   of a supernode make to column [row] of L. With [two], [acc2.(r)]
   gets the same for column [row + 1] from the same loads (its entry 0
   lies above that column's diagonal); without, [acc2] is scratch. The
   [nk mod 4] leading columns go one at a time, the rest four per
   pass. *)
let block_update lx b ld nk row len ~two acc acc2 =
  if
    b < 0 || len < 1 || row < nk || Array.length acc < len
    || Array.length acc2 < len
    || (nk > 0 && b + ((nk - 1) * ld) + row + len > Array.length lx)
    || (two && len < 2)
  then invalid_arg "Cholesky: block out of bounds";
  Array.fill acc 0 len 0.;
  if two then Array.fill acc2 0 len 0.;
  (* [l(row + o, k) * d(k)] for column k at [c], with [o] = 1 only for
     the second column ([z] = 0 zeroes its weights otherwise). *)
  let o = if two then 1 else 0 and z = if two then 1. else 0. in
  let lead = nk land 3 in
  for k = 0 to lead - 1 do
    let c = b + (k * ld) in
    let d = Array.unsafe_get lx (c + k) and c = c + row in
    let w = Array.unsafe_get lx c *. d and v = Array.unsafe_get lx (c + o) *. d *. z in
    if two then
      for r = 0 to len - 1 do
        let x = Array.unsafe_get lx (c + r) in
        Array.unsafe_set acc r (Array.unsafe_get acc r +. (x *. w));
        Array.unsafe_set acc2 r (Array.unsafe_get acc2 r +. (x *. v))
      done
    else
      for r = 0 to len - 1 do
        Array.unsafe_set acc r (Array.unsafe_get acc r +. (Array.unsafe_get lx (c + r) *. w))
      done
  done;
  for g = 0 to (nk / 4) - 1 do
    let k = lead + (4 * g) in
    let c0 = b + (k * ld) in
    let c1 = c0 + ld in
    let c2 = c1 + ld in
    let c3 = c2 + ld in
    let d0 = Array.unsafe_get lx (c0 + k) and d1 = Array.unsafe_get lx (c1 + k + 1)
    and d2 = Array.unsafe_get lx (c2 + k + 2) and d3 = Array.unsafe_get lx (c3 + k + 3) in
    let c0 = c0 + row and c1 = c1 + row and c2 = c2 + row and c3 = c3 + row in
    let w0 = Array.unsafe_get lx c0 *. d0 and w1 = Array.unsafe_get lx c1 *. d1
    and w2 = Array.unsafe_get lx c2 *. d2 and w3 = Array.unsafe_get lx c3 *. d3 in
    let v0 = Array.unsafe_get lx (c0 + o) *. d0 *. z
    and v1 = Array.unsafe_get lx (c1 + o) *. d1 *. z
    and v2 = Array.unsafe_get lx (c2 + o) *. d2 *. z
    and v3 = Array.unsafe_get lx (c3 + o) *. d3 *. z in
    for r = 0 to len - 1 do
      let x0 = Array.unsafe_get lx (c0 + r) and x1 = Array.unsafe_get lx (c1 + r)
      and x2 = Array.unsafe_get lx (c2 + r) and x3 = Array.unsafe_get lx (c3 + r) in
      Array.unsafe_set acc r
        (Array.unsafe_get acc r +. (x0 *. w0) +. (x1 *. w1) +. (x2 *. w2) +. (x3 *. w3));
      Array.unsafe_set acc2 r
        (Array.unsafe_get acc2 r +. (x0 *. v0) +. (x1 *. v1) +. (x2 *. v2) +. (x3 *. v3))
    done
  done

let factorize ?(ordering = Amd) (a : Sparse.t) =
  let n, cols = Sparse.dims a in
  if n <> cols then invalid_arg "Cholesky.factorize: non-square";
  let row_ptr = a.Sparse.row_ptr
  and col_idx = a.Sparse.col_idx
  and values = a.Sparse.values in
  let t0 = Obs.Clock.now_us () in
  (* The ordering's workspace is garbage by the time L is allocated. *)
  let perm =
    match ordering with
    | Natural -> Array.init n (fun i -> i)
    | Amd -> amd a
  in
  let t1 = Obs.Clock.now_us () in
  let inv_perm = Array.make n 0 in
  Array.iteri (fun new_pos old -> inv_perm.(old) <- new_pos) perm;
  (* Row k of the permuted matrix is row perm.(k); of it, the entries
     whose new column is <= k form the lower triangle. *)
  (* Symbolic: elimination tree + column counts. *)
  let parent = Array.make n (-1) in
  let flag = Array.make n (-1) in
  let lnz = Array.make n 0 in
  for k = 0 to n - 1 do
    flag.(k) <- k;
    let old = perm.(k) in
    for p = row_ptr.(old) to row_ptr.(old + 1) - 1 do
      let i = ref inv_perm.(col_idx.(p)) in
      if !i < k then
        while flag.(!i) <> k do
          if parent.(!i) = -1 then parent.(!i) <- k;
          lnz.(!i) <- lnz.(!i) + 1;
          flag.(!i) <- k;
          i := parent.(!i)
        done
    done
  done;
  let nnz = Array.fold_left ( + ) 0 lnz in
  (* Supernodes: column j joins column j + 1's when j's structure is
     j + 1's plus row j + 1, that is when j's parent is j + 1 and j has
     one more entry. [last.(j)] is the last column of j's supernode. *)
  let last = Array.make n 0 in
  let ns = ref 0 in
  for j = n - 1 downto 0 do
    if j < n - 1 && parent.(j) = j + 1 && lnz.(j) = lnz.(j + 1) + 1 then
      last.(j) <- last.(j + 1)
    else begin
      last.(j) <- j;
      incr ns
    end
  done;
  let ns = !ns in
  let super = Array.make (ns + 1) n in
  let s = ref 0 in
  for j = 0 to n - 1 do
    if j = 0 || last.(j - 1) = j - 1 then begin
      super.(!s) <- j;
      incr s
    end
  done;
  (* Supernode s lists its rows at ri.(rp.(s)), its own columns first,
     and holds its columns as one dense column-major block at
     lx.(xp.(s)), D on the block's diagonal. *)
  let rp = Array.make (ns + 1) 0 and xp = Array.make (ns + 1) 0 in
  let max_rows = ref 1 in
  for s = 0 to ns - 1 do
    let nc = super.(s + 1) - super.(s) in
    let nr = nc + lnz.(super.(s + 1) - 1) in
    rp.(s + 1) <- rp.(s) + nr;
    xp.(s + 1) <- xp.(s) + (nr * nc);
    max_rows := max !max_rows nr
  done;
  let ri = Array.make (max 1 rp.(ns)) 0 in
  (* [lnz] is reused as the next free row slot, by last column. *)
  let cursor = lnz in
  for s = 0 to ns - 1 do
    let c0 = super.(s) and c1 = super.(s + 1) in
    for j = c0 to c1 - 1 do
      ri.(rp.(s) + j - c0) <- j
    done;
    cursor.(c1 - 1) <- rp.(s) + c1 - c0
  done;
  (* Row k lies below a supernode when k's row subtree reaches it; the
     walk up the elimination tree steps a supernode at a time and
     stops at k's own. *)
  Array.fill flag 0 n (-1);
  for k = 0 to n - 1 do
    let old = perm.(k) in
    for p = row_ptr.(old) to row_ptr.(old + 1) - 1 do
      let i = ref inv_perm.(col_idx.(p)) in
      while last.(!i) < k && flag.(last.(!i)) <> k do
        let e = last.(!i) in
        flag.(e) <- k;
        ri.(cursor.(e)) <- k;
        cursor.(e) <- cursor.(e) + 1;
        i := parent.(e)
      done
    done
  done;
  (* Numeric pass, a supernode at a time: scatter A's columns, subtract
     each descendant's update, factor the block. Descendant d waits,
     from its row [pos.(d)] on, in the list of the supernode holding
     that row, headed at the supernode's last column. Row indices and
     [map] entries are in range by construction, so the scatter loops
     go unchecked. *)
  let lx = Array.make (max 1 xp.(ns)) 0. in
  let map = flag and pos = cursor and head = parent in
  Array.fill head 0 n (-1);
  let next = Array.make (max 1 ns) (-1) in
  let acc = Array.make !max_rows 0. and acc2 = Array.make !max_rows 0. in
  let link d p =
    pos.(d) <- p;
    let t = last.(ri.(rp.(d) + p)) in
    next.(d) <- head.(t);
    head.(t) <- d
  in
  for s = 0 to ns - 1 do
    let c0 = super.(s) and c1 = super.(s + 1) in
    let r0 = rp.(s) and x0 = xp.(s) in
    let nr = rp.(s + 1) - r0 in
    for q = 0 to nr - 1 do
      map.(ri.(r0 + q)) <- q
    done;
    for j = c0 to c1 - 1 do
      let old = perm.(j) and col = x0 + ((j - c0) * nr) in
      for p = row_ptr.(old) to row_ptr.(old + 1) - 1 do
        let i = inv_perm.(col_idx.(p)) in
        if i >= j then begin
          let t = col + map.(i) in
          lx.(t) <- lx.(t) +. values.(p)
        end
      done
    done;
    let e = ref head.(c1 - 1) in
    while !e >= 0 do
      let d = !e in
      e := next.(d);
      let dr0 = rp.(d) and dnr = rp.(d + 1) - rp.(d) in
      let p1 = pos.(d) in
      let p2 = ref p1 in
      while !p2 < dnr && ri.(dr0 + !p2) < c1 do
        incr p2
      done;
      (* Two target columns per pass over the descendant's block. *)
      let q = ref p1 in
      while !q < !p2 do
        let q0 = !q and two = !q + 1 < !p2 in
        let len = dnr - q0 and rq = dr0 + q0 in
        block_update lx xp.(d) dnr (super.(d + 1) - super.(d)) q0 len ~two acc acc2;
        for u = 0 to Bool.to_int two do
          let a = if u = 0 then acc else acc2 and col = x0 + ((ri.(rq + u) - c0) * nr) in
          for r = u to len - 1 do
            let t = col + Array.unsafe_get map (Array.unsafe_get ri (rq + r)) in
            Array.unsafe_set lx t (Array.unsafe_get lx t -. Array.unsafe_get a r)
          done
        done;
        q := q0 + 1 + Bool.to_int two
      done;
      if !p2 < dnr then link d !p2
    done;
    (* The block's own columns, left-looking and two at a time: both
       take the earlier columns' update in one pass, then the first is
       finished and its part of the second subtracted. A pivot is final
       once its column has taken every update, so the first bad one in
       elimination order raises. *)
    let j = ref 0 in
    while !j < c1 - c0 do
      let j0 = !j and two = !j + 1 < c1 - c0 in
      block_update lx x0 nr j0 j0 (nr - j0) ~two acc acc2;
      for jj = j0 to j0 + Bool.to_int two do
        let col = x0 + (jj * nr) and a = if jj = j0 then acc else acc2 in
        for r = jj to nr - 1 do
          lx.(col + r) <- lx.(col + r) -. a.(r - j0)
        done;
        if jj > j0 then begin
          let prev = col - nr in
          let f = lx.(prev + jj) *. lx.(prev + j0) in
          for r = jj to nr - 1 do
            lx.(col + r) <- lx.(col + r) -. (lx.(prev + r) *. f)
          done
        end;
        let dj = lx.(col + jj) in
        if not (dj > 0. && Float.is_finite dj) then
          raise (Not_positive_definite perm.(c0 + jj));
        for t = col + jj + 1 to col + nr - 1 do
          lx.(t) <- lx.(t) /. dj
        done
      done;
      j := j0 + 1 + Bool.to_int two
    done;
    if c1 - c0 < nr then link s (c1 - c0)
  done;
  let t2 = Obs.Clock.now_us () in
  {
    n;
    perm;
    nnz;
    super;
    rp;
    ri;
    xp;
    lx;
    ordering_s = (t1 -. t0) *. 1e-6;
    factor_s = (t2 -. t1) *. 1e-6;
  }

let dim f = f.n

let nnz_l f = f.nnz

let supernodes f = Array.length f.super - 1

let ordering_permutation f = Array.copy f.perm

let ordering_seconds f = f.ordering_s

let factor_seconds f = f.factor_s

let solve f b =
  let n = f.n and super = f.super and rp = f.rp and ri = f.ri and xp = f.xp
  and lx = f.lx in
  if Array.length b <> n then invalid_arg "Cholesky.solve: dimension mismatch";
  (* y (permuted) = P b *)
  let y = Array.make n 0. in
  for k = 0 to n - 1 do
    y.(k) <- b.(f.perm.(k))
  done;
  (* Forward, L z = y, then D: a supernode at a time, down its columns
     (L is unit-diagonal, D sits on the blocks' diagonals). Every row
     index is below n by construction, so the one check per block is
     of the block's extent. *)
  for s = 0 to supernodes f - 1 do
    let c0 = super.(s) and r0 = rp.(s) and x0 = xp.(s) in
    let nc = super.(s + 1) - c0 and nr = rp.(s + 1) - r0 in
    if r0 + nr > Array.length ri || x0 + (nr * nc) > Array.length lx then
      invalid_arg "Cholesky.solve: corrupt factor";
    for j = 0 to nc - 1 do
      let col = x0 + (j * nr) in
      let yj = y.(c0 + j) in
      if yj <> 0. then
        for r = j + 1 to nr - 1 do
          let i = Array.unsafe_get ri (r0 + r) in
          Array.unsafe_set y i
            (Array.unsafe_get y i -. (Array.unsafe_get lx (col + r) *. yj))
        done;
      y.(c0 + j) <- yj /. lx.(col + j)
    done
  done;
  (* Backward: L^T w = y. *)
  for s = supernodes f - 1 downto 0 do
    let c0 = super.(s) and r0 = rp.(s) and x0 = xp.(s) in
    let nc = super.(s + 1) - c0 and nr = rp.(s + 1) - r0 in
    for j = nc - 1 downto 0 do
      let col = x0 + (j * nr) in
      let acc = ref y.(c0 + j) in
      for r = j + 1 to nr - 1 do
        acc :=
          !acc
          -. (Array.unsafe_get lx (col + r) *. Array.unsafe_get y (Array.unsafe_get ri (r0 + r)))
      done;
      y.(c0 + j) <- !acc
    done
  done;
  (* Un-permute. *)
  let x = Array.make n 0. in
  for k = 0 to n - 1 do
    x.(f.perm.(k)) <- y.(k)
  done;
  x

type ordering = Natural | Amd

exception Not_positive_definite of int

type t = {
  n : int;
  perm : int array;     (* perm.(new) = old *)
  inv_perm : int array; (* inv_perm.(old) = new *)
  lp : int array;       (* column pointers of L, length n+1 *)
  li : int array;       (* row indices of L *)
  lx : float array;     (* values of L *)
  d : float array;      (* diagonal of D *)
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
(* Up-looking LDL^T (after Davis' LDL).                                 *)

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
  let lp = Array.make (n + 1) 0 in
  for k = 0 to n - 1 do
    lp.(k + 1) <- lp.(k) + lnz.(k)
  done;
  let total = lp.(n) in
  let li = Array.make (max 1 total) 0 in
  let lx = Array.make (max 1 total) 0. in
  let d = Array.make n 0. in
  (* Numeric pass: row k of L from a sparse triangular solve along the
     elimination tree. [lnz] is reused as the next free slot of each
     column. *)
  let y = Array.make n 0. in
  let pattern = Array.make n 0 in
  let fill = lnz in
  Array.blit lp 0 fill 0 n;
  Array.fill flag 0 n (-1);
  for k = 0 to n - 1 do
    let top = ref n in
    flag.(k) <- k;
    let old = perm.(k) in
    for p = row_ptr.(old) to row_ptr.(old + 1) - 1 do
      let i = inv_perm.(col_idx.(p)) in
      if i <= k then begin
        y.(i) <- y.(i) +. values.(p);
        let len = ref 0 and i = ref i in
        while flag.(!i) <> k do
          pattern.(!len) <- !i;
          incr len;
          flag.(!i) <- k;
          i := parent.(!i)
        done;
        while !len > 0 do
          decr len;
          decr top;
          pattern.(!top) <- pattern.(!len)
        done
      end
    done;
    let dk = ref y.(k) in
    y.(k) <- 0.;
    for s = !top to n - 1 do
      let i = pattern.(s) in
      let yi = y.(i) in
      y.(i) <- 0.;
      for p = lp.(i) to fill.(i) - 1 do
        let r = li.(p) in
        y.(r) <- y.(r) -. (lx.(p) *. yi)
      done;
      let l_ki = yi /. d.(i) in
      dk := !dk -. (l_ki *. yi);
      let slot = fill.(i) in
      li.(slot) <- k;
      lx.(slot) <- l_ki;
      fill.(i) <- slot + 1
    done;
    if not (!dk > 0. && Float.is_finite !dk) then
      raise (Not_positive_definite perm.(k));
    d.(k) <- !dk
  done;
  let t2 = Obs.Clock.now_us () in
  {
    n;
    perm;
    inv_perm;
    lp;
    li;
    lx;
    d;
    ordering_s = (t1 -. t0) *. 1e-6;
    factor_s = (t2 -. t1) *. 1e-6;
  }

let dim f = f.n

let nnz_l f = f.lp.(f.n)

let ordering_permutation f = Array.copy f.perm

let ordering_seconds f = f.ordering_s

let factor_seconds f = f.factor_s

let solve f b =
  let n = f.n and lp = f.lp and li = f.li and lx = f.lx in
  if Array.length b <> n then invalid_arg "Cholesky.solve: dimension mismatch";
  (* y (permuted) = P b *)
  let y = Array.make n 0. in
  for k = 0 to n - 1 do
    y.(k) <- b.(f.perm.(k))
  done;
  (* Forward: L z = y (L unit-diagonal, stored by columns). *)
  for j = 0 to n - 1 do
    let yj = y.(j) in
    if yj <> 0. then
      for p = lp.(j) to lp.(j + 1) - 1 do
        let r = li.(p) in
        y.(r) <- y.(r) -. (lx.(p) *. yj)
      done
  done;
  (* Diagonal. *)
  for j = 0 to n - 1 do
    y.(j) <- y.(j) /. f.d.(j)
  done;
  (* Backward: L^T w = y. *)
  for j = n - 1 downto 0 do
    let acc = ref y.(j) in
    for p = lp.(j) to lp.(j + 1) - 1 do
      acc := !acc -. (lx.(p) *. y.(li.(p)))
    done;
    y.(j) <- !acc
  done;
  (* Un-permute. *)
  let x = Array.make n 0. in
  for k = 0 to n - 1 do
    x.(f.perm.(k)) <- y.(k)
  done;
  x

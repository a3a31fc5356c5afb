type t = {
  nrows : int;
  ncols : int;
  row_ptr : int array;
  col_idx : int array;
  values : float array;
}

module Builder = struct
  type nonrec csr = t

  type t = {
    nrows : int;
    ncols : int;
    mutable n : int;
    mutable rows : int array;
    mutable cols : int array;
    mutable vals : float array;
  }

  let create ?(expected_nnz = 16) nrows ncols =
    if nrows < 0 || ncols < 0 then invalid_arg "Sparse.Builder.create";
    let cap = max 1 expected_nnz in
    {
      nrows;
      ncols;
      n = 0;
      rows = Array.make cap 0;
      cols = Array.make cap 0;
      vals = Array.make cap 0.;
    }

  let grow b =
    let cap = Array.length b.rows in
    let cap' = 2 * cap in
    let extend a fill_value =
      let a' = Array.make cap' fill_value in
      Array.blit a 0 a' 0 cap;
      a'
    in
    b.rows <- extend b.rows 0;
    b.cols <- extend b.cols 0;
    b.vals <- extend b.vals 0.

  let add b i j v =
    if i < 0 || i >= b.nrows || j < 0 || j >= b.ncols then
      invalid_arg
        (Printf.sprintf "Sparse.Builder.add: (%d,%d) out of %dx%d" i j b.nrows
           b.ncols);
    if b.n = Array.length b.rows then grow b;
    b.rows.(b.n) <- i;
    b.cols.(b.n) <- j;
    b.vals.(b.n) <- v;
    b.n <- b.n + 1

  (* Two-pass counting sort by row, then per-row sort by column with
     duplicate summation. Linear in nnz plus per-row sorting cost. *)
  let to_csr b : csr =
    let counts = Array.make (b.nrows + 1) 0 in
    for k = 0 to b.n - 1 do
      counts.(b.rows.(k) + 1) <- counts.(b.rows.(k) + 1) + 1
    done;
    for i = 1 to b.nrows do
      counts.(i) <- counts.(i) + counts.(i - 1)
    done;
    let fill = Array.copy counts in
    let cols = Array.make (max 1 b.n) 0 in
    let vals = Array.make (max 1 b.n) 0. in
    for k = 0 to b.n - 1 do
      let r = b.rows.(k) in
      cols.(fill.(r)) <- b.cols.(k);
      vals.(fill.(r)) <- b.vals.(k);
      fill.(r) <- fill.(r) + 1
    done;
    (* Sort each row segment by column index and merge duplicates. *)
    let out_cols = Array.make (max 1 b.n) 0 in
    let out_vals = Array.make (max 1 b.n) 0. in
    let row_ptr = Array.make (b.nrows + 1) 0 in
    let out_n = ref 0 in
    for r = 0 to b.nrows - 1 do
      row_ptr.(r) <- !out_n;
      let lo = counts.(r) and hi = fill.(r) in
      let len = hi - lo in
      if len > 0 then begin
        let order = Array.init len (fun k -> lo + k) in
        Array.sort (fun a bidx -> compare cols.(a) cols.(bidx)) order;
        let k = ref 0 in
        while !k < len do
          let c = cols.(order.(!k)) in
          let acc = ref 0. in
          while !k < len && cols.(order.(!k)) = c do
            acc := !acc +. vals.(order.(!k));
            incr k
          done;
          out_cols.(!out_n) <- c;
          out_vals.(!out_n) <- !acc;
          incr out_n
        done
      end
    done;
    row_ptr.(b.nrows) <- !out_n;
    {
      nrows = b.nrows;
      ncols = b.ncols;
      row_ptr;
      col_idx = Array.sub out_cols 0 !out_n;
      values = Array.sub out_vals 0 !out_n;
    }
end

let of_csr ~ncols ~row_ptr ~col_idx ~values =
  let nrows = Array.length row_ptr - 1 in
  let bad what = invalid_arg ("Sparse.of_csr: " ^ what) in
  if nrows < 0 || ncols < 0 || row_ptr.(0) <> 0 then bad "row_ptr";
  let nnz = row_ptr.(nrows) in
  if Array.length col_idx <> nnz || Array.length values <> nnz then
    bad "array lengths";
  for i = 0 to nrows - 1 do
    if row_ptr.(i + 1) < row_ptr.(i) then bad "row_ptr";
    for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      let c = col_idx.(k) in
      if c < 0 || c >= ncols || (k > row_ptr.(i) && c <= col_idx.(k - 1)) then
        bad "column indices"
    done
  done;
  { nrows; ncols; row_ptr; col_idx; values }

let nnz m = m.row_ptr.(m.nrows)

let dims m = (m.nrows, m.ncols)

let get m i j =
  if i < 0 || i >= m.nrows || j < 0 || j >= m.ncols then
    invalid_arg "Sparse.get: out of bounds";
  let lo = ref m.row_ptr.(i) and hi = ref (m.row_ptr.(i + 1) - 1) in
  let result = ref 0. in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = m.col_idx.(mid) in
    if c = j then begin
      result := m.values.(mid);
      lo := !hi + 1
    end
    else if c < j then lo := mid + 1
    else hi := mid - 1
  done;
  !result

let mul_vec_into m x y =
  if Array.length x <> m.ncols || Array.length y <> m.nrows then
    invalid_arg "Sparse.mul_vec_into: dimension mismatch";
  for i = 0 to m.nrows - 1 do
    let acc = ref 0. in
    for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      acc := !acc +. (m.values.(k) *. x.(m.col_idx.(k)))
    done;
    y.(i) <- !acc
  done

let mul_vec m x =
  let y = Array.make m.nrows 0. in
  mul_vec_into m x y;
  y

let diagonal m =
  if m.nrows <> m.ncols then invalid_arg "Sparse.diagonal: non-square";
  Array.init m.nrows (fun i -> get m i i)

let iter_entries m f =
  for i = 0 to m.nrows - 1 do
    for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      f i m.col_idx.(k) m.values.(k)
    done
  done

let transpose m =
  let b = Builder.create ~expected_nnz:(nnz m) m.ncols m.nrows in
  iter_entries m (fun i j v -> Builder.add b j i v);
  Builder.to_csr b

let scale a m = { m with values = Array.map (fun v -> a *. v) m.values }

let add m1 m2 =
  if dims m1 <> dims m2 then invalid_arg "Sparse.add: dimension mismatch";
  let b = Builder.create ~expected_nnz:(nnz m1 + nnz m2) m1.nrows m1.ncols in
  iter_entries m1 (fun i j v -> Builder.add b i j v);
  iter_entries m2 (fun i j v -> Builder.add b i j v);
  Builder.to_csr b

let add_diagonal m d =
  if m.nrows <> m.ncols then invalid_arg "Sparse.add_diagonal: non-square";
  if Array.length d <> m.nrows then
    invalid_arg "Sparse.add_diagonal: dimension mismatch";
  let b = Builder.create ~expected_nnz:(nnz m + m.nrows) m.nrows m.ncols in
  iter_entries m (fun i j v -> Builder.add b i j v);
  Array.iteri (fun i v -> Builder.add b i i v) d;
  Builder.to_csr b

let identity n =
  let b = Builder.create ~expected_nnz:n n n in
  for i = 0 to n - 1 do
    Builder.add b i i 1.
  done;
  Builder.to_csr b

let to_dense m =
  let d = Dense.create m.nrows m.ncols in
  iter_entries m (fun i j v -> Dense.add_to d i j v);
  d

let is_symmetric ?(tol = 1e-12) m =
  m.nrows = m.ncols
  &&
  let max_mag = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0. m.values in
  let bound = tol *. Float.max 1. max_mag in
  let ok = ref true in
  iter_entries m (fun i j v ->
      if Float.abs (v -. get m j i) > bound then ok := false);
  !ok

let row_sums m =
  Array.init m.nrows (fun i ->
      let acc = ref 0. in
      for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
        acc := !acc +. m.values.(k)
      done;
      !acc)

let pp_stats ppf m =
  Format.fprintf ppf "%dx%d sparse, %d nnz" m.nrows m.ncols (nnz m)

type point = { length_um : float; j : float; correct : bool }

let of_result compacts (r : Em_flow.result) =
  let correct bits =
    (bits land Em_flow.blech_bit <> 0) = (bits land Em_flow.exact_bit <> 0)
  in
  List.mapi
    (fun i (cs : Extract.compact_structure) ->
      let c = cs.Extract.compact in
      Array.init (Bytes.length r.Em_flow.verdicts.(i)) (fun k ->
          {
            length_um = c.Em_core.Compact.length.(k) *. 1e6;
            j = c.Em_core.Compact.j.(k);
            correct = correct (Em_flow.segment_verdict r i k);
          }))
    compacts
  |> Array.concat

let summary points =
  let total = Array.length points in
  let good = Array.fold_left (fun n p -> if p.correct then n + 1 else n) 0 points in
  Printf.sprintf "%d segments: %d correctly filtered, %d misfiltered (%.1f%% wrong)"
    total good (total - good)
    (if total = 0 then 0. else 100. *. float_of_int (total - good) /. float_of_int total)

let ascii ?(width = 72) ?(height = 24) ~jl_crit points =
  if Array.length points = 0 then "(no points)\n"
  else begin
    (* Log-log extents with a little padding. *)
    let log_l p = log10 (Float.max 1e-3 p.length_um) in
    let log_j p = log10 (Float.max 1e3 (Float.abs p.j)) in
    let lmin = ref infinity and lmax = ref neg_infinity in
    let jmin = ref infinity and jmax = ref neg_infinity in
    Array.iter
      (fun p ->
        lmin := Float.min !lmin (log_l p);
        lmax := Float.max !lmax (log_l p);
        jmin := Float.min !jmin (log_j p);
        jmax := Float.max !jmax (log_j p))
      points;
    let pad lo hi = if hi -. lo < 0.5 then (lo -. 0.25, hi +. 0.25) else (lo, hi) in
    let lmin, lmax = pad !lmin !lmax and jmin, jmax = pad !jmin !jmax in
    let cell_of x lo hi n =
      let c = int_of_float (float_of_int n *. (x -. lo) /. (hi -. lo)) in
      max 0 (min (n - 1) c)
    in
    let good = Array.make_matrix height width false in
    let bad = Array.make_matrix height width false in
    Array.iter
      (fun p ->
        let cx = cell_of (log_l p) lmin lmax width in
        let cy = cell_of (log_j p) jmin jmax height in
        if p.correct then good.(cy).(cx) <- true else bad.(cy).(cx) <- true)
      points;
    let buf = Buffer.create (width * height * 2) in
    Buffer.add_string buf
      (Printf.sprintf
         "|j| (A/m^2, log) vs length (um, log); '.'=correct 'x'=misfiltered \
          '#'=mixed '+'=jl_crit contour\n");
    for row = height - 1 downto 0 do
      (* y label on selected rows *)
      let y_mid = jmin +. ((float_of_int row +. 0.5) /. float_of_int height *. (jmax -. jmin)) in
      let label =
        if row = height - 1 || row = 0 || row = height / 2 then
          Printf.sprintf "%8.1e |" (10. ** y_mid)
        else "         |"
      in
      Buffer.add_string buf label;
      for col = 0 to width - 1 do
        let c =
          match (good.(row).(col), bad.(row).(col)) with
          | true, true -> '#'
          | true, false -> '.'
          | false, true -> 'x'
          | false, false ->
            (* Critical contour: log j = log jl_crit(A/um basis) - log l.
               jl_crit is A/m; length axis is um so convert. *)
            let x_mid =
              lmin +. ((float_of_int col +. 0.5) /. float_of_int width *. (lmax -. lmin))
            in
            let contour = log10 (jl_crit /. 1e-6) -. x_mid in
            let cell_h = (jmax -. jmin) /. float_of_int height in
            if Float.abs (contour -. y_mid) < cell_h /. 2. then '+' else ' '
        in
        Buffer.add_char buf c
      done;
      Buffer.add_char buf '\n'
    done;
    Buffer.add_string buf "         +";
    Buffer.add_string buf (String.make width '-');
    Buffer.add_char buf '\n';
    Buffer.add_string buf
      (Printf.sprintf "          %-10.3g%*s%10.3g\n" (10. ** lmin)
         (width - 20) "" (10. ** lmax));
    Buffer.contents buf
  end

let to_csv points =
  let buf = Buffer.create (Array.length points * 32) in
  Buffer.add_string buf "length_um,j_A_per_m2,correct\n";
  Array.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "%.6g,%.6g,%d\n" p.length_um p.j
           (if p.correct then 1 else 0)))
    points;
  Buffer.contents buf

let write_csv path points =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_csv points))

let mean xs =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else Array.fold_left ( +. ) 0. xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else if n = 1 then 0.
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs in
    (* Bessel's correction: these are sample statistics, and the Monte-Carlo
       reports lean on them at small n where the n-denominator bias is
       visible. *)
    acc /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

let min_max xs =
  if Array.length xs = 0 then invalid_arg "Stats.min_max: empty";
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0)) xs

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then sorted.(lo)
  else begin
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)
  end

let median xs = percentile xs 50.

let rmse x y =
  if Array.length x <> Array.length y then invalid_arg "Stats.rmse";
  let n = Array.length x in
  if n = 0 then 0.
  else begin
    let acc = ref 0. in
    for i = 0 to n - 1 do
      let d = x.(i) -. y.(i) in
      acc := !acc +. (d *. d)
    done;
    sqrt (!acc /. float_of_int n)
  end

let max_rel_error x y =
  if Array.length x <> Array.length y then invalid_arg "Stats.max_rel_error";
  let y_scale =
    Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0. y
  in
  let floor_scale = Float.max 1e-300 (1e-12 *. y_scale) in
  let acc = ref 0. in
  for i = 0 to Array.length x - 1 do
    let denom = Float.max floor_scale (Float.abs y.(i)) in
    acc := Float.max !acc (Float.abs (x.(i) -. y.(i)) /. denom)
  done;
  !acc

module Online = struct
  (* An all-float record is stored flat, so updating it never boxes;
     the count is exact as a float up to 2^53. *)
  type t = { mutable n : float; mutable mu : float; mutable m2 : float }

  let create () = { n = 0.; mu = 0.; m2 = 0. }

  (* Welford's update: numerically stable, one pass, O(1) memory. *)
  let[@inline] push t x =
    t.n <- t.n +. 1.;
    let d = x -. t.mu in
    t.mu <- t.mu +. (d /. t.n);
    t.m2 <- t.m2 +. (d *. (x -. t.mu))

  let add t x = push t x

  let add_slice t a pos len =
    for i = pos to pos + len - 1 do
      push t a.(i)
    done

  let count t = int_of_float t.n
  let mean t = if t.n = 0. then Float.nan else t.mu

  let variance t =
    if t.n = 0. then Float.nan
    else if t.n = 1. then 0.
    else t.m2 /. (t.n -. 1.)

  let stddev t = sqrt (variance t)
end

module P2 = struct
  (* Jain & Chlamtac's P^2 algorithm: a single quantile estimated online
     with five markers and no sample storage. The first five observations
     are kept verbatim, so up to n = 5 the estimate is the exact
     interpolated order statistic. *)
  type t = {
    p : float;
    q : float array; (* marker heights *)
    pos : float array; (* actual marker positions, 1-based *)
    des : float array; (* desired marker positions *)
    inc : float array; (* desired-position increments per observation *)
    first : float array; (* the first five observations, in arrival order *)
    mutable n : int;
  }

  let create p =
    if not (p > 0. && p < 1.) then
      invalid_arg "Stats.P2.create: p must be inside (0, 1)";
    {
      p;
      q = Array.make 5 0.;
      pos = [| 1.; 2.; 3.; 4.; 5. |];
      des = [| 1.; 1. +. (2. *. p); 1. +. (4. *. p); 3. +. (2. *. p); 5. |];
      inc = [| 0.; p /. 2.; p; (1. +. p) /. 2.; 1. |];
      first = Array.make 5 0.;
      n = 0;
    }

  let count t = t.n

  let[@inline] parabolic t i d =
    let q = t.q and pos = t.pos in
    q.(i)
    +. d
       /. (pos.(i + 1) -. pos.(i - 1))
       *. (((pos.(i) -. pos.(i - 1) +. d)
            *. (q.(i + 1) -. q.(i))
            /. (pos.(i + 1) -. pos.(i)))
          +. ((pos.(i + 1) -. pos.(i) -. d)
             *. (q.(i) -. q.(i - 1))
             /. (pos.(i) -. pos.(i - 1))))

  let[@inline] linear t i d =
    let j = i + int_of_float d in
    t.q.(i) +. (d *. (t.q.(j) -. t.q.(i)) /. (t.pos.(j) -. t.pos.(i)))

  let[@inline] push t x =
    if t.n < 5 then begin
      t.first.(t.n) <- x;
      t.n <- t.n + 1;
      if t.n = 5 then begin
        Array.blit t.first 0 t.q 0 5;
        Array.sort Float.compare t.q
      end
    end
    else begin
      let k =
        if x < t.q.(0) then begin
          t.q.(0) <- x;
          0
        end
        else if x < t.q.(1) then 0
        else if x < t.q.(2) then 1
        else if x < t.q.(3) then 2
        else if x <= t.q.(4) then 3
        else begin
          t.q.(4) <- x;
          3
        end
      in
      for i = k + 1 to 4 do
        t.pos.(i) <- t.pos.(i) +. 1.
      done;
      for i = 0 to 4 do
        t.des.(i) <- t.des.(i) +. t.inc.(i)
      done;
      for i = 1 to 3 do
        let d = t.des.(i) -. t.pos.(i) in
        if
          (d >= 1. && t.pos.(i + 1) -. t.pos.(i) > 1.)
          || (d <= -1. && t.pos.(i - 1) -. t.pos.(i) < -1.)
        then begin
          let d = if d >= 0. then 1. else -1. in
          let candidate = parabolic t i d in
          let height =
            if t.q.(i - 1) < candidate && candidate < t.q.(i + 1) then candidate
            else linear t i d
          in
          t.q.(i) <- height;
          t.pos.(i) <- t.pos.(i) +. d
        end
      done;
      t.n <- t.n + 1
    end

  let add t x = push t x

  let add_slice t a pos len =
    for i = pos to pos + len - 1 do
      push t a.(i)
    done

  let quantile t =
    if t.n = 0 then Float.nan
    else if t.n <= 5 then
      (* Exact interpolated order statistic on the buffered prefix. *)
      percentile (Array.sub t.first 0 t.n) (t.p *. 100.)
    else t.q.(2)
end

let histogram xs ~bins ~lo ~hi =
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be > 0";
  if hi <= lo then invalid_arg "Stats.histogram: hi <= lo";
  let counts = Array.make bins 0 in
  let width = (hi -. lo) /. float_of_int bins in
  Array.iter
    (fun x ->
      let b = int_of_float (Float.floor ((x -. lo) /. width)) in
      let b = max 0 (min (bins - 1) b) in
      counts.(b) <- counts.(b) + 1)
    xs;
  counts

module N = Spice.Netlist
module NB = N.Builder
module Rng = Numerics.Rng

type net = Vdd | Vss

type stripe = {
  layer_pos : int;
  net : net;
  coord_nm : int;
  lo_nm : int;
  hi_nm : int;
}

type generated = {
  netlist : N.t;
  tech : Tech.t;
  node_net : net option array;
  vdd_supply_of : int -> float;
  num_wires : int;
  num_vias : int;
  num_pads : int;
  num_loads : int;
}

let nm = 1e-9

let of_stripes ?(bottom_taps_nm = 0) ?supply_at ~tech ~stripes ~pad_every
    ~floorplan ~load_fraction ~rng ~current_per_net () =
  let n = Array.length stripes and num_layers = Array.length tech.Tech.layers in
  if n = 0 then invalid_arg "Grid_gen.of_stripes: no stripes";
  if pad_every < 1 then invalid_arg "Grid_gen.of_stripes: pad_every < 1";
  if load_fraction < 0. || load_fraction > 1. then
    invalid_arg "Grid_gen.of_stripes: load_fraction outside [0,1]";
  Array.iter
    (fun s ->
      if s.layer_pos < 0 || s.layer_pos >= num_layers then
        invalid_arg "Grid_gen.of_stripes: stripe layer out of range";
      if s.coord_nm < 0 || s.lo_nm < 0 then
        invalid_arg "Grid_gen.of_stripes: negative stripe coordinate";
      if s.hi_nm <= s.lo_nm then
        invalid_arg "Grid_gen.of_stripes: empty stripe extent")
    stripes;
  let builder = NB.create ~title:"synthetic power grid" () in
  let add kind ~pos ~neg value = NB.add builder kind "" ~off:0 ~len:0 ~pos ~neg value in
  let num_wires = ref 0 and num_vias = ref 0 in
  let num_pads = ref 0 and num_loads = ref 0 in
  (* A node is a stripe and a position along it: the stripe's layer and
     perpendicular coordinate give the rest. *)
  let point i pos =
    let s = stripes.(i) in
    match (Tech.layer_at tech s.layer_pos).Tech.direction with
    | Tech.Horizontal -> (pos, s.coord_nm)
    | Tech.Vertical -> (s.coord_nm, pos)
  in
  let node_at i pos =
    let x, y = point i pos in
    NB.node_at builder ~layer:(Tech.layer_at tech stripes.(i).layer_pos).Tech.level ~x ~y
  in
  (* Each layer's stripes, sorted by coordinate. *)
  let by_layer = Array.make num_layers [] in
  Array.iteri (fun i s -> by_layer.(s.layer_pos) <- i :: by_layer.(s.layer_pos)) stripes;
  let by_layer =
    Array.map
      (fun l ->
        let a = Array.of_list l in
        Array.sort (fun i j -> Int.compare stripes.(i).coord_nm stripes.(j).coord_nm) a;
        a)
      by_layer
  in
  (* Binary search: first index of layer array with coord >= x. *)
  let lower_bound arr x =
    let lo = ref 0 and hi = ref (Array.length arr) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if stripes.(arr.(mid)).coord_nm < x then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  (* Node positions along each stripe, and the stripes vias join. *)
  let positions = Array.make n [] and joined = Unionfind.create n in
  (* Crossings between adjacent layers: vias. A crossing lies at the
     upper stripe's coordinate along the lower one, and the other way. *)
  for p = 0 to num_layers - 2 do
    let lower = by_layer.(p) in
    Array.iter
      (fun j ->
        let b = stripes.(j) in
        let k = ref (lower_bound lower b.lo_nm) in
        while !k < Array.length lower && stripes.(lower.(!k)).coord_nm <= b.hi_nm do
          let i = lower.(!k) in
          let a = stripes.(i) in
          if a.net = b.net && b.coord_nm >= a.lo_nm && b.coord_nm <= a.hi_nm then begin
            let neg = node_at j a.coord_nm in
            add N.Resistor ~pos:(node_at i b.coord_nm) ~neg tech.Tech.via_resistance;
            incr num_vias;
            ignore (Unionfind.union joined i j);
            positions.(i) <- b.coord_nm :: positions.(i);
            positions.(j) <- a.coord_nm :: positions.(j)
          end;
          incr k
        done)
      by_layer.(p + 1)
  done;
  (* Load taps on bottom-layer rails: plain nodes between crossings. *)
  if bottom_taps_nm > 0 then
    Array.iteri
      (fun i s ->
        if s.layer_pos = 0 && positions.(i) <> [] then begin
          let pos = ref (s.lo_nm + (bottom_taps_nm / 2)) in
          while !pos < s.hi_nm do
            positions.(i) <- !pos :: positions.(i);
            pos := !pos + bottom_taps_nm
          done
        end)
      stripes;
  (* Wires between consecutive positions along each stripe (a crossing
     registers once per neighbour layer). Each wire interns its far end
     first, so a tap gets its id from its first wire. *)
  let positions = Array.map (fun l -> Array.of_list (List.sort_uniq Int.compare l)) positions in
  let ids =
    Array.mapi
      (fun i at ->
        let ids = Array.make (Array.length at) (-1) in
        let id k =
          if ids.(k) < 0 then ids.(k) <- node_at i at.(k);
          ids.(k)
        in
        let layer = Tech.layer_at tech stripes.(i).layer_pos in
        for k = 1 to Array.length at - 1 do
          let neg = id k in
          let length = float_of_int (at.(k) - at.(k - 1)) *. nm in
          add N.Resistor ~pos:(id (k - 1)) ~neg (Tech.wire_resistance layer ~length);
          incr num_wires
        done;
        (* A lone crossing has no wire; its via interned it. *)
        if Array.length at = 1 then ignore (id 0);
        ids)
      positions
  in
  (* Pads on the top layer. *)
  let ground = NB.node builder "0" in
  let supply ~x_nm ~y_nm =
    match supply_at with None -> tech.Tech.supply_voltage | Some f -> f ~x_nm ~y_nm
  in
  Array.iteri
    (fun i s ->
      if s.layer_pos = num_layers - 1 then begin
        let k = ref 0 in
        while !k < Array.length ids.(i) do
          let x_nm, y_nm = point i positions.(i).(!k) in
          let volts = match s.net with Vdd -> supply ~x_nm ~y_nm | Vss -> 0. in
          add N.Voltage_source ~pos:ids.(i).(!k) ~neg:ground volts;
          incr num_pads;
          k := !k + pad_every
        done
      end)
    stripes;
  if !num_pads = 0 then
    invalid_arg "Grid_gen.of_stripes: plan yields no pads (top layer empty)";
  (* A node's net is its first stripe's; a node on two stripes joins
     them. Loads may only attach to pad-connected stripes. *)
  let owner = Array.make (NB.num_nodes builder) (-1) in
  Array.iteri
    (fun i ->
      Array.iter (fun v ->
          if owner.(v) < 0 then owner.(v) <- i
          else ignore (Unionfind.union joined i owner.(v))))
    ids;
  let node_net = Array.map (fun i -> if i < 0 then None else Some stripes.(i).net) owner in
  let padded = Array.make n false in
  Array.iteri
    (fun i s ->
      if s.layer_pos = num_layers - 1 && ids.(i) <> [||] then
        padded.(Unionfind.find joined i) <- true)
    stripes;
  (* Candidate load nodes: bottom-layer, pad-connected. *)
  let candidates_vdd = ref [] and candidates_vss = ref [] in
  Array.iteri
    (fun i s ->
      if s.layer_pos = 0 && padded.(Unionfind.find joined i) then
        Array.iteri
          (fun k v ->
            let c = (v, point i positions.(i).(k)) in
            match node_net.(v) with
            | Some Vdd -> candidates_vdd := c :: !candidates_vdd
            | Some Vss -> candidates_vss := c :: !candidates_vss
            | None -> ())
          ids.(i))
    stripes;
  let place_loads candidates net =
    let all = Array.of_list candidates in
    Rng.shuffle rng all;
    let take =
      max (min 1 (Array.length all))
        (int_of_float (load_fraction *. float_of_int (Array.length all)))
    in
    let chosen = Array.sub all 0 (min take (Array.length all)) in
    let points =
      Array.map (fun (_, (x, y)) -> (float_of_int x *. nm, float_of_int y *. nm)) chosen
    in
    let fp = { floorplan with Floorplan.total_current = current_per_net } in
    let weights = Floorplan.sample_weights fp points in
    Array.iteri
      (fun k (v, _) ->
        if weights.(k) > 0. then begin
          (match net with
          | Vdd -> add N.Current_source ~pos:v ~neg:ground weights.(k)
          | Vss -> add N.Current_source ~pos:ground ~neg:v weights.(k));
          incr num_loads
        end)
      chosen
  in
  place_loads !candidates_vdd Vdd;
  place_loads !candidates_vss Vss;
  let netlist = NB.finish builder in
  let coords = netlist.N.coords in
  {
    netlist;
    tech;
    node_net;
    vdd_supply_of = (fun v -> supply ~x_nm:coords.((3 * v) + 1) ~y_nm:coords.((3 * v) + 2));
    num_wires = !num_wires;
    num_vias = !num_vias;
    num_pads = !num_pads;
    num_loads = !num_loads;
  }

(* ------------------------------------------------------------------ *)
(* Full-die interleaved plans                                           *)

type spec = {
  tech : Tech.t;
  die_width : float;
  die_height : float;
  stripe_counts : int array;
  pad_every : int;
  load_fraction : float;
  current_per_net : float;
  bottom_tap_pitch : float option;
  voltage_domains : int;
  seed : int64;
}

(* Full-die interleaved stripes; with [voltage_domains] > 1 the die is
   cut into vertical bands with no wires crossing a band boundary, so
   each domain is an electrically independent grid. *)
let full_die_stripes spec =
  let tech = spec.tech in
  if Array.length spec.stripe_counts <> Array.length tech.Tech.layers then
    invalid_arg "Grid_gen: stripe_counts length mismatch";
  if spec.voltage_domains < 1 then
    invalid_arg "Grid_gen: voltage_domains < 1";
  let w_nm = int_of_float (spec.die_width /. nm) in
  let h_nm = int_of_float (spec.die_height /. nm) in
  let domains = spec.voltage_domains in
  let band_width = w_nm / domains in
  let out = ref [] in
  Array.iteri
    (fun p count ->
      if count < 2 then invalid_arg "Grid_gen: need at least 2 stripes per layer";
      let layer = Tech.layer_at tech p in
      let span_perp =
        match layer.Tech.direction with
        | Tech.Horizontal -> h_nm
        | Tech.Vertical -> w_nm
      in
      let step = span_perp / count in
      for s = 0 to count - 1 do
        let net = if s mod 2 = 0 then Vdd else Vss in
        let coord_nm = (step / 2) + (s * step) in
        match layer.Tech.direction with
        | Tech.Horizontal ->
          (* Runs along x: one clipped stripe per band. *)
          for b = 0 to domains - 1 do
            out :=
              {
                layer_pos = p;
                net;
                coord_nm;
                lo_nm = b * band_width;
                hi_nm = (if b = domains - 1 then w_nm else (b + 1) * band_width);
              }
              :: !out
          done
        | Tech.Vertical ->
          (* Runs along y inside whichever band holds its x coordinate. *)
          out :=
            { layer_pos = p; net; coord_nm; lo_nm = 0; hi_nm = h_nm } :: !out
      done)
    spec.stripe_counts;
  Array.of_list !out

let generate spec =
  let rng = Rng.create spec.seed in
  let floorplan =
    Floorplan.random (Rng.split rng) ~width:spec.die_width
      ~height:spec.die_height ~total_current:spec.current_per_net ()
  in
  let bottom_taps_nm =
    match spec.bottom_tap_pitch with
    | None -> 0
    | Some p -> int_of_float (p /. nm)
  in
  let supply_at =
    if spec.voltage_domains <= 1 then None
    else begin
      let w_nm = int_of_float (spec.die_width /. nm) in
      let band_width = max 1 (w_nm / spec.voltage_domains) in
      let base = spec.tech.Tech.supply_voltage in
      Some
        (fun ~x_nm ~y_nm:_ ->
          let band = min (spec.voltage_domains - 1) (x_nm / band_width) in
          (* Stepped supplies: each band 10% below the previous. *)
          base *. (1. -. (0.1 *. float_of_int band)))
    end
  in
  of_stripes ~bottom_taps_nm ?supply_at ~tech:spec.tech
    ~stripes:(full_die_stripes spec) ~pad_every:spec.pad_every ~floorplan
    ~load_fraction:spec.load_fraction ~rng
    ~current_per_net:spec.current_per_net ()

let estimate_edges spec =
  let s = spec.stripe_counts in
  let n = Array.length s in
  let acc = ref 0 in
  for p = 0 to n - 2 do
    (* Same-net crossings: ceil/2 x ceil/2 + floor/2 x floor/2. *)
    let vdd = (s.(p) + 1) / 2 * ((s.(p + 1) + 1) / 2) in
    let vss = s.(p) / 2 * (s.(p + 1) / 2) in
    let vias = vdd + vss in
    (* One via plus (asymptotically) two wire segments per crossing:
       the crossing adds a node to the stripe on each side. *)
    acc := !acc + (3 * vias)
  done;
  (* Each stripe's node chain has one fewer wire than nodes. *)
  Array.iter (fun c -> acc := !acc - c) s;
  (* Load taps subdivide bottom-layer rails: one extra wire per tap. *)
  (match spec.bottom_tap_pitch with
  | None -> ()
  | Some pitch ->
    let along =
      match (Tech.bottom spec.tech).Tech.direction with
      | Tech.Horizontal -> spec.die_width
      | Tech.Vertical -> spec.die_height
    in
    acc := !acc + (s.(0) * int_of_float (along /. pitch)));
  !acc

type ibm_size = Pg1 | Pg2 | Pg3 | Pg6

let ibm_size_name = function
  | Pg1 -> "ibmpg1-like"
  | Pg2 -> "ibmpg2-like"
  | Pg3 -> "ibmpg3-like"
  | Pg6 -> "ibmpg6-like"

let ibm_paper_edges = function
  | Pg1 -> 29750
  | Pg2 -> 125668
  | Pg3 -> 835071
  | Pg6 -> 1648621

(* Stripe counts calibrated (bin/calibrate.ml) so the generated resistor
   count hits Table II's |E| column with 4 um load taps and a 20 um M1
   pitch; per-net currents graded so the hotter, older grids (pg1/pg2)
   show the Blech-flagged (TN/FN) populations of the paper while
   pg3/pg6 stay in the short-segment false-positive regime. *)
let ibm_preset ?(scale = 1.) size =
  let stripe_counts, current_density =
    match size with
    | Pg1 -> ([| 66; 55; 27; 13 |], 1.1e7)
    | Pg2 -> ([| 135; 110; 55; 26 |], 4.0e6)
    | Pg3 -> ([| 351; 280; 139; 66 |], 1.2e6)
    | Pg6 -> ([| 491; 398; 199; 93 |], 5.0e5)
  in
  let counts =
    if scale = 1. then stripe_counts
    else
      Array.map
        (fun c -> max 2 (int_of_float (Float.round (float_of_int c *. scale))))
        stripe_counts
  in
  let die = float_of_int counts.(0) *. 20e-6 in
  {
    tech = Tech.ibm_like;
    die_width = die;
    die_height = die;
    stripe_counts = counts;
    pad_every = 8;
    load_fraction = 0.35;
    current_per_net = current_density *. die *. die;
    bottom_tap_pitch = Some 4e-6;
    voltage_domains = 1;
    seed = 424242L;
  }

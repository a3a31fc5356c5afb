(* Fingerprint stability contract (version emfp1): the qcheck
   properties here pin the invariances the run ledger and any result
   cache rely on — node relabeling, extraction order, reference-
   direction flips and construction route must not move the hash, while
   any single quantized field change must. *)

open T_helpers
module Fp = Em_core.Fingerprint
module Cc = Em_core.Compact
module St = Em_core.Structure
module M = Em_core.Material
module Rng = Numerics.Rng

(* Random attachment tree with random (but seeded, so failures
   reproduce) geometry and signed current densities. *)
let random_structure ~num_nodes ~seed =
  let rng = Rng.create (Int64.of_int seed) in
  St.random_tree rng ~num_nodes (fun _ ->
      St.segment
        ~height:(5e-8 +. Rng.float rng 4e-7)
        ~length:(1e-6 +. Rng.float rng 5e-5)
        ~width:(5e-8 +. Rng.float rng 2e-6)
        ~j:(Rng.float rng 2e10 -. 1e10)
        ())

let random_compact ~num_nodes ~seed =
  Cc.of_structure (random_structure ~num_nodes ~seed)

let gen = QCheck2.Gen.(pair (int_range 2 40) (int_range 0 1_000_000))

(* Fisher–Yates from the suite's own deterministic generator. *)
let random_permutation rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let k = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(k);
    a.(k) <- t
  done;
  a

let prop_reorder_invariant =
  qcheck "fingerprint invariant under Compact.reorder" gen
    (fun (n, seed) ->
      let c = random_compact ~num_nodes:n ~seed in
      String.equal (Fp.of_compact c) (Fp.of_compact (Cc.reorder c).Cc.compact))

let prop_permute_invariant =
  qcheck "fingerprint invariant under arbitrary node relabeling" gen
    (fun (n, seed) ->
      let c = random_compact ~num_nodes:n ~seed in
      let rng = Rng.create (Int64.of_int (seed + 1)) in
      let order = random_permutation rng n in
      String.equal (Fp.of_compact c)
        (Fp.of_compact (Cc.permute c ~order).Cc.compact))

(* Rebuild the compact with its segments in a different order — the
   extraction-order invariance the two engines' differing structure
   orders depend on. *)
let permute_segments rng c =
  let m = Array.length c.Cc.tail in
  let p = random_permutation rng m in
  let pick a = Array.map (fun k -> a.(k)) p in
  Cc.make ~num_nodes:c.Cc.num_nodes ~tail:(pick c.Cc.tail)
    ~head:(pick c.Cc.head) ~length:(pick c.Cc.length) ~width:(pick c.Cc.width)
    ~height:(pick c.Cc.height) ~j:(pick c.Cc.j)

let prop_segment_order_invariant =
  qcheck "fingerprint invariant under extraction (segment) order" gen
    (fun (n, seed) ->
      let c = random_compact ~num_nodes:n ~seed in
      let rng = Rng.create (Int64.of_int (seed + 2)) in
      String.equal (Fp.of_compact c) (Fp.of_compact (permute_segments rng c)))

(* Swapping a segment's endpoints and negating its current density is
   the same physical segment. *)
let flip_orientations rng c =
  let m = Array.length c.Cc.tail in
  let tail = Array.copy c.Cc.tail
  and head = Array.copy c.Cc.head
  and j = Array.copy c.Cc.j in
  for k = 0 to m - 1 do
    if Rng.int rng 2 = 1 then begin
      let t = tail.(k) in
      tail.(k) <- head.(k);
      head.(k) <- t;
      j.(k) <- -.j.(k)
    end
  done;
  Cc.make ~num_nodes:c.Cc.num_nodes ~tail ~head ~length:(Array.copy c.Cc.length)
    ~width:(Array.copy c.Cc.width) ~height:(Array.copy c.Cc.height) ~j

let prop_orientation_invariant =
  qcheck "fingerprint invariant under reference-direction flips" gen
    (fun (n, seed) ->
      let c = random_compact ~num_nodes:n ~seed in
      let rng = Rng.create (Int64.of_int (seed + 3)) in
      String.equal (Fp.of_compact c) (Fp.of_compact (flip_orientations rng c)))

(* Fused-vs-boxed construction: the streaming Builder (the fused
   engine's route) and Structure.make -> of_structure (the boxed one)
   must agree on the hash when fed the same segments. *)
let via_builder c =
  let m = Array.length c.Cc.tail in
  let b = Cc.Builder.create ~expected_segments:m () in
  for k = 0 to m - 1 do
    Cc.Builder.add_segment b ~tail:c.Cc.tail.(k) ~head:c.Cc.head.(k)
      ~length:c.Cc.length.(k) ~width:c.Cc.width.(k) ~height:c.Cc.height.(k)
      ~j:c.Cc.j.(k)
  done;
  Cc.Builder.finish b ~num_nodes:c.Cc.num_nodes

let prop_engine_invariant =
  qcheck "fingerprint identical across Builder (fused) and boxed routes" gen
    (fun (n, seed) ->
      let c = random_compact ~num_nodes:n ~seed in
      String.equal (Fp.of_compact c) (Fp.of_compact (via_builder c)))

(* Distinctness: bump one quantized field of one segment well above the
   12-significant-digit quantization floor. *)
let prop_field_change_distinct =
  qcheck "any single quantized field change changes the fingerprint"
    QCheck2.Gen.(
      triple (pair (int_range 2 40) (int_range 0 1_000_000)) (int_range 0 3)
        (int_range 0 10_000))
    (fun ((n, seed), which, pick) ->
      let c = random_compact ~num_nodes:n ~seed in
      let m = Array.length c.Cc.tail in
      let k = pick mod m in
      let bump a =
        let a = Array.copy a in
        a.(k) <- (if a.(k) = 0. then 1. else a.(k) *. 1.01);
        a
      in
      let length = c.Cc.length and width = c.Cc.width in
      let height = c.Cc.height and j = c.Cc.j in
      let length, width, height, j =
        match which with
        | 0 -> (bump length, width, height, j)
        | 1 -> (length, bump width, height, j)
        | 2 -> (length, width, bump height, j)
        | _ -> (length, width, height, bump j)
      in
      let edited =
        Cc.make ~num_nodes:c.Cc.num_nodes ~tail:(Array.copy c.Cc.tail)
          ~head:(Array.copy c.Cc.head) ~length ~width ~height ~j
      in
      not (String.equal (Fp.of_compact c) (Fp.of_compact edited)))

let test_deterministic () =
  let fp () = Fp.of_compact (random_compact ~num_nodes:12 ~seed:99) in
  Alcotest.(check string) "same content, same fingerprint" (fp ()) (fp ())

let test_format () =
  let fp = Fp.of_compact (random_compact ~num_nodes:9 ~seed:5) in
  Alcotest.(check int) "32 hex chars" 32 (String.length fp);
  String.iter
    (fun ch ->
      Alcotest.(check bool) "lowercase hex" true
        ((ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'f')))
    fp;
  Alcotest.(check string) "short is the 12-char prefix" (String.sub fp 0 12)
    (Fp.short fp)

let test_context () =
  let c = random_compact ~num_nodes:8 ~seed:42 in
  let bare = Fp.of_compact c in
  let l1 = Fp.of_compact ~layer:1 c in
  let l2 = Fp.of_compact ~layer:2 c in
  Alcotest.(check bool) "layer context changes the hash" false
    (String.equal bare l1);
  Alcotest.(check bool) "different layers differ" false (String.equal l1 l2);
  let cu = Fp.of_compact ~material:M.cu_dac21 c in
  let al = Fp.of_compact ~material:M.al_legacy c in
  Alcotest.(check bool) "material context changes the hash" false
    (String.equal bare cu);
  Alcotest.(check bool) "different materials differ" false (String.equal cu al);
  (* Context hashes the analysis-relevant derived constants, not the
     record: a field that changes neither beta nor the effective
     critical stress does not move the hash. *)
  Alcotest.(check string) "same derived constants hash alike" cu
    (Fp.of_compact ~material:{ M.cu_dac21 with M.name = "cu-renamed" } c)

let test_quantize () =
  Alcotest.(check string) "minus zero normalizes" "0" (Fp.quantize (-0.));
  Alcotest.(check string) "zero" "0" (Fp.quantize 0.);
  Alcotest.(check string) "plain value" "1.5" (Fp.quantize 1.5);
  Alcotest.(check string) "jitter below 12 significant digits collapses"
    (Fp.quantize 1.) (Fp.quantize (1. +. 1e-13));
  Alcotest.(check bool) "a 4th-significant-digit change is distinct" false
    (String.equal (Fp.quantize 1.234) (Fp.quantize 1.235))

let suites =
  [
    ( "fingerprint.stability",
      [
        prop_reorder_invariant;
        prop_permute_invariant;
        prop_segment_order_invariant;
        prop_orientation_invariant;
        prop_engine_invariant;
        case "same content hashes identically" test_deterministic;
      ] );
    ( "fingerprint.distinctness",
      [
        prop_field_change_distinct;
        case "digest format and short handle" test_format;
        case "layer and material context" test_context;
        case "quantization contract" test_quantize;
      ] );
  ]

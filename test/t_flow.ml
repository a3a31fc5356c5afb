open T_helpers
module Gg = Pdn.Grid_gen
module Ir = Pdn.Irdrop
module Ex = Emflow.Extract
module Flow = Emflow.Em_flow
module Sc = Emflow.Scatter
module Rp = Emflow.Report
module N = Spice.Netlist
module M = Em_core.Material
module St = Em_core.Structure
module Cl = Em_core.Classify

let small_grid () =
  Gg.generate
    {
      Gg.tech = Pdn.Tech.ibm_like;
      die_width = 2e-3;
      die_height = 2e-3;
      stripe_counts = [| 20; 16; 8; 4 |];
      pad_every = 4;
      load_fraction = 0.4;
      current_per_net = 1.0;
      bottom_tap_pitch = None;
      voltage_domains = 1;
      seed = 11L;
    }

(* ---------------------------------------------------------------- *)
(* Extract                                                           *)

let test_extract_covers_all_wires () =
  let g = small_grid () in
  let sol = Spice.Mna.solve g.Gg.netlist in
  let structures = Extract_reference.extract ~tech:g.Gg.tech sol in
  Alcotest.(check int) "every wire becomes a segment" g.Gg.num_wires
    (Extract_reference.total_segments structures);
  Alcotest.(check bool) "multiple structures" true (List.length structures > 1)

let test_extract_structures_are_connected_and_consistent () =
  let g = small_grid () in
  let sol = Spice.Mna.solve g.Gg.netlist in
  let structures = Extract_reference.extract ~tech:g.Gg.tech sol in
  List.iter
    (fun es ->
      Alcotest.(check bool) "connected" true (St.is_connected es.Ex.structure);
      (* Ohm's-law currents are cycle-consistent (Theorem 1 premise). *)
      match Em_core.Blech_sum.validate ~cycle_rtol:1e-4 es.Ex.structure with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "extracted structure fails validation")
    structures

let test_extract_geometry_matches_tech () =
  let g = small_grid () in
  let sol = Spice.Mna.solve g.Gg.netlist in
  let structures = Extract_reference.extract ~tech:g.Gg.tech sol in
  List.iter
    (fun es ->
      let s = es.Ex.structure in
      for k = 0 to St.num_segments s - 1 do
        let seg = St.seg s k in
        (* Each segment's width matches its layer's tech entry. *)
        let matching =
          Array.exists
            (fun (l : Pdn.Tech.layer) ->
              l.Pdn.Tech.level = es.Ex.layer_level
              && Float.abs (l.Pdn.Tech.width -. seg.St.width)
                 < 1e-6 *. l.Pdn.Tech.width)
            g.Gg.tech.Pdn.Tech.layers
        in
        Alcotest.(check bool) "width from tech" true matching
      done)
    structures

let test_extract_current_matches_mna () =
  (* Each extracted segment's electron current j*w*h must equal the MNA
     branch current of its netlist resistor, with the electron-flow sign
     flip (j is positive towards the higher-potential node, conventional
     current flows the other way). *)
  let g = small_grid () in
  let sol = Spice.Mna.solve g.Gg.netlist in
  let structures = Extract_reference.extract ~tech:g.Gg.tech sol in
  let checked = ref 0 in
  List.iter
    (fun es ->
      let s = es.Ex.structure in
      Array.iteri
        (fun k elem ->
          let i_electron = St.current s k in
          let i_conventional = Spice.Mna.resistor_current sol elem in
          let scale = Float.max 1e-12 (Float.abs i_conventional) in
          if Float.abs (i_electron +. i_conventional) > 1e-6 *. scale then
            Alcotest.failf "segment %d: electron %g vs conventional %g" k
              i_electron i_conventional;
          incr checked)
        es.Ex.element_ids)
    structures;
  Alcotest.(check int) "checked every wire" g.Gg.num_wires !checked

(* ---------------------------------------------------------------- *)
(* Streaming columnar extraction                                     *)

module Cc = Em_core.Compact

(* Canonical per-segment view, independent of structure order and local
   node numbering: identify nodes by their netlist names. *)
let segment_multiset_old structures =
  List.concat_map
    (fun es ->
      let s = es.Ex.structure in
      List.init (St.num_segments s) (fun k ->
          let tail, head = St.endpoints s k in
          let seg = St.seg s k in
          ( es.Ex.layer_level,
            es.Ex.element_ids.(k),
            es.Ex.node_names.(tail),
            es.Ex.node_names.(head),
            (seg.St.length, seg.St.width, seg.St.height, seg.St.current_density)
          )))
    structures
  |> List.sort compare

let segment_multiset_compact css =
  List.concat_map
    (fun cs ->
      let c = cs.Ex.compact in
      List.init (Cc.num_segments c) (fun k ->
          ( cs.Ex.cs_layer_level,
            cs.Ex.cs_element_ids.(k),
            Ex.node_name cs c.Cc.tail.(k),
            Ex.node_name cs c.Cc.head.(k),
            (c.Cc.length.(k), c.Cc.width.(k), c.Cc.height.(k), c.Cc.j.(k)) )))
    css
  |> List.sort compare

(* A netlist of just [names], and their ids in it. *)
let netlist_of_names names =
  let b = N.Builder.create () in
  let nodes = Array.map (N.Builder.node b) names in
  (N.Builder.finish b, nodes)

(* A structure of the fused path made from a boxed one: its node names
   looked up in [net], or interned into a netlist of their own. *)
let compact_of_boxed ?net (es : Ex.em_structure) =
  let net, nodes =
    match net with
    | Some net -> (net, Array.map (fun n -> Option.get (N.find_node net n)) es.Ex.node_names)
    | None -> netlist_of_names es.Ex.node_names
  in
  {
    Ex.cs_layer_level = es.Ex.layer_level;
    compact = Cc.of_structure es.Ex.structure;
    cs_netlist = net;
    cs_nodes = nodes;
    cs_element_ids = es.Ex.element_ids;
  }

(* The reference extraction and the streaming one must agree on every
   segment, on the flow's verdicts and diagnostics, and on the
   per-layer report. The two may order the structure list differently,
   so per-layer lengths may differ in the last ulp from summation
   order. *)
let check_extraction_equivalence ~tech sol =
  let boxed = Extract_reference.extract ~tech sol in
  let fused = Ex.extract_compact ~tech sol in
  let old_ms = segment_multiset_old boxed in
  let new_ms = segment_multiset_compact fused in
  Alcotest.(check int) "same segment count" (List.length old_ms)
    (List.length new_ms);
  Alcotest.(check bool) "identical segment multisets" true (old_ms = new_ms);
  let r_old =
    Flow.run_on_compact (List.map (compact_of_boxed ~net:sol.Spice.Mna.netlist) boxed)
  in
  let r_new = Flow.run_on_compact fused in
  Alcotest.(check bool) "identical confusion counts" true
    (r_old.Flow.counts = r_new.Flow.counts);
  Alcotest.(check int) "identical segment totals" r_old.Flow.num_segments
    r_new.Flow.num_segments;
  let diag_keys (r : Flow.result) =
    List.sort compare
      (List.map
         (fun (d : Em_core.Diag.t) ->
           (d.Em_core.Diag.severity, d.Em_core.Diag.code, d.Em_core.Diag.message))
         r.Flow.diags)
  in
  Alcotest.(check bool) "identical diagnostics" true
    (diag_keys r_old = diag_keys r_new);
  let module Lr = Emflow.Layer_report in
  let rows_old = Lr.analyze boxed in
  let rows_new = Lr.analyze (List.map Ex.boxed_view fused) in
  Alcotest.(check int) "same layers" (List.length rows_old)
    (List.length rows_new);
  List.iter2
    (fun (a : Lr.layer_stats) (b : Lr.layer_stats) ->
      check_close ~rtol:1e-9 "layer total length" a.Lr.total_length
        b.Lr.total_length;
      Alcotest.(check bool)
        (Printf.sprintf "layer M%d rows agree" a.Lr.level)
        true
        ({ a with Lr.total_length = 0. } = { b with Lr.total_length = 0. }))
    rows_old rows_new

let test_extract_compact_equivalent () =
  let g = small_grid () in
  check_extraction_equivalence ~tech:g.Gg.tech (Spice.Mna.solve g.Gg.netlist)

(* A full-scale ibmpg2-class grid (>100k resistors). *)
let test_extract_compact_equivalent_pg2 () =
  let g = Gg.generate (Gg.ibm_preset Gg.Pg2) in
  check_extraction_equivalence ~tech:g.Gg.tech (Spice.Mna.solve g.Gg.netlist)

let test_extract_compact_mini_grid () =
  let path = "../../../data/mini_grid.sp" in
  let path = if Sys.file_exists path then path else "data/mini_grid.sp" in
  if not (Sys.file_exists path) then Alcotest.skip ()
  else begin
    let netlist = Spice.Parser.parse_file path in
    let sol = Spice.Mna.solve netlist in
    check_extraction_equivalence ~tech:Pdn.Tech.ibm_like sol
  end

let test_flow_stages_recorded () =
  let g = small_grid () in
  let r = Flow.run g in
  let names = List.map (fun (s : Emflow.Pipeline.stage) -> s.Emflow.Pipeline.name) r.Flow.stages in
  Alcotest.(check (list string)) "stages in execution order"
    [ "solve"; "extract"; "analyze"; "classify" ] names;
  List.iter
    (fun (s : Emflow.Pipeline.stage) ->
      Alcotest.(check bool) "nonnegative wall" true (s.Emflow.Pipeline.wall_s >= 0.);
      Alcotest.(check bool) "nonnegative alloc" true
        (Emflow.Pipeline.allocated_words s >= 0.))
    r.Flow.stages

let test_pipeline_counts_worker_alloc () =
  (* Four items, each allocating one major-heap array, spread over two
     domains: the stage must count the worker domain's arrays too. *)
  let words = 200_000 in
  let p = Emflow.Pipeline.create () in
  ignore
    (Emflow.Pipeline.run p "parallel" (fun () ->
         Numerics.Parallel.map ~jobs:2
           (fun _ -> Array.length (Sys.opaque_identity (Array.make words 0)))
           [| 0; 1; 2; 3 |]));
  match Emflow.Pipeline.stages p with
  | [ s ] ->
    let alloc = Emflow.Pipeline.allocated_words s in
    Alcotest.(check bool)
      (Printf.sprintf "all four arrays counted (%.0f words)" alloc)
      true
      (alloc >= float_of_int (4 * words))
  | _ -> Alcotest.fail "one stage expected"

let test_mna_residual_diag () =
  let sol = Spice.Mna.solve (small_grid ()).Gg.netlist in
  Alcotest.(check int) "clean solve: no diagnostic" 0
    (List.length (Flow.mna_diags sol));
  List.iter
    (fun residual ->
      match Flow.mna_diags { sol with Spice.Mna.residual } with
      | [ d ] ->
        Alcotest.(check string) "code" "mna-residual" d.Em_core.Diag.code;
        Alcotest.(check bool) "error" true
          (d.Em_core.Diag.severity = Em_core.Diag.Error)
      | _ -> Alcotest.failf "residual %g must give one diagnostic" residual)
    [ 1e-6; Float.nan ]

let test_pipeline_records_failed_stage () =
  let p = Emflow.Pipeline.create () in
  let stage_ran = ref false in
  (try
     Emflow.Pipeline.run p "ok" (fun () -> stage_ran := true);
     ignore (Emflow.Pipeline.run p "boom" (fun () -> failwith "nope"));
     Alcotest.fail "expected the stage exception to propagate"
   with Failure m -> Alcotest.(check string) "original exception" "nope" m);
  Alcotest.(check bool) "first stage ran" true !stage_ran;
  match Emflow.Pipeline.stages p with
  | [ ok; boom ] ->
    Alcotest.(check string) "first stage name" "ok" ok.Emflow.Pipeline.name;
    Alcotest.(check bool) "first stage clean" false ok.Emflow.Pipeline.error;
    Alcotest.(check string) "failed stage still recorded" "boom"
      boom.Emflow.Pipeline.name;
    Alcotest.(check bool) "failed stage flagged" true boom.Emflow.Pipeline.error;
    Alcotest.(check bool) "failed stage timed" true
      (boom.Emflow.Pipeline.wall_s >= 0.)
  | ss -> Alcotest.failf "expected 2 stages, got %d" (List.length ss)

(* ---------------------------------------------------------------- *)
(* Em_flow                                                           *)

let test_flow_counts_sum () =
  let g = small_grid () in
  let r = Flow.run g in
  Alcotest.(check int) "confusion total = segments" r.Flow.num_segments
    (Cl.total r.Flow.counts);
  Alcotest.(check int) "segments recorded" r.Flow.num_segments
    (Array.fold_left (fun n v -> n + Bytes.length v) 0 r.Flow.verdicts);
  Alcotest.(check int) "all wires analyzed" g.Gg.num_wires r.Flow.num_segments

let test_flow_maxpath_ablation () =
  let g = small_grid () in
  let r = Flow.run ~with_maxpath:true g in
  match r.Flow.maxpath_counts with
  | None -> Alcotest.fail "maxpath counts missing"
  | Some c ->
    Alcotest.(check int) "ablation total" r.Flow.num_segments (Cl.total c)

let test_flow_blech_disagrees_after_ir_scaling () =
  (* Scale to a realistic stress level: currents scaled so IR drop is
     tens of mV produce both immortal and mortal segments, and the
     traditional filter must show errors (the paper's core claim). *)
  let g = small_grid () in
  let scaled, _ = Ir.scale_to_ir g ~target:0.05 in
  let r = Flow.run scaled in
  let c = r.Flow.counts in
  Alcotest.(check bool) "some immortal segments" true (c.Cl.tp + c.Cl.fn > 0);
  Alcotest.(check bool) "blech makes errors" true (c.Cl.fp + c.Cl.fn > 0)

let test_flow_zero_current_all_immortal () =
  (* Without loads every branch current is 0: everything is immortal and
     the Blech filter is exactly right. *)
  let g = small_grid () in
  let unloaded =
    { g with Gg.netlist = Ir.scale_loads g.Gg.netlist 0. }
  in
  let r = Flow.run unloaded in
  let c = r.Flow.counts in
  Alcotest.(check int) "no mortal" 0 (c.Cl.tn + c.Cl.fp + c.Cl.fn);
  Alcotest.(check int) "all TP" r.Flow.num_segments c.Cl.tp

(* ---------------------------------------------------------------- *)
(* Scatter                                                           *)

let test_scatter_points () =
  let g = small_grid () in
  let scaled, _ = Ir.scale_to_ir g ~target:0.05 in
  let v =
    Flow.analyze_deck ~tech:scaled.Gg.tech (Flow.of_netlist scaled.Gg.netlist)
  in
  let r = v.Flow.result in
  let pts = Sc.of_result v.Flow.compacts r in
  Alcotest.(check int) "one point per segment" r.Flow.num_segments
    (Array.length pts);
  let ascii = Sc.ascii ~jl_crit:(M.jl_crit M.cu_dac21) pts in
  Alcotest.(check bool) "plot non-empty" true (String.length ascii > 100);
  let csv = Sc.to_csv pts in
  Alcotest.(check bool) "csv has header" true
    (String.length csv > 30 && String.sub csv 0 9 = "length_um");
  (* Summary counts match. *)
  let summary = Sc.summary pts in
  Alcotest.(check bool) "summary mentions total" true
    (String.length summary > 0)

let test_scatter_csv_roundtrippable () =
  let pts =
    [| { Sc.length_um = 10.; j = -2e9; correct = true };
       { Sc.length_um = 55.; j = 4e10; correct = false } |]
  in
  let csv = Sc.to_csv pts in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "rows" 3 (List.length lines)

let test_scatter_empty () =
  Alcotest.(check string) "empty plot" "(no points)\n"
    (Sc.ascii ~jl_crit:0.27 [||])

(* ---------------------------------------------------------------- *)
(* Report                                                            *)

let test_report_render () =
  let t = Rp.create [ "name"; "E"; "TP" ] in
  Rp.add_row t [ "pg1"; Rp.int_cell 29750; Rp.int_cell 1557 ];
  Rp.add_separator t;
  Rp.add_row t [ "pg2"; Rp.int_cell 125668; Rp.int_cell 7703 ];
  let s = Rp.render t in
  Alcotest.(check bool) "contains commas" true
    (String.length s > 0
    &&
    let re = "29,750" in
    let found = ref false in
    for i = 0 to String.length s - String.length re do
      if String.sub s i (String.length re) = re then found := true
    done;
    !found);
  (* Every rendered line (borders, header, rows) carries the full set of
     column separators. *)
  List.iter
    (fun line ->
      if String.length line > 0 then begin
        let pipes = ref 0 in
        String.iter (fun c -> if c = '|' || c = '+' then incr pipes) line;
        Alcotest.(check int) "separators per line" 4 !pipes
      end)
    (String.split_on_char '\n' s);
  check_raises_invalid "bad row" (fun () -> Rp.add_row t [ "x" ])

let test_report_cells () =
  Alcotest.(check string) "int_cell" "1,648,621" (Rp.int_cell 1648621);
  Alcotest.(check string) "int_cell small" "42" (Rp.int_cell 42);
  Alcotest.(check string) "int_cell negative" "-1,234" (Rp.int_cell (-1234));
  Alcotest.(check string) "seconds ms" "380ms" (Rp.seconds_cell 0.38);
  Alcotest.(check string) "seconds s" "12.3s" (Rp.seconds_cell 12.34);
  Alcotest.(check string) "pct" "15.3%" (Rp.pct_cell 0.153);
  Alcotest.(check string) "float" "2.72" (Rp.float_cell 2.718)


(* ---------------------------------------------------------------- *)
(* Layer_report                                                      *)

module Lr = Emflow.Layer_report

let test_layer_report_totals () =
  let g = small_grid () in
  let sol = Spice.Mna.solve g.Gg.netlist in
  let compacts = Ex.extract_compact ~tech:g.Gg.tech sol in
  let stats = Lr.analyze (List.map Ex.boxed_view compacts) in
  (* Segments and confusion counts partition across layers. *)
  let seg_total = List.fold_left (fun a st -> a + st.Lr.segments) 0 stats in
  Alcotest.(check int) "segments partition" g.Gg.num_wires seg_total;
  let merged =
    List.fold_left (fun a st -> Cl.merge a st.Lr.counts) Cl.empty stats
  in
  let flow = Flow.run_on_compact compacts in
  Alcotest.(check int) "counts merge (tp)" flow.Flow.counts.Cl.tp merged.Cl.tp;
  Alcotest.(check int) "counts merge (fp)" flow.Flow.counts.Cl.fp merged.Cl.fp;
  (* Levels ascend and match the tech's metal levels. *)
  let levels = List.map (fun st -> st.Lr.level) stats in
  Alcotest.(check (list int)) "levels sorted" (List.sort compare levels) levels;
  List.iter
    (fun lv ->
      Alcotest.(check bool) "level known to tech" true
        (Array.exists
           (fun (l : Pdn.Tech.layer) -> l.Pdn.Tech.level = lv)
           g.Gg.tech.Pdn.Tech.layers))
    levels

let test_layer_report_renders () =
  let g = small_grid () in
  let sol = Spice.Mna.solve g.Gg.netlist in
  let stats = Lr.analyze (Extract_reference.extract ~tech:g.Gg.tech sol) in
  let rendered = Emflow.Report.render (Lr.to_table stats) in
  Alcotest.(check bool) "has rows" true (String.length rendered > 200)

let test_layer_report_mortal_consistency () =
  let g = small_grid () in
  let scaled, _ = Ir.scale_to_ir g ~target:0.05 in
  let sol = Spice.Mna.solve scaled.Gg.netlist in
  let stats = Lr.analyze (Extract_reference.extract ~tech:scaled.Gg.tech sol) in
  List.iter
    (fun st ->
      Alcotest.(check int) "mortal = TN + FP" st.Lr.mortal_segments
        (st.Lr.counts.Cl.tn + st.Lr.counts.Cl.fp))
    stats


(* ---------------------------------------------------------------- *)
(* Fixer                                                             *)

module Fx = Emflow.Fixer

let stressed_structures () =
  let g = small_grid () in
  let scaled, _ = Ir.scale_to_ir g ~target:0.05 in
  let sol = Spice.Mna.solve scaled.Gg.netlist in
  Extract_reference.extract ~tech:scaled.Gg.tech sol

let test_fixer_plan_and_verify () =
  let structures = stressed_structures () in
  let plan = Fx.plan structures in
  Alcotest.(check int) "partition" (List.length structures)
    (plan.Fx.mortal_structures + plan.Fx.immortal_structures);
  Alcotest.(check int) "one fix per mortal structure"
    plan.Fx.mortal_structures
    (List.length plan.Fx.fixes);
  Alcotest.(check bool) "finds mortal structures" true
    (plan.Fx.mortal_structures > 0);
  List.iter
    (fun f ->
      Alcotest.(check bool) "widen > 1" true (f.Fx.widen > 1.);
      Alcotest.(check bool) "positive cost" true (f.Fx.extra_area > 0.))
    plan.Fx.fixes;
  Alcotest.(check bool) "plan verifies" true
    (Fx.verify (List.map compact_of_boxed structures) plan);
  (* Costliest first. *)
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Fx.extra_area >= b.Fx.extra_area && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by cost" true (sorted plan.Fx.fixes)

let test_fixer_widening_semantics () =
  (* Widening preserves currents and scales stress down by alpha. *)
  let s =
    St.make ~num_nodes:3
      [|
        (0, 1, St.segment ~length:30e-6 ~width:1e-6 ~j:2e10 ());
        (1, 2, St.segment ~length:20e-6 ~width:1e-6 ~j:2e10 ());
      |]
  in
  let alpha = 2.5 in
  let c = Cc.of_structure s in
  let widened = Fx.apply_widening c alpha in
  let current (c : Cc.t) k = c.Cc.j.(k) *. c.Cc.wh.(k) in
  for k = 0 to Cc.num_segments c - 1 do
    T_helpers.check_close ~rtol:1e-12 "current preserved" (current c k)
      (current widened k)
  done;
  let before = Em_core.Steady_state.solve_compact M.cu_dac21 c in
  let after = Em_core.Steady_state.solve_compact M.cu_dac21 widened in
  Array.iteri
    (fun v sigma ->
      T_helpers.check_close ~rtol:1e-9 ~atol:1e0 "stress scaled"
        (sigma /. alpha)
        after.Em_core.Steady_state.node_stress.(v))
    before.Em_core.Steady_state.node_stress

let test_fixer_safety_guard () =
  let structures = stressed_structures () in
  Alcotest.(check bool) "safety guard" true
    (match Fx.plan ~safety:0.5 structures with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* Larger safety -> larger cost. *)
  let p1 = Fx.plan ~safety:1.05 structures in
  let p2 = Fx.plan ~safety:1.5 structures in
  Alcotest.(check bool) "monotone cost" true
    (p2.Fx.total_extra_area > p1.Fx.total_extra_area)

(* ---------------------------------------------------------------- *)
(* Checked-in sample deck                                            *)

let test_sample_deck_end_to_end () =
  (* data/mini_grid.sp is a committed generator output: the parser, the
     solver and the extractor must take it all the way through. *)
  let path = "../../../data/mini_grid.sp" in
  let path = if Sys.file_exists path then path else "data/mini_grid.sp" in
  if not (Sys.file_exists path) then
    Alcotest.skip ()
  else begin
    let netlist = Spice.Parser.parse_file path in
    let stats = N.stats netlist in
    Alcotest.(check int) "resistors" 426 stats.N.resistors;
    Alcotest.(check int) "loads" 121 stats.N.current_sources;
    let findings = Spice.Checker.check netlist in
    Alcotest.(check (list string)) "lint-clean" []
      (List.map (fun f -> f.Spice.Checker.code) findings);
    let sol = Spice.Mna.solve netlist in
    (* Golden solution shipped with the deck. *)
    let golden_path = Filename.concat (Filename.dirname path) "mini_grid.solution" in
    (match
       Spice.Solution_file.check ~tol:1e-6
         ~reference:(Spice.Solution_file.parse_file golden_path)
         sol
     with
    | Ok () -> ()
    | Error m -> Alcotest.failf "golden solution mismatch: %s" m);
    let r = Flow.run_on_compact (Ex.extract_compact ~tech:Pdn.Tech.ibm_like sol) in
    Alcotest.(check int) "all wires analyzed" 384 r.Flow.num_segments
  end


(* ---------------------------------------------------------------- *)
(* Json_out                                                          *)

module J = Emflow.Json_out

let test_json_scalars () =
  Alcotest.(check string) "null" "null" (J.to_string J.Null);
  Alcotest.(check string) "true" "true" (J.to_string (J.Bool true));
  Alcotest.(check string) "int" "-42" (J.to_string (J.Int (-42)));
  Alcotest.(check string) "float" "1.5" (J.to_string (J.Float 1.5));
  Alcotest.(check string) "nan -> null" "null" (J.to_string (J.Float Float.nan));
  Alcotest.(check string) "inf -> null" "null"
    (J.to_string (J.Float Float.infinity));
  (* Floats round-trip. *)
  let x = 0.1 +. 0.2 in
  Alcotest.(check (float 0.)) "roundtrip" x
    (float_of_string (J.to_string (J.Float x)))

let test_json_escaping () =
  Alcotest.(check string) "quotes" {|"a\"b"|} (J.to_string (J.String {|a"b|}));
  Alcotest.(check string) "backslash" {|"a\\b"|} (J.to_string (J.String {|a\b|}));
  Alcotest.(check string) "newline" {|"a\nb"|} (J.to_string (J.String "a\nb"));
  Alcotest.(check string) "control" {|"\u0001"|} (J.to_string (J.String "\x01"))

let test_json_structures () =
  let j =
    J.Obj [ ("xs", J.List [ J.Int 1; J.Int 2 ]); ("name", J.String "pg1") ]
  in
  Alcotest.(check string) "object" {|{"xs":[1,2],"name":"pg1"}|} (J.to_string j)

let test_json_flow_result () =
  let g = small_grid () in
  let r = Flow.run g in
  let s = J.to_string (J.of_flow_result r) in
  Alcotest.(check bool) "mentions segments" true
    (String.length s > 50);
  (* Counts embedded faithfully. *)
  let expect = Printf.sprintf {|"segments":%d|} r.Flow.num_segments in
  let found = ref false in
  for i = 0 to String.length s - String.length expect do
    if String.sub s i (String.length expect) = expect then found := true
  done;
  Alcotest.(check bool) "segment count serialized" true !found;
  (* Stages carry their error flag (all clean on this run). *)
  let expect = {|"error":false|} in
  let found = ref false in
  for i = 0 to String.length s - String.length expect do
    if String.sub s i (String.length expect) = expect then found := true
  done;
  Alcotest.(check bool) "stage error flag serialized" true !found


(* ---------------------------------------------------------------- *)
(* Variation                                                         *)

module Va = Emflow.Variation
module Vss = Em_core.Steady_state

let stressed_compacts () =
  let g = small_grid () in
  let scaled, _ = Ir.scale_to_ir g ~target:0.05 in
  let sol = Spice.Mna.solve scaled.Gg.netlist in
  Ex.extract_compact ~tech:scaled.Gg.tech sol

let cs_of_compact ?(layer = 1) c =
  let net, nodes = netlist_of_names (Array.init (Cc.num_nodes c) (Printf.sprintf "x%d")) in
  {
    Ex.cs_layer_level = layer;
    compact = c;
    cs_netlist = net;
    cs_nodes = nodes;
    cs_element_ids = Array.init (Cc.num_segments c) Fun.id;
  }

let healthy_line_compact () =
  Cc.make ~num_nodes:3 ~tail:[| 0; 1 |] ~head:[| 1; 2 |]
    ~length:[| 30e-6; 20e-6 |] ~width:[| 1e-6; 1e-6 |]
    ~height:[| 1e-6; 1e-6 |] ~j:[| 2e10; 2e10 |]

let stats_bits_equal (a : Va.structure_stats) (b : Va.structure_stats) =
  let bits = Int64.bits_of_float in
  a.Va.index = b.Va.index && a.Va.layer = b.Va.layer
  && a.Va.nominal_immortal = b.Va.nominal_immortal
  && a.Va.samples_ok = b.Va.samples_ok
  && a.Va.samples_failed = b.Va.samples_failed
  && bits a.Va.mortality_probability = bits b.Va.mortality_probability
  && bits a.Va.mean_max_stress = bits b.Va.mean_max_stress
  && bits a.Va.std_max_stress = bits b.Va.std_max_stress
  && bits a.Va.q50_max_stress = bits b.Va.q50_max_stress
  && bits a.Va.q90_max_stress = bits b.Va.q90_max_stress
  && bits a.Va.q99_max_stress = bits b.Va.q99_max_stress

let test_variation_zero_sigma_degenerates () =
  let structures = stressed_compacts () |> List.filteri (fun i _ -> i < 6) in
  let spec =
    { Va.width_sigma = 0.; thickness_sigma = 0.; crit_sigma = 0.;
      samples = 5; seed = 1L }
  in
  let r = Va.run_compact spec structures in
  Alcotest.(check int) "no diagnostics" 0 (List.length r.Va.diags);
  List.iter
    (fun st ->
      let expected = if st.Va.nominal_immortal then 0. else 1. in
      T_helpers.check_close "probability collapses" expected
        st.Va.mortality_probability;
      T_helpers.check_close ~atol:1e-6 "no spread" 0. st.Va.std_max_stress;
      Alcotest.(check int) "all samples ok" 5 st.Va.samples_ok;
      (* All five samples identical: every quantile is the mean. *)
      T_helpers.check_close ~rtol:1e-12 "quantiles collapse"
        st.Va.mean_max_stress st.Va.q50_max_stress)
    r.Va.stats

let test_variation_probabilities_valid () =
  let structures = stressed_compacts () |> List.filteri (fun i _ -> i < 6) in
  let spec = { Va.default_spec with Va.samples = 50 } in
  let r = Va.run_compact spec structures in
  List.iter
    (fun st ->
      Alcotest.(check bool) "in [0,1]" true
        (st.Va.mortality_probability >= 0. && st.Va.mortality_probability <= 1.);
      Alcotest.(check bool) "positive spread" true (st.Va.std_max_stress > 0.);
      Alcotest.(check int) "denominator accounted" 50
        (st.Va.samples_ok + st.Va.samples_failed);
      (* Quantile estimates stay ordered (slack for the P2 markers). *)
      let slack = st.Va.std_max_stress in
      Alcotest.(check bool) "quantiles ordered" true
        (st.Va.q50_max_stress <= st.Va.q90_max_stress +. slack
        && st.Va.q90_max_stress <= st.Va.q99_max_stress +. slack))
    r.Va.stats;
  (* Bit-deterministic by seed across runs. *)
  let again = Va.run_compact spec structures in
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "bit-identical rerun" true (stats_bits_equal a b))
    r.Va.stats again.Va.stats

(* The determinism contract: the domain count may not change a single
   output bit for a fixed seed. *)
let test_variation_jobs_bit_identical () =
  let compacts = stressed_compacts () in
  let spec = { Va.default_spec with Va.samples = 40 } in
  let base = Va.run_compact ~jobs:1 spec compacts in
  let par = Va.run_compact ~jobs:4 spec compacts in
  Alcotest.(check int) "same structure count"
    (List.length base.Va.stats) (List.length par.Va.stats);
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "-j 1 vs -j 4 bit-identical" true
        (stats_bits_equal a b))
    base.Va.stats par.Va.stats

(* A 5 x 5 lattice: 40 segments on 25 nodes, so 16 chords close loops
   that the BFS tree leaves out. *)
let mesh_compact () =
  let side = 5 in
  let id r c = (r * side) + c in
  let edges = ref [] in
  for r = side - 1 downto 0 do
    for c = side - 1 downto 0 do
      if r + 1 < side then edges := (id r c, id (r + 1) c) :: !edges;
      if c + 1 < side then edges := (id r c, id r (c + 1)) :: !edges
    done
  done;
  let edges = Array.of_list !edges in
  let m = Array.length edges in
  Cc.make ~num_nodes:(side * side) ~tail:(Array.map fst edges)
    ~head:(Array.map snd edges)
    ~length:(Array.init m (fun k -> float_of_int (10 + (k mod 7)) *. 1e-6))
    ~width:(Array.init m (fun k -> if k mod 3 = 0 then 0.5e-6 else 1e-6))
    ~height:(Array.make m 1e-6)
    ~j:(Array.init m (fun k -> (float_of_int ((k mod 5) - 2) *. 1e10) +. 3e9))

(* The kernel against its scalar oracle: perturb one sample with the
   same stream, solve it with the reference columnar solver, and feed
   the peaks one [add] at a time to fresh estimators. The mortal count
   and every estimate must match bit for bit. *)
let check_variation_oracle spec compacts =
  let r = Va.run_compact ~jobs:1 spec compacts in
  let material = M.cu_dac21 in
  let sigma_c = M.effective_critical_stress material in
  let nsamples = spec.Va.samples in
  (* Replicate the engine's stream layout: one split per structure, in
     index order. *)
  let master = Numerics.Rng.create spec.Va.seed in
  let bits = Int64.bits_of_float in
  List.mapi
    (fun i (cs : Ex.compact_structure) ->
      let rng = Numerics.Rng.split master in
      let st = List.nth r.Va.stats i in
      let maxes = Array.make nsamples 0. in
      let mortal = ref 0 in
      let online = Numerics.Stats.Online.create () in
      let qs = List.map Numerics.Stats.P2.create [ 0.5; 0.9; 0.99 ] in
      for s = 0 to nsamples - 1 do
        let c' = Va.perturb_compact rng spec cs.Ex.compact in
        let thr = sigma_c *. Va.factor rng spec.Va.crit_sigma in
        let mx, _ = Vss.max_stress (Vss.solve_compact material c') in
        maxes.(s) <- mx;
        Numerics.Stats.Online.add online mx;
        List.iter (fun q -> Numerics.Stats.P2.add q mx) qs;
        if mx >= thr then incr mortal
      done;
      Alcotest.(check int) "all samples ok" nsamples st.Va.samples_ok;
      Alcotest.(check bool) "mortality matches oracle" true
        (st.Va.mortality_probability
        = float_of_int !mortal /. float_of_int nsamples);
      Alcotest.(check bool) "mean bit-identical to oracle" true
        (bits st.Va.mean_max_stress = bits (Numerics.Stats.Online.mean online));
      Alcotest.(check bool) "std bit-identical to oracle" true
        (bits st.Va.std_max_stress
        = bits (Numerics.Stats.Online.stddev online));
      List.iter2
        (fun q got ->
          Alcotest.(check bool) "quantile bit-identical to oracle" true
            (bits got = bits (Numerics.Stats.P2.quantile q)))
        qs
        [ st.Va.q50_max_stress; st.Va.q90_max_stress; st.Va.q99_max_stress ];
      (maxes, st))
    compacts

let test_variation_matches_scalar_oracle () =
  (* Five samples: P2 is exact, the same [Stats.percentile] bits. *)
  let compacts = stressed_compacts () |> List.filteri (fun i _ -> i < 4) in
  let spec = { Va.default_spec with Va.samples = 5 } in
  List.iter
    (fun (maxes, st) ->
      let bits = Int64.bits_of_float in
      T_helpers.check_close ~rtol:1e-12 "mean matches batch"
        (Numerics.Stats.mean maxes) st.Va.mean_max_stress;
      T_helpers.check_close ~rtol:1e-9 "std matches batch"
        (Numerics.Stats.stddev maxes) st.Va.std_max_stress;
      Alcotest.(check bool) "q50 bit-identical to exact" true
        (bits st.Va.q50_max_stress
        = bits (Numerics.Stats.percentile maxes 50.));
      Alcotest.(check bool) "q90 bit-identical to exact" true
        (bits st.Va.q90_max_stress
        = bits (Numerics.Stats.percentile maxes 90.));
      Alcotest.(check bool) "q99 bit-identical to exact" true
        (bits st.Va.q99_max_stress
        = bits (Numerics.Stats.percentile maxes 99.)))
    (check_variation_oracle spec compacts);
  (* A mesh with chords beside two stripes, more samples than one
     estimator chunk holds, and a width sigma at which about 2% of the
     width draws are non-positive and redrawn. *)
  let spec =
    { Va.default_spec with Va.samples = 600; width_sigma = 0.5; seed = 11L }
  in
  let compacts =
    cs_of_compact (mesh_compact ())
    :: (stressed_compacts () |> List.filteri (fun i _ -> i < 2))
  in
  ignore (check_variation_oracle spec compacts)

(* A structure engineered so a fraction of the perturbed samples
   overflow (the sampled stress scale sits just under max_float):
   those samples must become counted diagnostics, not a crash, and not
   poison the denominator. *)
let test_variation_partial_degenerate_isolated () =
  (* For this two-segment line the peak stress is beta*j/p1 with p1 the
     first segment's sampled area factor, so beta*j = 0.98*max_float
     puts the overflow boundary at p1 = 0.98: a substantial fraction of
     samples (those drawn slightly thinner than nominal) overflow to
     infinity while the nominal solve and the rest stay finite. *)
  let beta = M.beta M.cu_dac21 in
  let j = 0.98 *. Float.max_float /. beta in
  let risky =
    cs_of_compact ~layer:2
      (Cc.make ~num_nodes:3 ~tail:[| 0; 1 |] ~head:[| 1; 2 |]
         ~length:[| 1.; 1. |] ~width:[| 1.; 1. |] ~height:[| 1.; 1. |]
         ~j:[| j; j |])
  in
  let healthy = cs_of_compact (healthy_line_compact ()) in
  let spec = { Va.default_spec with Va.samples = 400 } in
  let r = Va.run_compact ~jobs:2 spec [ risky; healthy ] in
  Alcotest.(check int) "both structures analyzed" 2 (List.length r.Va.stats);
  let st0 = List.nth r.Va.stats 0 in
  Alcotest.(check int) "denominator accounted" 400
    (st0.Va.samples_ok + st0.Va.samples_failed);
  Alcotest.(check bool) "some samples degenerate" true
    (st0.Va.samples_failed > 0);
  Alcotest.(check bool) "some samples survive" true (st0.Va.samples_ok > 0);
  Alcotest.(check bool) "probability over ok denominator" true
    (st0.Va.mortality_probability >= 0. && st0.Va.mortality_probability <= 1.);
  (match r.Va.diags with
  | [ d ] ->
    Alcotest.(check string) "code" "degenerate-samples" d.Em_core.Diag.code;
    Alcotest.(check bool) "warning severity" true
      (d.Em_core.Diag.severity = Em_core.Diag.Warning);
    (match d.Em_core.Diag.source with
    | Em_core.Diag.Structure { index; layer } ->
      Alcotest.(check int) "diag index" 0 index;
      Alcotest.(check int) "diag layer" 2 layer
    | _ -> Alcotest.fail "diagnostic source is not a structure")
  | ds ->
    Alcotest.failf "expected exactly one diagnostic, got %d" (List.length ds));
  (* Isolation: the healthy structure at index 1 gets the same stream —
     and hence bit-identical results — no matter what sits at index 0. *)
  let control =
    Va.run_compact ~jobs:1 spec
      [ cs_of_compact (healthy_line_compact ()); healthy ]
  in
  Alcotest.(check bool) "healthy structure unaffected" true
    (stats_bits_equal (List.nth r.Va.stats 1) (List.nth control.Va.stats 1))

(* A structure whose volume underflows to zero on every sample: the
   nominal solve and all samples are degenerate — an error diagnostic,
   a nan probability, and a completed run. *)
let test_variation_all_degenerate () =
  let degenerate =
    cs_of_compact ~layer:3
      (Cc.make ~num_nodes:2 ~tail:[| 0 |] ~head:[| 1 |] ~length:[| 1e-6 |]
         ~width:[| 1e-170 |] ~height:[| 1e-170 |] ~j:[| 1e10 |])
  in
  let healthy = cs_of_compact (healthy_line_compact ()) in
  let spec = { Va.default_spec with Va.samples = 20 } in
  let r = Va.run_compact ~jobs:2 spec [ degenerate; healthy ] in
  let st0 = List.nth r.Va.stats 0 in
  Alcotest.(check int) "no sample survives" 0 st0.Va.samples_ok;
  Alcotest.(check int) "all samples counted" 20 st0.Va.samples_failed;
  Alcotest.(check bool) "probability is nan" true
    (Float.is_nan st0.Va.mortality_probability);
  Alcotest.(check bool) "nominal solve degenerate, not fatal" true
    (not st0.Va.nominal_immortal);
  (match r.Va.diags with
  | [ d ] ->
    Alcotest.(check string) "code" "degenerate-samples" d.Em_core.Diag.code;
    Alcotest.(check bool) "error severity" true
      (d.Em_core.Diag.severity = Em_core.Diag.Error)
  | ds ->
    Alcotest.failf "expected exactly one diagnostic, got %d" (List.length ds));
  let st1 = List.nth r.Va.stats 1 in
  Alcotest.(check int) "healthy structure completes" 20 st1.Va.samples_ok

(* The Monte-Carlo loop allocates nothing per segment-sample. What a
   run does allocate is per structure and per domain (stream, schedule,
   estimators, and scratch of about 2 x segments + nodes + 256 words),
   so the per-segment-sample cost is the difference between a run of
   4000 and one of 2000 samples. The counter is exact, so the bound does
   not depend on timing. *)
let test_variation_allocation_free () =
  let m = 400 in
  let line =
    Cc.make ~num_nodes:(m + 1) ~tail:(Array.init m Fun.id)
      ~head:(Array.init m (fun k -> k + 1))
      ~length:(Array.make m 10e-6) ~width:(Array.make m 1e-6)
      ~height:(Array.make m 1e-6)
      ~j:(Array.init m (fun k -> if k mod 3 = 0 then -1e10 else 2e10))
  in
  let structures = [ cs_of_compact line ] in
  let words samples =
    let spec = { Va.default_spec with Va.samples } in
    let a0 = Obs.Alloc.domain () in
    let r = Va.run_compact ~jobs:1 spec structures in
    let words = Obs.Alloc.words ~since:a0 (Obs.Alloc.domain ()) in
    Alcotest.(check int) "all samples ok" samples
      (List.hd r.Va.stats).Va.samples_ok;
    words
  in
  (* Measure warm runs only: the first pays any one-time set-up. *)
  ignore (words 1);
  let w2000 = words 2000 and w4000 = words 4000 in
  let per = (w4000 -. w2000) /. float_of_int (m * 2000) in
  Alcotest.(check bool)
    (Printf.sprintf
       "%.5f words per segment-sample (runs of 2000 and 4000 samples: \
        %.0f and %.0f words)"
       per w2000 w4000)
    true (per < 0.01)

(* One sample keeps every segment's current and draws all the width
   factors, then all the thickness factors: the order the engine's
   lanes consume the stream in. *)
let test_variation_perturbation_preserves_current () =
  let c =
    Cc.of_structure
      (St.line
         [ St.segment ~length:30e-6 ~width:1e-6 ~j:2e10 ();
           St.segment ~length:20e-6 ~width:0.5e-6 ~j:1e10 ();
           St.segment ~length:10e-6 ~width:0.8e-6 ~j:(-5e9) () ])
  in
  let spec = Va.default_spec in
  let c' = Va.perturb_compact (Numerics.Rng.create 3L) spec c in
  let replay = Numerics.Rng.create 3L in
  let m = Cc.num_segments c in
  let fw = Array.init m (fun _ -> Va.factor replay spec.Va.width_sigma) in
  let ft = Array.init m (fun _ -> Va.factor replay spec.Va.thickness_sigma) in
  let bits = Int64.bits_of_float in
  for k = 0 to m - 1 do
    let current (c : Cc.t) = c.Cc.j.(k) *. c.Cc.width.(k) *. c.Cc.height.(k) in
    T_helpers.check_close ~rtol:1e-12 "current preserved" (current c)
      (current c');
    Alcotest.(check bool) "geometry changed" true
      (c'.Cc.width.(k) <> c.Cc.width.(k));
    Alcotest.(check bool) "widths take the first m factors" true
      (bits c'.Cc.width.(k) = bits (c.Cc.width.(k) *. fw.(k)));
    Alcotest.(check bool) "thicknesses take the next m" true
      (bits c'.Cc.height.(k) = bits (c.Cc.height.(k) *. ft.(k)))
  done

(* The clamp-free factor: strictly positive always, mean preserved at
   1 within sampling noise for any practical sigma (the old 0.2 floor
   shifted it). *)
let test_variation_factor_mean_qcheck =
  T_helpers.qcheck ~count:15 "factor mean stays at 1"
    QCheck2.Gen.(pair (int_range 1 30) int)
    (fun (sigma_pct, seed) ->
      let sigma = float_of_int sigma_pct /. 100. in
      let rng = Numerics.Rng.create (Int64.of_int seed) in
      let n = 20000 in
      let acc = ref 0. in
      for _ = 1 to n do
        let f = Va.factor rng sigma in
        if f <= 0. then QCheck2.Test.fail_report "non-positive factor";
        acc := !acc +. f
      done;
      let mean = !acc /. float_of_int n in
      if Float.abs (mean -. 1.) > 0.012 then
        QCheck2.Test.fail_reportf "mean %.4f at sigma %.2f" mean sigma;
      true)

let test_variation_table () =
  let structures = stressed_compacts () |> List.filteri (fun i _ -> i < 4) in
  let r = Va.run_compact { Va.default_spec with Va.samples = 10 } structures in
  let rendered = Emflow.Report.render (Va.to_table r.Va.stats) in
  Alcotest.(check bool) "renders" true (String.length rendered > 100);
  Alcotest.(check bool) "has quantile columns" true
    (let contains hay needle =
       let nl = String.length needle and hl = String.length hay in
       let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
       go 0
     in
     contains rendered "p99 MPa" && contains rendered "degen")

(* ---------------------------------------------------------------- *)
(* Jmax                                                              *)

module Jm = Emflow.Jmax

let test_jmax_filter_semantics () =
  let g = small_grid () in
  let sol = Spice.Mna.solve g.Gg.netlist in
  let structures = Extract_reference.extract ~tech:g.Gg.tech sol in
  List.iter
    (fun es ->
      let pass = Jm.filter ~tech:g.Gg.tech es in
      Array.iteri
        (fun k ok ->
          let seg = St.seg es.Ex.structure k in
          let limit =
            let found = ref 0. in
            Array.iter
              (fun (l : Pdn.Tech.layer) ->
                if l.Pdn.Tech.level = es.Ex.layer_level then
                  found := l.Pdn.Tech.j_dc_limit)
              g.Gg.tech.Pdn.Tech.layers;
            !found
          in
          Alcotest.(check bool) "threshold semantics"
            (Float.abs seg.St.current_density <= limit)
            ok)
        pass)
    structures

let test_jmax_counts_total () =
  let structures = stressed_structures () in
  let c = Jm.compare_against_exact ~tech:Pdn.Tech.ibm_like structures in
  Alcotest.(check int) "covers every segment"
    (Extract_reference.total_segments structures)
    (Cl.total c)


let test_flow_parallel_matches_sequential () =
  let g = small_grid () in
  let seq = Flow.run ~with_maxpath:true g in
  let par = Flow.run ~with_maxpath:true ~jobs:4 g in
  Alcotest.(check int) "tp" seq.Flow.counts.Cl.tp par.Flow.counts.Cl.tp;
  Alcotest.(check int) "fp" seq.Flow.counts.Cl.fp par.Flow.counts.Cl.fp;
  Alcotest.(check int) "segments" seq.Flow.num_segments par.Flow.num_segments;
  (* Same stresses and verdict bits, structure by structure. *)
  let stress_bits (r : Flow.result) =
    Array.map (Array.map Int64.bits_of_float) r.Flow.node_stress
  in
  Alcotest.(check bool) "node stresses bit-identical" true
    (stress_bits seq = stress_bits par);
  Alcotest.(check bool) "verdict bits identical" true
    (seq.Flow.verdicts = par.Flow.verdicts)


let test_fixer_iterate_converges () =
  (* The grid-level repair loop drives the mortal-structure count to
     zero within the round budget. *)
  let g = small_grid () in
  let scaled, _ = Ir.scale_to_ir g ~target:0.03 in
  let repaired, plans = Fx.iterate ~max_rounds:12 scaled in
  Alcotest.(check bool) "at least one repair round" true (List.length plans >= 2);
  (* Final plan is empty = clean grid. *)
  let final = List.nth plans (List.length plans - 1) in
  Alcotest.(check int) "no fixes remain" 0 (List.length final.Fx.fixes);
  (* Confirm independently on the repaired netlist. *)
  let sol = Spice.Mna.solve repaired.Gg.netlist in
  let structures = Extract_reference.extract ~tech:repaired.Gg.tech sol in
  List.iter
    (fun es ->
      Alcotest.(check bool) "structure immortal" true
        (Em_core.Immortality.check M.cu_dac21 es.Ex.structure)
          .Em_core.Immortality.structure_immortal)
    structures;
  (* Mortal counts decrease monotonically across rounds. *)
  let counts = List.map (fun p -> p.Fx.mortal_structures) plans in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a >= b && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool)
    (Printf.sprintf "monotone repair (%s)"
       (String.concat "," (List.map string_of_int counts)))
    true (decreasing counts)


(* ---------------------------------------------------------------- *)
(* Svg / Html_report                                                 *)

module Sv = Emflow.Svg
module Hr = Emflow.Html_report

let test_svg_primitives () =
  let svg = Sv.create ~width:100 ~height:50 in
  Sv.rect svg ~x:0. ~y:0. ~w:10. ~h:10. ~fill:"#fff" ();
  Sv.line svg ~x1:0. ~y1:0. ~x2:5. ~y2:5. ~stroke:"#000" ();
  Sv.circle svg ~cx:1. ~cy:2. ~r:3. ~fill:"red";
  Sv.text svg ~x:4. ~y:5. "a<b&c";
  let out = Sv.render svg in
  Alcotest.(check bool) "svg root" true
    (String.length out > 50
    && String.sub out 0 4 = "<svg");
  (* Escaping applied. *)
  let contains needle =
    let n = String.length needle in
    let found = ref false in
    for i = 0 to String.length out - n do
      if String.sub out i n = needle then found := true
    done;
    !found
  in
  Alcotest.(check bool) "escaped text" true (contains "a&lt;b&amp;c");
  Alcotest.(check bool) "no raw angle in text" false (contains ">a<b")

let test_svg_scatter () =
  let pts =
    Array.init 200 (fun i ->
        {
          Sc.length_um = 1. +. float_of_int i;
          j = 1e9 *. float_of_int (1 + (i mod 17));
          correct = i mod 3 <> 0;
        })
  in
  let out =
    Sv.scatter
      {
        Sv.width = 400; height = 300; title = "t"; x_label = "x"; y_label = "y";
        jl_crit = Some (M.jl_crit M.cu_dac21);
      }
      pts
  in
  Alcotest.(check bool) "has points" true
    (String.length out > 2000);
  Alcotest.(check string) "empty placeholder"
    "(no points)"
    (let out =
       Sv.scatter
         { Sv.width = 100; height = 100; title = ""; x_label = ""; y_label = "";
           jl_crit = None }
         [||]
     in
     if String.length out > 0 then
       (* extract the placeholder text *)
       let needle = "(no points)" in
       let n = String.length needle in
       let found = ref "" in
       for i = 0 to String.length out - n do
         if String.sub out i n = needle then found := needle
       done;
       !found
     else "")

let test_html_report () =
  let g = small_grid () in
  let scaled, _ = Ir.scale_to_ir g ~target:0.04 in
  let sol = Spice.Mna.solve scaled.Gg.netlist in
  let compacts = Ex.extract_compact ~tech:scaled.Gg.tech sol in
  let r = Flow.run_on_compact compacts in
  let html = Hr.page ~title:"unit test <grid>" ~tech:scaled.Gg.tech ~compacts r in
  let contains needle =
    let n = String.length needle in
    let found = ref false in
    for i = 0 to String.length html - n do
      if String.sub html i n = needle then found := true
    done;
    !found
  in
  Alcotest.(check bool) "doctype" true (contains "<!DOCTYPE html>");
  Alcotest.(check bool) "title escaped" true (contains "unit test &lt;grid&gt;");
  Alcotest.(check bool) "svg embedded" true (contains "<svg");
  Alcotest.(check bool) "layer table" true (contains "Per-layer breakdown");
  Alcotest.(check bool) "repair section" true (contains "Repair plan");
  Alcotest.(check bool) "closes" true (contains "</html>")

(* ---------------------------------------------------------------- *)
(* Fault isolation                                                   *)

module Dg = Em_core.Diag

(* A structure whose per-field geometry is valid (strictly positive and
   finite) but whose cross-sections underflow to zero: the total volume
   A is 0, the steady-state normalization Q/A is 0/0, and the analysis
   raises [Steady_state.Degenerate]. *)
let poison_compact () =
  let s =
    St.line [ St.segment ~height:1e-200 ~length:1e-6 ~width:1e-200 ~j:1e10 () ]
  in
  compact_of_boxed
    { Ex.layer_level = 9; structure = s; node_names = [| "poison:a"; "poison:b" |];
      element_ids = [| 0 |] }

let insert_at k x xs =
  let rec go i = function
    | rest when i = k -> x :: rest
    | [] -> [ x ]
    | y :: ys -> y :: go (i + 1) ys
  in
  go 0 xs

let bits = Int64.bits_of_float

(* The analyzed structures of two runs, batch order with fault-isolated
   slots dropped: same layers, node stresses bit for bit, same verdict
   bits. *)
let check_segments_bit_identical (clean : Flow.result) (dirty : Flow.result) =
  let analyzed (r : Flow.result) =
    List.filteri
      (fun i _ -> r.Flow.structure_stats.(i).Flow.st_ok)
      (List.init r.Flow.num_structures (fun i ->
           ( r.Flow.structure_stats.(i).Flow.st_layer,
             Array.map bits r.Flow.node_stress.(i),
             r.Flow.verdicts.(i) )))
  in
  let c = analyzed clean and d = analyzed dirty in
  Alcotest.(check int) "same number of analyzed structures" (List.length c)
    (List.length d);
  List.iteri
    (fun i (a, b) -> if a <> b then Alcotest.failf "structure %d differs" i)
    (List.combine c d)

(* Shared across the cases below: the healthy batch and its clean-run
   baseline (solving the grid once keeps the suite fast). *)
let fault_fixture =
  lazy
    (let g = small_grid () in
     let sol = Spice.Mna.solve g.Gg.netlist in
     let healthy = Ex.extract_compact ~tech:g.Gg.tech sol in
     (healthy, Flow.run_on_compact healthy))

let check_poisoned_batch ?jobs ~pos healthy (clean : Flow.result) =
  let dirty =
    Flow.run_on_compact ?jobs (insert_at pos (poison_compact ()) healthy)
  in
  (match dirty.Flow.diags with
  | [ d ] ->
    Alcotest.(check bool) "error severity" true (d.Dg.severity = Dg.Error);
    Alcotest.(check string) "stable code" "degenerate-structure" d.Dg.code;
    (match d.Dg.source with
    | Dg.Structure { index; layer } ->
      Alcotest.(check int) "diag names the poisoned index" pos index;
      Alcotest.(check int) "diag names the poisoned layer" 9 layer
    | _ -> Alcotest.fail "diagnostic source is not a structure")
  | ds -> Alcotest.failf "expected exactly 1 diagnostic, got %d" (List.length ds));
  Alcotest.(check int) "failed_structures" 1 (Flow.failed_structures dirty);
  Alcotest.(check int) "num_structures includes the poison"
    (List.length healthy + 1)
    dirty.Flow.num_structures;
  Alcotest.(check int) "num_segments excludes the poison"
    clean.Flow.num_segments dirty.Flow.num_segments;
  Alcotest.(check bool) "confusion counts unchanged" true
    (clean.Flow.counts = dirty.Flow.counts);
  check_segments_bit_identical clean dirty

let test_flow_fault_isolation () =
  let healthy, clean = Lazy.force fault_fixture in
  Alcotest.(check int) "clean run has no diagnostics" 0
    (List.length clean.Flow.diags);
  Alcotest.(check int) "clean run has no failures" 0
    (Flow.failed_structures clean);
  let n = List.length healthy in
  List.iter
    (fun pos ->
      check_poisoned_batch ~pos healthy clean;
      check_poisoned_batch ~jobs:4 ~pos healthy clean)
    [ 0; n / 2; n ]

let test_flow_fault_isolation_qcheck =
  qcheck ~count:12 "poison position never disturbs healthy structures"
    QCheck2.Gen.(pair (int_bound 997) (int_range 1 4))
    (fun (raw_pos, jobs) ->
      let healthy, clean = Lazy.force fault_fixture in
      let pos = raw_pos mod (List.length healthy + 1) in
      check_poisoned_batch ~jobs ~pos healthy clean;
      true)

(* A large mesh among small structures: a random tree of 20,000 nodes
   plus one chord parallel to a tree segment (same endpoints, length and
   current density, so the mesh's currents stay cycle-consistent) sits
   among the small grid's structures, far past the largest structure of
   any workload. *)
let big_mesh_compact () =
  let rng = Numerics.Rng.create 29L in
  let n = 20_000 in
  let tree =
    St.random_tree rng ~num_nodes:n (fun _ ->
        St.segment
          ~length:(Numerics.Rng.uniform rng 2e-6 80e-6)
          ~width:(Numerics.Rng.uniform rng 0.2e-6 2e-6)
          ~j:(Numerics.Rng.uniform rng (-5e10) 5e10)
          ())
  in
  let c = Cc.of_structure tree in
  let k = Cc.num_segments c / 2 in
  let chord col x = Array.append col [| x |] in
  Cc.make ~num_nodes:n
    ~tail:(chord c.Cc.tail c.Cc.tail.(k))
    ~head:(chord c.Cc.head c.Cc.head.(k))
    ~length:(chord c.Cc.length c.Cc.length.(k))
    ~width:(chord c.Cc.width (2. *. c.Cc.width.(k)))
    ~height:(chord c.Cc.height c.Cc.height.(k))
    ~j:(chord c.Cc.j c.Cc.j.(k))

let test_flow_large_mesh () =
  let module Au = Em_core.Audit in
  let healthy, _ = Lazy.force fault_fixture in
  let big = cs_of_compact (big_mesh_compact ()) in
  let big_at = List.length healthy / 2 in
  let batch = insert_at big_at big healthy in
  (* Reference: every structure through the plain solve on its own. *)
  let expected =
    Array.of_list
      (List.map
         (fun (cs : Ex.compact_structure) ->
           (Em_core.Steady_state.solve_compact M.cu_dac21 cs.Ex.compact)
             .Em_core.Steady_state.node_stress)
         batch)
  in
  List.iter
    (fun jobs ->
      let r = Flow.run_on_compact ~jobs ~audit:Flow.default_audit_config batch in
      Alcotest.(check int) "no diagnostics" 0 (List.length r.Flow.diags);
      Array.iteri
        (fun i slot ->
          match slot with
          | None -> Alcotest.failf "structure %d was not audited" i
          | Some (a : Au.t) ->
            match Au.violations ~tol:Au.default_tol a with
            | [] -> ()
            | (name, v) :: _ ->
              Alcotest.failf "structure %d: residual violation %s = %g" i name v)
        r.Flow.audits;
      Alcotest.(check int) "every structure recorded" (Array.length expected)
        (Array.length r.Flow.node_stress);
      Array.iteri
        (fun i stress ->
          if Array.map bits r.Flow.node_stress.(i) <> Array.map bits stress
          then Alcotest.failf "jobs %d: structure %d stresses differ" jobs i)
        expected)
    [ 1; 2 ];
  let clean = Flow.run_on_compact batch in
  let n = List.length batch in
  List.iter
    (fun (jobs, pos) -> check_poisoned_batch ~jobs ~pos batch clean)
    [ (1, 0); (1, n); (2, 0); (2, n) ]

let test_flow_diags_serialized () =
  let healthy, _ = Lazy.force fault_fixture in
  let dirty = Flow.run_on_compact (insert_at 0 (poison_compact ()) healthy) in
  let contains hay needle =
    let n = String.length needle in
    let found = ref false in
    for i = 0 to String.length hay - n do
      if String.sub hay i n = needle then found := true
    done;
    !found
  in
  let summary = Format.asprintf "%a" Flow.pp_summary dirty in
  Alcotest.(check bool) "summary counts diagnostics" true
    (contains summary "diagnostics:");
  Alcotest.(check bool) "summary lists the diagnostic" true
    (contains summary "degenerate-structure");
  let json = J.to_string (J.of_flow_result dirty) in
  Alcotest.(check bool) "json failed_structures" true
    (contains json {|"failed_structures":1|});
  Alcotest.(check bool) "json diagnostic code" true
    (contains json "degenerate-structure");
  Alcotest.(check bool) "json severity" true
    (contains json {|"severity":"error"|})

(* ---------------------------------------------------------------- *)
(* Runtime numerical audit                                           *)

module Au = Em_core.Audit

let test_flow_audit_end_to_end () =
  let healthy, clean = Lazy.force fault_fixture in
  let audited = Flow.run_on_compact ~audit:Flow.default_audit_config healthy in
  (* Auditing must be result-neutral... *)
  check_segments_bit_identical clean audited;
  Alcotest.(check int) "no diagnostics" 0 (List.length audited.Flow.diags);
  (* ...and the un-audited run carries no records. *)
  Alcotest.(check bool) "clean run has empty audit slots" true
    (Array.for_all Option.is_none clean.Flow.audits);
  Alcotest.(check int) "one audit slot per structure" (List.length healthy)
    (Array.length audited.Flow.audits);
  Array.iteri
    (fun i slot ->
      match slot with
      | None -> Alcotest.failf "structure %d was not audited" i
      | Some (a : Au.t) ->
        Alcotest.(check int) "record names its slot" i a.Au.au_index;
        (match Au.violations ~tol:Flow.default_audit_config.Flow.audit_tol a with
        | [] -> ()
        | (name, v) :: _ ->
          Alcotest.failf "structure %d: residual violation %s = %g" i name v))
    audited.Flow.audits

let test_flow_audit_fault_isolated () =
  let healthy, _ = Lazy.force fault_fixture in
  let dirty =
    Flow.run_on_compact ~audit:Flow.default_audit_config
      (insert_at 0 (poison_compact ()) healthy)
  in
  Alcotest.(check int) "poison still isolated" 1
    (Flow.failed_structures dirty);
  (match dirty.Flow.audits.(0) with
  | None -> ()
  | Some _ -> Alcotest.fail "fault-isolated structure must carry no audit");
  Array.iteri
    (fun i slot ->
      if i > 0 && Option.is_none slot then
        Alcotest.failf "healthy structure %d lost its audit" i)
    dirty.Flow.audits

let test_flow_audit_json () =
  let healthy, _ = Lazy.force fault_fixture in
  let r = Flow.run_on_compact ~audit:Flow.default_audit_config healthy in
  let tol = Flow.default_audit_config.Flow.audit_tol in
  let json = J.to_string (J.of_audit_report ~tol r.Flow.audits) in
  let contains hay needle =
    let n = String.length needle in
    let found = ref false in
    for i = 0 to String.length hay - n do
      if String.sub hay i n = needle then found := true
    done;
    !found
  in
  Alcotest.(check bool) "audited count" true
    (contains json
       (Printf.sprintf {|"structures_audited":%d|} (List.length healthy)));
  Alcotest.(check bool) "zero violations" true
    (contains json {|"violations":0|});
  Alcotest.(check bool) "margins present" true (contains json {|"margin_pa":|});
  Alcotest.(check bool) "attribution present" true
    (contains json {|"top_contributions":|})

(* ---------------------------------------------------------------- *)
(* Reports from the flow's results, against the boxed re-solves      *)

module Im = Em_core.Immortality

let check_reports_match name compacts =
  let r = Flow.run_on_compact ~jobs:2 compacts in
  let analyzed =
    List.filteri (fun i _ -> r.Flow.structure_stats.(i).Flow.st_ok) compacts
  in
  let boxed = List.map Ex.boxed_view analyzed in
  let same what ok = if not ok then Alcotest.failf "%s: %s differ" name what in
  let layer (st : Lr.layer_stats) =
    ( (st.Lr.level, st.Lr.structures, st.Lr.segments, st.Lr.mortal_segments, st.Lr.counts),
      List.map bits [ st.Lr.total_length; st.Lr.max_abs_j; st.Lr.max_jl; st.Lr.max_stress ] )
  in
  same "layer statistics"
    (List.map layer (Lr.of_result compacts r) = List.map layer (Lr.analyze boxed));
  let plan (p : Fx.plan) =
    ( (p.Fx.mortal_structures, p.Fx.immortal_structures, bits p.Fx.total_extra_area),
      List.map
        (fun (f : Fx.fix) ->
          ( (f.Fx.index, f.Fx.layer, f.Fx.segments),
            List.map bits [ f.Fx.max_stress; f.Fx.widen; f.Fx.extra_area ] ))
        p.Fx.fixes )
  in
  let expected = Fx.plan boxed in
  same "fix plans" (plan (Fx.plan_of_result compacts r) = plan expected);
  let structures = Array.of_list compacts in
  let ranked =
    List.map
      (fun i ->
        let st = r.Flow.structure_stats.(i) in
        ( bits st.Flow.st_margin,
          bits (Em_core.Units.pa_to_mpa st.Flow.st_max_stress),
          Ex.node_name structures.(i) st.Flow.st_peak_node ))
      (Flow.ranking r)
  in
  let oracle =
    List.map (fun (es : Ex.em_structure) -> (es, Im.check M.cu_dac21 es.Ex.structure)) boxed
    |> List.sort (fun (_, a) (_, b) -> compare (Im.margin a) (Im.margin b))
    |> List.map (fun ((es : Ex.em_structure), rep) ->
           ( bits (Im.margin rep),
             bits (Em_core.Units.pa_to_mpa rep.Im.max_stress),
             es.Ex.node_names.(rep.Im.max_node) ))
  in
  same "rankings" (ranked = oracle);
  expected.Fx.mortal_structures

(* IBM-preset grids scaled to a 5% IR drop, so some structures are
   mortal and the fix plan is not empty. *)
let stressed_preset size =
  let scaled, _ = Ir.scale_to_ir (Gg.generate (Gg.ibm_preset size)) ~target:0.05 in
  Ex.extract_compact ~tech:scaled.Gg.tech (Spice.Mna.solve scaled.Gg.netlist)

let test_reports_match_oracles () =
  let pg1 = stressed_preset Gg.Pg1 in
  Alcotest.(check bool) "pg1 has mortal structures" true (check_reports_match "pg1" pg1 > 0);
  ignore (check_reports_match "pg1 with a fault-isolated structure"
            (insert_at (List.length pg1 / 2) (poison_compact ()) pg1));
  Alcotest.(check bool) "pg2 has mortal structures" true
    (check_reports_match "pg2" (stressed_preset Gg.Pg2) > 0)

(* The columnar layer table of a whole deck -> verdict run (verdict bits
   plus compact columns, the solve's collection included) against the
   boxed [Immortality.check] fold, every float bit for bit: the length
   totals must be summed in segment order on both paths. *)
let test_layer_report_columnar_matches_boxed () =
  let grid, _ =
    Ir.scale_to_ir (Gg.generate (Gg.ibm_preset Gg.Pg2)) ~target:0.05
  in
  let v =
    Flow.analyze_deck ~jobs:2 ~tech:grid.Gg.tech (Flow.of_netlist grid.Gg.netlist)
  in
  let r = v.Flow.result in
  let analyzed =
    List.filteri (fun i _ -> r.Flow.structure_stats.(i).Flow.st_ok) v.Flow.compacts
  in
  let row (st : Lr.layer_stats) =
    ( (st.Lr.level, st.Lr.structures, st.Lr.segments, st.Lr.mortal_segments,
       st.Lr.counts),
      List.map bits
        [ st.Lr.total_length; st.Lr.max_abs_j; st.Lr.max_jl; st.Lr.max_stress ] )
  in
  let columnar = Lr.of_result v.Flow.compacts r in
  Alcotest.(check int) "every segment in a row" r.Flow.num_segments
    (List.fold_left (fun n st -> n + st.Lr.segments) 0 columnar);
  Alcotest.(check bool) "rows equal the boxed fold, bit for bit" true
    (List.map row columnar
    = List.map row (Lr.analyze (List.map Ex.boxed_view analyzed)))

(* The compact verification against the boxed oracle, fix by fix: the
   planned widening makes the structure immortal in both, and 1% short
   of the bare slack (0.99 x peak / sigma_crit) leaves it mortal in
   both, so such a plan is rejected. *)
let widen_boxed s alpha =
  St.make ~num_nodes:(St.num_nodes s)
    (Array.init (St.num_segments s) (fun k ->
         let tail, head = St.endpoints s k in
         let seg = St.seg s k in
         ( tail,
           head,
           {
             seg with
             St.width = seg.St.width *. alpha;
             St.current_density = seg.St.current_density /. alpha;
           } )))

let check_verify_matches_oracle name compacts =
  let r = Flow.run_on_compact compacts in
  let analyzed =
    List.filteri (fun i _ -> r.Flow.structure_stats.(i).Flow.st_ok) compacts
  in
  let plan = Fx.plan_of_result compacts r in
  let arr = Array.of_list analyzed in
  let sigma_crit = M.effective_critical_stress M.cu_dac21 in
  if not (Fx.verify analyzed plan) then Alcotest.failf "%s: plan fails verification" name;
  List.iter
    (fun (f : Fx.fix) ->
      let boxed = (Ex.boxed_view arr.(f.Fx.index)).Ex.structure in
      let short = 0.99 *. f.Fx.max_stress /. sigma_crit in
      List.iter
        (fun (widen, immortal) ->
          let one = { plan with Fx.fixes = [ { f with Fx.widen } ] } in
          let oracle =
            (Im.check M.cu_dac21 (widen_boxed boxed widen)).Im.structure_immortal
          in
          if Fx.verify analyzed one <> immortal || oracle <> immortal then
            Alcotest.failf "%s: fix %d at widen %g: compact %b, boxed %b, want %b"
              name f.Fx.index widen (Fx.verify analyzed one) oracle immortal)
        [ (f.Fx.widen, true); (short, false) ])
    plan.Fx.fixes;
  List.length plan.Fx.fixes

let test_fixer_verify_matches_oracle () =
  Alcotest.(check bool) "pg1 has fixes" true
    (check_verify_matches_oracle "pg1" (stressed_preset Gg.Pg1) > 0);
  Alcotest.(check bool) "pg2 has fixes" true
    (check_verify_matches_oracle "pg2" (stressed_preset Gg.Pg2) > 0)

(* The library's deck -> verdict diagnostics are the CLI's: on a
   corrupted deck under a keep-going budget, `analyze --keep-going
   --json` reports the same list, plus its own Blech false-positive
   warning. *)
let test_run_deck_diags_match_cli () =
  let module Ji = Emflow.Json_in in
  let bad = Filename.temp_file "t_flow-corrupted" ".sp" in
  let json = Filename.temp_file "t_flow-corrupted" ".json" in
  Out_channel.with_open_text bad (fun oc ->
      output_string oc (T_cli.read_file T_cli.deck);
      output_string oc "R_bad n1 n2 notanumber\nQ9 a b 5\nR_neg n3 n4 -3\n");
  Fun.protect
    ~finally:(fun () ->
      T_cli.rm_f bad;
      T_cli.rm_f json)
    (fun () ->
      let _, v =
        Flow.run_deck ~keep_going:Spice.Parser.default_max_errors
          ~tech:Pdn.Tech.ibm_like bad
      in
      Alcotest.(check int) "three skipped lines" 3
        (List.length
           (List.filter (fun (d : Em_core.Diag.t) -> d.Em_core.Diag.code = "parse-error")
              v.Flow.diags));
      let r =
        T_cli.run_cmd
          (Printf.sprintf "%s analyze %s --keep-going --json %s" T_cli.emcheck bad
             json)
      in
      Alcotest.(check int) "analyze exits 1" 1 r.T_cli.code;
      let cli =
        match Ji.list_value (T_cli.get "diagnostics" (T_cli.json_of_file json)) with
        | Some ds ->
          List.filter
            (fun d ->
              Option.bind (Ji.member "code" d) Ji.string_value
              <> Some "blech-false-positive")
            ds
        | None -> Alcotest.fail "diagnostics is not a list"
      in
      let lib =
        Ji.parse_exn (Emflow.Json_out.to_string (Emflow.Json_out.of_diags v.Flow.diags))
      in
      Alcotest.(check bool) "same diagnostics, same order" true
        (Emflow.Json_out.List cli = lib))

let suites =
  [
    ( "flow.extract",
      [
        case "covers all wires" test_extract_covers_all_wires;
        case "structures connected and consistent"
          test_extract_structures_are_connected_and_consistent;
        case "geometry from tech" test_extract_geometry_matches_tech;
        case "currents match MNA branches" test_extract_current_matches_mna;
        case "streaming columnar path equivalent" test_extract_compact_equivalent;
        case "streaming path equivalent on a full pg2 grid"
          test_extract_compact_equivalent_pg2;
        case "columnar path on sample deck" test_extract_compact_mini_grid;
      ] );
    ( "flow.em_flow",
      [
        case "confusion totals" test_flow_counts_sum;
        case "maxpath ablation" test_flow_maxpath_ablation;
        case "blech errs after IR scaling" test_flow_blech_disagrees_after_ir_scaling;
        case "zero current => all immortal" test_flow_zero_current_all_immortal;
        case "parallel matches sequential" test_flow_parallel_matches_sequential;
        case "pipeline stages recorded" test_flow_stages_recorded;
        case "pipeline records failed stage" test_pipeline_records_failed_stage;
        case "pipeline counts worker-domain allocation"
          test_pipeline_counts_worker_alloc;
        case "MNA residual out of bounds is an error" test_mna_residual_diag;
        case "keep-going deck diagnostics equal the CLI's"
          test_run_deck_diags_match_cli;
      ] );
    ( "flow.fault_isolation",
      [
        case "poisoned batch isolates the offender" test_flow_fault_isolation;
        case "large mesh matches per-structure solves"
          test_flow_large_mesh;
        case "diagnostics serialized" test_flow_diags_serialized;
        test_flow_fault_isolation_qcheck;
      ] );
    ( "flow.reports",
      [
        case "layers, fix plan and ranking match the boxed re-solves"
          test_reports_match_oracles;
        case "pg2 deck -> verdict: columnar layer table equals the boxed one"
          test_layer_report_columnar_matches_boxed;
      ] );
    ( "flow.audit",
      [
        case "audited run: neutral, complete, clean" test_flow_audit_end_to_end;
        case "fault isolation keeps healthy audits"
          test_flow_audit_fault_isolated;
        case "audit report serialization" test_flow_audit_json;
      ] );
    ( "flow.scatter",
      [
        case "points and plot" test_scatter_points;
        case "csv rows" test_scatter_csv_roundtrippable;
        case "empty input" test_scatter_empty;
      ] );
    ( "flow.layer_report",
      [
        case "totals partition across layers" test_layer_report_totals;
        case "renders" test_layer_report_renders;
        case "mortal = TN + FP" test_layer_report_mortal_consistency;
      ] );
    ( "flow.fixer",
      [
        case "plan and verify" test_fixer_plan_and_verify;
        case "widening semantics" test_fixer_widening_semantics;
        case "safety guard / monotone cost" test_fixer_safety_guard;
        case "grid repair loop converges" test_fixer_iterate_converges;
        case "compact verify agrees with the boxed oracle"
          test_fixer_verify_matches_oracle;
      ] );
    ( "flow.sample_deck",
      [ case "data/mini_grid.sp end to end" test_sample_deck_end_to_end ] );
    ( "flow.jmax",
      [
        case "threshold semantics" test_jmax_filter_semantics;
        case "counts cover all segments" test_jmax_counts_total;
      ] );
    ( "flow.variation",
      [
        case "zero sigma degenerates" test_variation_zero_sigma_degenerates;
        case "valid probabilities, deterministic" test_variation_probabilities_valid;
        case "jobs bit-identical" test_variation_jobs_bit_identical;
        case "matches scalar oracle" test_variation_matches_scalar_oracle;
        case "partial degeneracy isolated" test_variation_partial_degenerate_isolated;
        case "all-degenerate structure survives" test_variation_all_degenerate;
        case "allocation-free sampling" test_variation_allocation_free;
        case "perturbation preserves currents" test_variation_perturbation_preserves_current;
        test_variation_factor_mean_qcheck;
        case "renders" test_variation_table;
      ] );
    ( "flow.json",
      [
        case "scalars" test_json_scalars;
        case "string escaping" test_json_escaping;
        case "lists and objects" test_json_structures;
        case "flow result serialization" test_json_flow_result;
      ] );
    ( "flow.svg",
      [
        case "primitives and escaping" test_svg_primitives;
        case "scatter" test_svg_scatter;
      ] );
    ("flow.html_report", [ case "full page" test_html_report ]);
    ( "flow.report",
      [
        case "render" test_report_render;
        case "cell formatting" test_report_cells;
      ] );
  ]

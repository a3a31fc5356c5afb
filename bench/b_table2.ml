(* E3 (Table II): traditional Blech filter vs the exact linear-time test
   on synthetic IBM-benchmark-scale grids, with runtimes. *)

module Gg = Pdn.Grid_gen
module Flow = Emflow.Em_flow
module Cl = Em_core.Classify
module Rp = Emflow.Report
module J = Emflow.Json_out

let sizes = [ Gg.Pg1; Gg.Pg2; Gg.Pg3; Gg.Pg6 ]

(* The paper's Table II, for side-by-side reading. *)
let paper_rows =
  [
    ("pg1", 29750, 1557, 10144, 17372, 677, "7s", "6s");
    ("pg2", 125668, 7703, 33534, 82025, 2406, "12s", "19s");
    ("pg3", 835071, 200158, 3539, 630979, 395, "36s", "184s");
    ("pg6", 1648621, 916094, 1365, 730995, 167, "88s", "280s");
  ]

let run cfg =
  B_util.heading "Table II: Blech filter vs exact test on IBM-like grids";
  let ours =
    Rp.create
      [ "grid"; "E"; "TP"; "TN"; "FP"; "FN"; "analyze"; "solve"; "total" ]
  in
  let results =
    List.map
      (fun size ->
        let scale = B_util.ibm_scale cfg size in
        let spec = Gg.ibm_preset ~scale size in
        let (grid, v), total_t =
          B_util.wall (fun () ->
              let grid = Gg.generate spec in
              ( grid,
                Flow.analyze_deck ~tech:grid.Gg.tech
                  (Flow.of_netlist grid.Gg.netlist) ))
        in
        let r = v.Flow.result in
        let c = r.Flow.counts in
        Rp.add_row ours
          [
            Printf.sprintf "%s x%.2f" (Gg.ibm_size_name size) scale;
            Rp.int_cell (grid.Gg.num_wires + grid.Gg.num_vias);
            Rp.int_cell c.Cl.tp;
            Rp.int_cell c.Cl.tn;
            Rp.int_cell c.Cl.fp;
            Rp.int_cell c.Cl.fn;
            Rp.seconds_cell (Flow.stage_wall r "analyze");
            Rp.seconds_cell (Flow.stage_wall r "solve");
            Rp.seconds_cell total_t;
          ];
        (size, grid, v))
      sizes
  in
  Rp.print ours;
  B_util.ensure_out_dir cfg;
  let json_path = B_util.out_path cfg "BENCH_table2.json" in
  let oc = open_out json_path in
  J.to_channel oc
    (J.Obj
       [
         ("bench", J.String "table2");
         ("full", J.Bool cfg.B_util.full);
         ( "grids",
           J.List
             (List.map
                (fun (size, grid, (v : Flow.verdict)) ->
                  let r = v.Flow.result in
                  let analyze_wall =
                    Flow.stage_wall r "analyze" +. Flow.stage_wall r "classify"
                  in
                  J.Obj
                    [
                      ("grid", J.String (Gg.ibm_size_name size));
                      ("scale", J.Float (B_util.ibm_scale cfg size));
                      ("edges", J.Int (grid.Gg.num_wires + grid.Gg.num_vias));
                      ("structures", J.Int r.Flow.num_structures);
                      ("segments", J.Int r.Flow.num_segments);
                      ("counts", J.of_counts r.Flow.counts);
                      ("stages", J.of_stages r.Flow.stages);
                      ( "segments_per_s",
                        if analyze_wall > 0. then
                          J.Float (float_of_int r.Flow.num_segments /. analyze_wall)
                        else J.Null );
                    ])
                results) );
       ]);
  output_char oc '\n';
  close_out oc;
  B_util.note "Per-grid counts and stage timings written to %s." json_path;
  B_util.note
    "analyze is the immortality analysis alone (the paper's algorithm);";
  B_util.note
    "solve is the DC operating point (both stage wall seconds); total \
     includes grid synthesis.";
  if not cfg.B_util.full then
    B_util.note "Scaled-down workloads; pass --full for paper-size grids.";
  print_newline ();
  Printf.printf "Paper's Table II (real IBM benchmarks, GPU + CPU columns):\n";
  let paper =
    Rp.create [ "grid"; "E"; "TP"; "TN"; "FP"; "FN"; "GPU"; "CPU" ]
  in
  List.iter
    (fun (name, e, tp, tn, fp, fn, gpu, cpu) ->
      Rp.add_row paper
        [
          name; Rp.int_cell e; Rp.int_cell tp; Rp.int_cell tn; Rp.int_cell fp;
          Rp.int_cell fn; gpu; cpu;
        ])
    paper_rows;
  Rp.print paper;
  B_util.note
    "Shape checks: FP >> FN on every grid; TN fraction falls from pg1 to pg6;";
  B_util.note "runtimes stay in seconds-to-minutes at million-edge scale.";
  (* Per-layer view of the smallest grid: where the filter errors live. *)
  (match results with
  | (_, _, v) :: _ ->
    print_newline ();
    Printf.printf "Per-layer breakdown (ibmpg1-like):\n";
    Rp.print
      (Emflow.Layer_report.to_table
         (Emflow.Layer_report.of_result v.Flow.compacts v.Flow.result))
  | [] -> ());
  results

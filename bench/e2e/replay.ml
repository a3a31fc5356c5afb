(* The traced run: `emcheck analyze` replayed in this process by calling
   each layer's public functions in the CLI's order, with the CLI's
   default flags (fused engine, no audit, top 10, JSON report), each
   call wrapped in a span. It writes the same JSON report as the CLI, so
   its verdicts are checked by the same code, and its layer times are
   comparable with the CLI's wall time.

   [run] belongs in a fresh process (`e2e.exe replay`): the per-layer
   VmHWM deltas and GC behaviour are only meaningful from a clean heap,
   as the CLI starts with. *)

module M = Em_core.Material
module U = Em_core.Units
module Im = Em_core.Immortality
module Dg = Em_core.Diag
module Flow = Emflow.Em_flow
module Ex = Emflow.Extract
module Var = Emflow.Variation
module Rp = Emflow.Report
module J = Emflow.Json_out

type cost = { wall_s : float; cpu_s : float; alloc_mw : float; hwm_mb : float }

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Run one layer call inside a span and measure it. CPU time is
   process-wide, so it includes worker domains; the GC counters are the
   calling domain's only, so [alloc_mw] is meaningful for sequential
   layers alone. *)
let measure spans name f =
  let hwm0 = Proc.self_hwm_kb () in
  let cpu0 = cpu_now () and words0 = allocated_words () in
  let t0 = Unix.gettimeofday () in
  let x = Spans.with_span spans name f in
  let wall_s = Unix.gettimeofday () -. t0 in
  ( x,
    {
      wall_s;
      cpu_s = cpu_now () -. cpu0;
      alloc_mw = (allocated_words () -. words0) /. 1e6;
      hwm_mb = float_of_int (Proc.self_hwm_kb () - hwm0) /. 1024.;
    } )

let diag_of_finding (f : Spice.Checker.finding) =
  let severity =
    match f.Spice.Checker.severity with
    | Spice.Checker.Warning -> Dg.Warning
    | Spice.Checker.Error -> Dg.Error
  in
  Dg.make severity ~code:f.Spice.Checker.code f.Spice.Checker.message

(* The indices `emcheck analyze` leaves out of its ancillary reports. *)
let failed_indices (r : Flow.result) =
  List.filter_map
    (fun (d : Dg.t) ->
      match d.Dg.source with
      | Dg.Structure { index; _ }
        when d.Dg.severity = Dg.Error
             && not (String.equal d.Dg.code "audit-residual") ->
        Some index
      | _ -> None)
    r.Flow.diags

let endangered_table ~material ~top structures =
  let ranked =
    structures
    |> List.map (fun es -> (es, Im.check material es.Ex.structure))
    |> List.sort (fun (_, a) (_, b) -> compare (Im.margin a) (Im.margin b))
  in
  let table =
    Rp.create [ "layer"; "segments"; "peak MPa"; "margin MPa"; "at node" ]
  in
  List.iteri
    (fun i (es, report) ->
      if i < top then
        Rp.add_row table
          [
            Printf.sprintf "M%d" es.Ex.layer_level;
            Rp.int_cell (Em_core.Structure.num_segments es.Ex.structure);
            Printf.sprintf "%.2f" (U.pa_to_mpa report.Im.max_stress);
            Printf.sprintf "%+.2f" (U.pa_to_mpa (Im.margin report));
            es.Ex.node_names.(report.Im.max_node);
          ])
    ranked;
  table

type result = {
  metrics : (string * float) list; (* per-layer metric name, value *)
  spans : Spans.span list;
}

(* Replay [w] on [deck] and write its JSON report to [json]. With [j1],
   the parallel layers are re-run once more with one job after the
   replay, for their speed-up. *)
let run (w : Workload.t) ~seed ~jobs ~j1 ~deck ~json =
  let spans = Spans.create ~workload:w.Workload.name in
  let metrics = ref [] in
  let add name v = metrics := (name, v) :: !metrics in
  let add_cost layer c ~cpu ~alloc ~hwm =
    add (layer ^ ".wall_s") c.wall_s;
    if cpu then add (layer ^ ".cpu_s") c.cpu_s;
    if alloc then add (layer ^ ".alloc_mw") c.alloc_mw;
    if hwm then add (layer ^ ".hwm_delta_mb") c.hwm_mb
  in
  (* `emcheck analyze` arms the flight recorder for the whole run. *)
  Obs.Flight.set_enabled true;
  let material = M.with_thermal_stress M.cu_dac21 (U.mpa 0.) in
  let tech = Workload.tech w in
  let spec =
    Option.map
      (fun n ->
        { Var.default_spec with Var.samples = n; seed = Int64.of_int seed })
      w.Workload.samples
  in
  let compacts =
    Spans.with_span spans "run" @@ fun () ->
    let netlist, c =
      measure spans "spice.parser" (fun () ->
          let n = Spice.Parser.parse_file deck in
          Format.printf "%a@." Spice.Netlist.pp_stats n;
          n)
    in
    add_cost "spice.parser" c ~cpu:false ~alloc:true ~hwm:true;
    let findings, c =
      measure spans "spice.checker" (fun () ->
          let f = Spice.Checker.check netlist in
          List.iter (Format.printf "%a@." Spice.Checker.pp_finding) f;
          f)
    in
    add_cost "spice.checker" c ~cpu:false ~alloc:false ~hwm:false;
    add "spice.checker.findings" (float_of_int (List.length findings));
    if Spice.Checker.errors findings <> [] then failwith "netlist fails lint";
    let sol, c =
      measure spans "spice.mna" (fun () ->
          let s = Spice.Mna.solve netlist in
          Format.printf "DC solve: %d CG iterations, residual %.2e@."
            s.Spice.Mna.cg_iterations s.Spice.Mna.residual;
          s)
    in
    add_cost "spice.mna" c ~cpu:true ~alloc:true ~hwm:true;
    let iterations = sol.Spice.Mna.cg_iterations in
    add "spice.mna.iterations" (float_of_int iterations);
    add "spice.mna.residual" sol.Spice.Mna.residual;
    add "spice.mna.ns_per_node_iter"
      (c.wall_s *. 1e9
      /. float_of_int (Spice.Netlist.num_nodes netlist * max 1 iterations));
    let pipeline = Emflow.Pipeline.create () in
    let compacts, c =
      measure spans "flow.extract" (fun () ->
          Emflow.Pipeline.run pipeline "extract" (fun () ->
              Ex.extract_compact ~tech sol))
    in
    add_cost "flow.extract" c ~cpu:false ~alloc:true ~hwm:true;
    let r, c =
      measure spans "flow.em_flow" (fun () ->
          let r = Flow.run_on_compact ~material ~jobs ~pipeline compacts in
          Format.printf "%a@.@." Flow.pp_summary r;
          r)
    in
    add_cost "flow.em_flow" c ~cpu:true ~alloc:false ~hwm:false;
    add "flow.em_flow.segments_per_s"
      (float_of_int r.Flow.num_segments /. c.wall_s);
    add "flow.em_flow.failed_structures"
      (float_of_int (Flow.failed_structures r));
    let fp = r.Flow.counts.Em_core.Classify.fp in
    let structures, report1 =
      measure spans "flow.report" (fun () ->
          let failed = failed_indices r in
          let structures =
            List.filteri (fun i _ -> not (List.mem i failed)) compacts
            |> List.map Ex.boxed_view
          in
          print_string "Per-layer breakdown:\n";
          Rp.print
            (Emflow.Layer_report.to_table
               (Emflow.Layer_report.analyze ~material structures));
          print_string "Most endangered structures:\n";
          Rp.print (endangered_table ~material ~top:10 structures);
          if fp > 0 then
            Printf.printf
              "WARNING: the traditional Blech filter would clear %d mortal \
               segments.\n"
              fp;
          structures)
    in
    let var =
      Option.map
        (fun spec ->
          let vr, c =
            measure spans "flow.variation" (fun () ->
                let vr = Var.run_compact ~material ~jobs spec compacts in
                Rp.print (Var.to_table vr.Var.stats);
                vr)
          in
          add_cost "flow.variation" c ~cpu:true ~alloc:false ~hwm:false;
          add "flow.variation.segment_samples_per_s"
            (float_of_int
               (Ex.total_compact_segments compacts * spec.Var.samples)
            /. c.wall_s);
          add "flow.variation.degenerate_samples"
            (float_of_int
               (List.fold_left
                  (fun acc (s : Var.structure_stats) ->
                    acc + s.Var.samples_failed)
                  0 vr.Var.stats));
          vr)
        spec
    in
    let (), report2 =
      measure spans "flow.report" (fun () ->
          let blech =
            if fp > 0 then
              [
                Dg.warning ~code:"blech-false-positive"
                  (Printf.sprintf
                     "the traditional Blech filter would clear %d mortal \
                      segments"
                     fp);
              ]
            else []
          in
          let diags =
            List.map diag_of_finding findings
            @ r.Flow.diags @ blech
            @ match var with Some vr -> vr.Var.diags | None -> []
          in
          let doc =
            J.Obj
              ([
                 ("netlist", J.String deck);
                 ("diagnostics", J.of_diags diags);
                 ("flow", J.of_flow_result r);
                 ( "layers",
                   J.of_layer_stats
                     (Emflow.Layer_report.analyze ~material structures) );
                 ( "fix_plan",
                   J.of_fixer_plan (Emflow.Fixer.plan ~material structures) );
               ]
              @
              match var with
              | Some vr -> [ ("variation", J.of_variation vr) ]
              | None -> [])
          in
          let oc = open_out json in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () -> J.to_channel oc doc))
    in
    add "flow.report.wall_s" (report1.wall_s +. report2.wall_s);
    add "flow.report.alloc_mw" (report1.alloc_mw +. report2.alloc_mw);
    compacts
  in
  let all = Spans.spans spans in
  let root = List.find (fun s -> s.Spans.name = "run") all in
  let traced = Spans.duration_us root /. 1e6 in
  (* The harness divides both by the next CLI run's wall time. *)
  let layers = traced -. (Spans.self_us all root /. 1e6) in
  add "run.traced_wall_s" traced;
  add "run.layer_sum_s" layers;
  if j1 then begin
    (* Speed-up of each parallel layer over one job, same inputs. *)
    let speedup layer f =
      let t0 = Unix.gettimeofday () in
      ignore (Spans.with_span spans (layer ^ ".j1") f);
      add (layer ^ ".speedup_vs_j1")
        ((Unix.gettimeofday () -. t0) /. Spans.total_s all layer)
    in
    speedup "flow.em_flow" (fun () ->
        ignore (Flow.run_on_compact ~material ~jobs:1 compacts));
    Option.iter
      (fun spec ->
        speedup "flow.variation" (fun () ->
            ignore (Var.run_compact ~material ~jobs:1 spec compacts)))
      spec
  end;
  { metrics = List.rev !metrics; spans = Spans.spans spans }

let result_to_json r =
  J.Obj
    [
      ("metrics", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) r.metrics));
      ("spans", J.List (List.map Spans.to_json r.spans));
    ]

let result_of_json doc =
  let module Ji = Emflow.Json_in in
  match (Ji.member "metrics" doc, Option.bind (Ji.member "spans" doc) Ji.list_value) with
  | Some (J.Obj kvs), Some spans ->
    Some
      {
        metrics =
          List.filter_map
            (fun (k, v) -> Option.map (fun x -> (k, x)) (Ji.number v))
            kvs;
        spans = List.filter_map Spans.of_json spans;
      }
  | _ -> None

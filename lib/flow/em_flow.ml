module M = Em_core.Material
module Ss = Em_core.Steady_state
module Cc = Em_core.Compact
module Cl = Em_core.Classify
module Dg = Em_core.Diag
module Au = Em_core.Audit
module Maxpath = Em_core.Baseline_maxpath

type segment_record = {
  layer : int;
  length : float;
  j : float;
  stress_tail : float;
  stress_head : float;
  blech_immortal : bool;
  exact_immortal : bool;
  maxpath_immortal : bool;
}

type structure_stat = {
  st_layer : int;
  st_nodes : int;
  st_segments : int;
  st_ok : bool;
  st_immortal : bool;
  st_max_stress : float;
  st_peak_node : int;
  st_margin : float;
  st_solve_s : float;
}

type result = {
  counts : Cl.counts;
  maxpath_counts : Cl.counts option;
  segments : segment_record array;
  num_structures : int;
  num_segments : int;
  diags : Dg.t list;
  audits : Au.t option array;
  structure_stats : structure_stat array;
  solve_time : float;
  extract_time : float;
  analysis_time : float;
  stages : Pipeline.stage list;
}

(* Audit-residual diagnostics can be errors under a strict audit, but
   the structure's analysis still completed — only analysis-skip errors
   count as failed. *)
let is_skip_error (d : Dg.t) =
  d.Dg.severity = Dg.Error && not (String.equal d.Dg.code "audit-residual")

let failed_structures r =
  List.length (List.filter is_skip_error r.diags)

(* Flow-level telemetry handles. All updates sit behind the global
   enabled flags (one atomic load + branch each when off). *)
let structures_analyzed =
  Obs.Metrics.counter ~help:"EM structures analyzed successfully"
    "em_structures_analyzed_total"

let structures_failed =
  Obs.Metrics.counter
    ~help:"EM structures whose analysis raised and was fault-isolated"
    "em_structures_failed_total"

let segments_classified verdict =
  Obs.Metrics.counter
    ~labels:[ ("verdict", verdict) ]
    ~help:"EM segments classified by the exact immortality test"
    "em_segments_classified_total"

let segments_immortal = segments_classified "immortal"
let segments_mortal = segments_classified "mortal"

(* Per-structure solve latencies sit well below the generic latency
   ladder's first bound (a compact solve of a few hundred segments runs
   in hundreds of nanoseconds), so the buckets start sub-microsecond. *)
let structure_solve_seconds =
  Obs.Metrics.histogram
    ~buckets:[| 1e-7; 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1. |]
    ~help:"Per-structure analysis latency (solve + segment verdicts)"
    "em_structure_solve_seconds"

let gc_gauge which =
  Obs.Metrics.gauge
    ~help:"GC words allocated across the last run's pipeline stages"
    ("em_gc_" ^ which ^ "_words")

let gc_minor = gc_gauge "minor"
let gc_major = gc_gauge "major"
let gc_promoted = gc_gauge "promoted"

(* Structures with at least this many nodes take the BFS-reordered
   solve. Below it a structure fits the cache and the permutation setup
   (CSR rebuild + result gather) costs more than it saves. DESIGN §8
   has the measurements. *)
let reorder_min_nodes = 16_384

(* Numerical-audit configuration ([None] = auditing off, the default:
   the per-structure cost is then one [Option] branch). *)
type audit_config = {
  audit_tol : float;
  audit_top_k : int;
  audit_strict : bool;
}

let default_audit_config =
  {
    audit_tol = Au.default_tol;
    audit_top_k = Au.default_top_k;
    audit_strict = false;
  }

(* Per-structure analysis on the columnar representation: one
   [solve_compact] through the worker's workspace, then the Blech filter
   and the exact endpoint test read the flat columns directly. The
   arithmetic matches [Immortality.check] + [Blech.filter] on the boxed
   path expression for expression, so the confusion counts are
   bit-identical.

   Large structures take the cache-aware reordered solve, which is
   bit-identical to the plain [solve_compact] and returns results in
   original node ids, so the verdicts cannot depend on which path ran. *)
let analyze_one material with_maxpath ~audit ~index ws
    (cs : Extract.compact_structure) =
  let c = cs.Extract.compact in
  let reordered = Cc.num_nodes c >= reorder_min_nodes in
  let sol =
    if reordered then Ss.solve_compact_reordered ~ws material c
    else Ss.solve_compact ~ws material c
  in
  (* The audit must run before the finiteness scan can throw and, more
     importantly, before the next solve through the same workspace
     overwrites the aliased solution arrays. *)
  let audit_record =
    match audit with
    | None -> None
    | Some cfg ->
      let a =
        Au.check ~index ~layer:cs.Extract.cs_layer_level
          ~top_k:cfg.audit_top_k
          ~solver:(if reordered then "reordered" else "compact")
          material c sol
      in
      Au.publish ~tol:cfg.audit_tol a;
      Some a
  in
  let threshold = M.effective_critical_stress material in
  let jl_crit = M.jl_crit material in
  let stress = sol.Ss.node_stress in
  (* [solve_compact] rejects a vanished volume; inf from overflowing
     currents or geometry can still slip through, and a non-finite
     stress must become a diagnostic rather than a silent verdict. *)
  Array.iter
    (fun sigma ->
      if not (Float.is_finite sigma) then
        raise
          (Ss.Degenerate
             (Printf.sprintf "non-finite node stress %g" sigma)))
    stress;
  let node_immortal i = stress.(i) < threshold in
  let maxpath =
    if with_maxpath then Maxpath.segment_immortal material (Cc.to_structure c)
    else [||]
  in
  let records =
    Array.init (Cc.num_segments c) (fun k ->
        let l = c.Cc.length.(k) in
        let j = c.Cc.j.(k) in
        let tail = c.Cc.tail.(k) and head = c.Cc.head.(k) in
        let exact = node_immortal tail && node_immortal head in
        {
          layer = cs.Extract.cs_layer_level;
          length = l;
          j;
          stress_tail = stress.(tail);
          stress_head = stress.(head);
          blech_immortal = Float.abs j *. l <= jl_crit;
          exact_immortal = exact;
          maxpath_immortal = (if with_maxpath then maxpath.(k) else exact);
        })
  in
  (* Cheap per-structure aggregate for the run ledger and the reports:
     one O(nodes) scan for the peak and the first node that reaches it
     (as [Steady_state.max_stress] picks it). The signed margin is
     threshold - peak stress, positive iff every segment of the
     structure is exactly immortal. *)
  let max_stress = ref neg_infinity and peak = ref 0 in
  Array.iteri
    (fun i sigma ->
      if sigma > stress.(!peak) then peak := i;
      max_stress := Float.max !max_stress sigma)
    stress;
  let max_stress = !max_stress in
  let stat =
    {
      st_layer = cs.Extract.cs_layer_level;
      st_nodes = Cc.num_nodes c;
      st_segments = Cc.num_segments c;
      st_ok = true;
      st_immortal = max_stress < threshold;
      st_max_stress = max_stress;
      st_peak_node = !peak;
      st_margin = threshold -. max_stress;
      st_solve_s = 0.;
    }
  in
  (records, audit_record, stat)

(* Telemetry wrapper around [analyze_one]: the whole per-structure unit
   of work becomes a "structure" span on the worker's track (nested under
   its "parallel.chunk" span) and one observation in the latency
   histogram. The trace branch is guarded explicitly so the attrs list
   is never allocated when tracing is off. *)
let analyze_traced material with_maxpath ~audit ws index
    (cs : Extract.compact_structure) =
  let run () =
    Obs.Metrics.time structure_solve_seconds (fun () ->
        analyze_one material with_maxpath ~audit ~index ws cs)
  in
  let traced () =
    if Obs.Trace.enabled () then
      let c = cs.Extract.compact in
      Obs.Trace.with_span
        ~attrs:
          [
            ("structure", Obs.Trace.Int index);
            ("layer", Obs.Trace.Int cs.Extract.cs_layer_level);
            ("nodes", Obs.Trace.Int (Cc.num_nodes c));
            ("segments", Obs.Trace.Int (Cc.num_segments c));
          ]
        "structure" run
    else run ()
  in
  (* Live progress counts finished structures, successful or
     fault-isolated, so /healthz reaches done = total even on decks
     with failing structures. *)
  let wall0 = Unix.gettimeofday () in
  match traced () with
  | records, audit_record, stat ->
    Obs.Metrics.inc structures_analyzed;
    Obs.Runtime.structure_done ();
    (records, audit_record, { stat with st_solve_s = Unix.gettimeofday () -. wall0 })
  | exception e ->
    Obs.Runtime.structure_done ();
    raise e

(* Fault isolation: one structure whose analysis threw (degenerate
   geometry, disconnected columns, a solver bug) is recorded as an error
   diagnostic naming the offender, and every other structure's analysis
   proceeds — and stays bit-identical to a run without the offender,
   because per-slot capture in [map_local_result] never aborts healthy
   slots. *)
let diag_of_failure i (cs : Extract.compact_structure) e =
  let code =
    match e with
    | Ss.Degenerate _ -> "degenerate-structure"
    | Invalid_argument _ -> "invalid-structure"
    | _ -> "analysis-exception"
  in
  let detail =
    match e with
    | Ss.Degenerate m -> m
    | Failure m -> m
    | e -> Printexc.to_string e
  in
  Dg.error
    ~source:(Dg.Structure { index = i; layer = cs.Extract.cs_layer_level })
    ~code
    (Printf.sprintf "analysis skipped (%d nodes, %d segments): %s"
       (Cc.num_nodes cs.Extract.compact)
       (Cc.num_segments cs.Extract.compact)
       detail)

let stage_cpu p name =
  List.fold_left
    (fun acc (s : Pipeline.stage) ->
      if String.equal s.Pipeline.name name then acc +. s.Pipeline.cpu_s else acc)
    0. (Pipeline.stages p)

(* Analyze + classify on already-columnar structures, recording stages
   into [p]. [analysis_time] keeps the historical convention: wall time
   when explicitly parallel (CPU time would double-count the workers),
   CPU time otherwise. *)
let run_on_compact ?(material = M.cu_dac21) ?(with_maxpath = false) ?jobs
    ?audit ?pipeline:(p = Pipeline.create ()) compacts =
  let t0 = Sys.time () in
  let wall0 = Unix.gettimeofday () in
  let compacts_arr = Array.of_list compacts in
  let nstruct = Array.length compacts_arr in
  Obs.Runtime.set_structures_total nstruct;
  (match audit with
  | Some cfg -> Au.Live.reset ~tol:cfg.audit_tol
  | None -> ());
  let slots =
    (* Map over indices rather than the structures themselves so each
       worker can attach the structure's position to its span. Work is
       decomposed per connected component (each structure is one), and
       per-slot capture isolates a failing structure from the rest. *)
    Pipeline.run p "analyze" (fun () ->
        Numerics.Parallel.map_local_result ?jobs
          ~local:(fun () -> Ss.Workspace.create ())
          (fun ws i ->
            analyze_traced material with_maxpath ~audit ws i compacts_arr.(i))
          (Array.init nstruct Fun.id))
  in
  let diags = ref [] in
  let audits = Array.make nstruct None in
  let failed_stat i =
    let c = compacts_arr.(i).Extract.compact in
    {
      st_layer = compacts_arr.(i).Extract.cs_layer_level;
      st_nodes = Cc.num_nodes c;
      st_segments = Cc.num_segments c;
      st_ok = false;
      st_immortal = false;
      st_max_stress = Float.nan;
      st_peak_node = -1;
      st_margin = Float.nan;
      st_solve_s = 0.;
    }
  in
  let stats = Array.init nstruct failed_stat in
  let per_structure =
    Array.mapi
      (fun i slot ->
        match slot with
        | Ok (records, audit_record, stat) ->
          audits.(i) <- audit_record;
          stats.(i) <- stat;
          records
        | Error (e, _bt) ->
          Obs.Metrics.inc structures_failed;
          let d = diag_of_failure i compacts_arr.(i) e in
          Obs.Log.warn (fun () ->
              ( "structure analysis failed; fault-isolated",
                [
                  ("structure", Obs.Trace.Int i);
                  ( "layer",
                    Obs.Trace.Int compacts_arr.(i).Extract.cs_layer_level );
                  ("error", Obs.Trace.String (Printexc.to_string e));
                ] ));
          diags := d :: !diags;
          [||])
      slots
  in
  (* Audit residuals out of tolerance become diagnostics of their own —
     warnings normally, errors under a strict audit — in structure
     order, after the fault-isolation errors. *)
  (match audit with
  | Some cfg ->
    Array.iter
      (function
        | Some a -> (
          match
            Au.violation_diag ~strict:cfg.audit_strict ~tol:cfg.audit_tol a
          with
          | Some d -> diags := d :: !diags
          | None -> ())
        | None -> ())
      audits
  | None -> ());
  let diags = List.rev !diags in
  let counts, maxpath_counts, segments =
    Pipeline.run p "classify" (fun () ->
        let counts = ref Cl.empty in
        let maxpath_counts = ref Cl.empty in
        let n_immortal = ref 0 and n_mortal = ref 0 in
        Array.iter
          (Array.iter (fun r ->
               if r.exact_immortal then incr n_immortal else incr n_mortal;
               counts :=
                 Cl.add_pair !counts ~predicted_immortal:r.blech_immortal
                   ~actual_immortal:r.exact_immortal;
               if with_maxpath then
                 maxpath_counts :=
                   Cl.add_pair !maxpath_counts
                     ~predicted_immortal:r.maxpath_immortal
                     ~actual_immortal:r.exact_immortal))
          per_structure;
        Obs.Metrics.inc_by segments_immortal !n_immortal;
        Obs.Metrics.inc_by segments_mortal !n_mortal;
        let segments = Array.concat (Array.to_list per_structure) in
        (!counts, (if with_maxpath then Some !maxpath_counts else None), segments))
  in
  let analysis_time =
    match jobs with
    | Some j when j > 1 -> Unix.gettimeofday () -. wall0
    | _ -> Sys.time () -. t0
  in
  if Obs.Metrics.is_enabled () then begin
    let sum f =
      List.fold_left (fun acc s -> acc +. f s) 0. (Pipeline.stages p)
    in
    Obs.Metrics.set_gauge gc_minor (sum (fun s -> s.Pipeline.minor_words));
    Obs.Metrics.set_gauge gc_major (sum (fun s -> s.Pipeline.major_words));
    Obs.Metrics.set_gauge gc_promoted (sum (fun s -> s.Pipeline.promoted_words))
  end;
  let r =
    {
      counts;
      maxpath_counts;
      segments;
      num_structures = nstruct;
      num_segments = Array.length segments;
      diags;
      audits;
      structure_stats = stats;
      solve_time = stage_cpu p "solve";
      extract_time = stage_cpu p "extract";
      analysis_time;
      stages = Pipeline.stages p;
    }
  in
  Obs.Log.info (fun () ->
      ( "EM analysis run complete",
        [
          ("structures", Obs.Trace.Int r.num_structures);
          ("segments", Obs.Trace.Int r.num_segments);
          ("failed_structures", Obs.Trace.Int (failed_structures r));
          ("analysis_s", Obs.Trace.Float r.analysis_time);
        ] ));
  r

let ranking r =
  let stats = r.structure_stats in
  List.init (Array.length stats) Fun.id
  |> List.filter (fun i -> stats.(i).st_ok)
  |> List.stable_sort (fun a b -> Float.compare stats.(a).st_margin stats.(b).st_margin)

let mna_diags (sol : Spice.Mna.solution) =
  let r = sol.Spice.Mna.residual in
  if r <= Spice.Mna.max_residual then []
  else
    [
      Dg.error ~code:"mna-residual"
        (Printf.sprintf
           "DC solve relative residual %.3g exceeds %g: node voltages and \
            branch currents are not trustworthy"
           r Spice.Mna.max_residual);
    ]

(* ------------------------------------------------------------------ *)
(* Deck -> verdict: the one stage order every caller runs              *)

type deck = {
  netlist : Spice.Netlist.t;
  parse_errors : Spice.Parser.line_error list;
  findings : Spice.Checker.finding list;
  pipeline : Pipeline.t;
}

type verdict = {
  solution : Spice.Mna.solution;
  compacts : Extract.compact_structure list;
  result : result;
  diags : Dg.t list;
}

exception Lint_abort of deck

let parse_recoveries =
  Obs.Metrics.counter ~help:"Malformed netlist lines skipped in recovery mode"
    "em_parse_recoveries_total"

let diag_of_parse_error (e : Spice.Parser.line_error) =
  Dg.error
    ~source:(Dg.Netlist_line e.Spice.Parser.line)
    ~code:"parse-error" e.Spice.Parser.message

let diag_of_finding (f : Spice.Checker.finding) =
  let severity =
    match f.Spice.Checker.severity with
    | Spice.Checker.Warning -> Dg.Warning
    | Spice.Checker.Error -> Dg.Error
  in
  Dg.make severity ~code:f.Spice.Checker.code f.Spice.Checker.message

let load_deck ?jobs ?keep_going path =
  let pipeline = Pipeline.create () in
  let netlist, parse_errors =
    Pipeline.run pipeline "parse" (fun () ->
        match keep_going with
        | Some max_errors ->
          Spice.Parser.parse_file_tolerant ?jobs ~max_errors path
        | None -> (Spice.Parser.parse_file ?jobs path, []))
  in
  Obs.Metrics.inc_by parse_recoveries (List.length parse_errors);
  let findings =
    Pipeline.run pipeline "lint" (fun () -> Spice.Checker.check netlist)
  in
  let deck = { netlist; parse_errors; findings; pipeline } in
  if Option.is_none keep_going && Spice.Checker.errors findings <> [] then
    raise (Lint_abort deck);
  deck

let of_netlist netlist =
  { netlist; parse_errors = []; findings = []; pipeline = Pipeline.create () }

let analyze_deck ?material ?with_maxpath ?jobs ?audit ~tech deck =
  let p = deck.pipeline in
  let solution =
    Pipeline.run p "solve" (fun () -> Spice.Mna.solve deck.netlist)
  in
  let compacts =
    Pipeline.run p "extract" (fun () -> Extract.extract_compact ~tech solution)
  in
  let result =
    run_on_compact ?material ?with_maxpath ?jobs ?audit ~pipeline:p compacts
  in
  let diags =
    List.map diag_of_parse_error deck.parse_errors
    @ List.map diag_of_finding deck.findings
    @ mna_diags solution @ result.diags
  in
  { solution; compacts; result; diags }

let run_deck ?material ?with_maxpath ?jobs ?audit ?keep_going ~tech path =
  let deck = load_deck ?jobs ?keep_going path in
  (deck, analyze_deck ?material ?with_maxpath ?jobs ?audit ~tech deck)

let run ?material ?with_maxpath ?jobs ?audit (grid : Pdn.Grid_gen.generated) =
  let v =
    analyze_deck ?material ?with_maxpath ?jobs ?audit
      ~tech:grid.Pdn.Grid_gen.tech (of_netlist grid.Pdn.Grid_gen.netlist)
  in
  v.result

let refusal ~path = function
  | Spice.Parser.Parse_error { line; message } ->
    Some (Printf.sprintf "%s:%d: %s" path line message)
  | Spice.Mna.Unsupported msg -> Some ("unsupported netlist: " ^ msg)
  | Lint_abort deck ->
    let errors = Spice.Checker.errors deck.findings in
    let codes = List.map (fun f -> f.Spice.Checker.code) errors in
    Some (Printf.sprintf "netlist fails lint (%s)" (String.concat ", " codes))
  | _ -> None

let pp_summary ppf r =
  Format.fprintf ppf
    "@[<v>%d structures, %d segments@,Blech vs exact: %a@,\
     solve %.2fs, extract %.2fs, EM analysis %.2fs@]"
    r.num_structures r.num_segments Cl.pp r.counts r.solve_time r.extract_time
    r.analysis_time;
  (match r.maxpath_counts with
  | Some c -> Format.fprintf ppf "@,max-path vs exact: %a" Cl.pp c
  | None -> ());
  List.iter
    (fun (s : Pipeline.stage) ->
      Format.fprintf ppf "@,  %a" Pipeline.pp_stage s)
    r.stages;
  if r.diags <> [] then begin
    Format.fprintf ppf "@,diagnostics: %a" Dg.pp_summary r.diags;
    List.iter (fun d -> Format.fprintf ppf "@,  %a" Dg.pp d) r.diags
  end

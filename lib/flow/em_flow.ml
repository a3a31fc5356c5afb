module M = Em_core.Material
module Ss = Em_core.Steady_state
module St = Em_core.Structure
module Cl = Em_core.Classify
module Dg = Em_core.Diag
module Au = Em_core.Audit
module Maxpath = Em_core.Baseline_maxpath

type structure_stat = {
  st_layer : int;
  st_segments : int;
  st_ok : bool;
  st_immortal : bool;
  st_max_stress : float;
  st_peak_node : int;
  st_margin : float;
}

type result = {
  counts : Cl.counts;
  maxpath_counts : Cl.counts option;
  node_stress : float array array;
  verdicts : Bytes.t array;
  num_structures : int;
  num_segments : int;
  diags : Dg.t list;
  audits : Au.t option array;
  structure_stats : structure_stat array;
  stages : Pipeline.stage list;
  peak_rss_mb : float option;
}

let blech_bit = 1
let exact_bit = 2
let maxpath_bit = 4

let segment_verdict r i k = Char.code (Bytes.get r.verdicts.(i) k)

(* Audit-residual diagnostics can be errors under a strict audit, but
   the structure's analysis still completed — only analysis-skip errors
   count as failed. *)
let is_skip_error (d : Dg.t) =
  d.Dg.severity = Dg.Error && not (String.equal d.Dg.code "audit-residual")

let failed_structures r =
  List.length (List.filter is_skip_error r.diags)

let stage_wall r name =
  List.fold_left
    (fun acc (s : Pipeline.stage) ->
      if String.equal s.Pipeline.name name then acc +. s.Pipeline.wall_s
      else acc)
    0. r.stages

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

(* What one structure's analysis hands back: its node stresses (copied
   out of the worker's workspace), one byte of verdict bits per segment,
   and the confusion counts summed over its segments, so the classify
   stage only adds per-structure totals. *)
type analyzed = {
  an_stress : float array;
  an_verdicts : Bytes.t;
  an_counts : Cl.counts;
  an_maxpath_counts : Cl.counts;
  an_audit : Au.t option;
  an_stat : structure_stat;
}

(* Confusion counts from a histogram indexed by (predicted, actual) bits:
   bit 0 the prediction, bit 1 the exact verdict. *)
let counts_of_hist h = { Cl.tn = h.(0); fp = h.(1); fn = h.(2); tp = h.(3) }

(* Per-structure analysis: one [Steady_state.solve] through the
   worker's workspace, then the Blech filter and the exact endpoint
   test read the flat columns directly. The classification matches
   [Immortality.check] + [Blech.filter] expression for expression (both
   solve through [Steady_state.solve]), so the confusion counts are
   bit-identical. *)
let analyze_one material with_maxpath ~audit ~index ws
    (cs : Extract.compact_structure) =
  let c = cs.Extract.compact in
  let sol = Ss.solve ~ws material c in
  (* The audit must run before the finiteness scan can throw and, more
     importantly, before the next solve through the same workspace
     overwrites the aliased solution arrays. *)
  let audit_record =
    match audit with
    | None -> None
    | Some cfg ->
      Some
        (Au.check ~index ~layer:cs.Extract.cs_layer_level
           ~top_k:cfg.audit_top_k material c sol)
  in
  let threshold = M.effective_critical_stress material in
  let jl_crit = M.jl_crit material in
  let stress = sol.Ss.node_stress in
  (* [Steady_state.solve] rejects a vanished volume; inf from overflowing
     currents or geometry can still slip through, and a non-finite
     stress must become a diagnostic rather than a silent verdict. *)
  Array.iter
    (fun sigma ->
      if not (Float.is_finite sigma) then
        raise
          (Ss.Degenerate
             (Printf.sprintf "non-finite node stress %g" sigma)))
    stress;
  let maxpath =
    if with_maxpath then Maxpath.segment_immortal material c
    else [||]
  in
  let nseg = St.num_segments c in
  let verdicts = Bytes.create nseg in
  let hist = Array.make 4 0 and maxpath_hist = Array.make 4 0 in
  for k = 0 to nseg - 1 do
    let exact =
      stress.(c.St.tail.(k)) < threshold && stress.(c.St.head.(k)) < threshold
    in
    let blech = Float.abs c.St.j.(k) *. c.St.length.(k) <= jl_crit in
    let mp = if with_maxpath then maxpath.(k) else exact in
    let bits =
      (if blech then blech_bit else 0)
      lor (if exact then exact_bit else 0)
      lor if mp then maxpath_bit else 0
    in
    (* [blech_bit] = 1 and [exact_bit] = 2 make the low bits the
       histogram index; the max-path bit moves down to bit 0 for its own. *)
    let i = bits land 3 and mi = (bits land exact_bit) lor (bits lsr 2) in
    hist.(i) <- hist.(i) + 1;
    maxpath_hist.(mi) <- maxpath_hist.(mi) + 1;
    Bytes.unsafe_set verdicts k (Char.unsafe_chr bits)
  done;
  (* Cheap per-structure aggregate for the reports: one O(nodes) scan
     for the peak and the first node that reaches it (as
     [Steady_state.max_stress] picks it). The signed margin is
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
      st_segments = nseg;
      st_ok = true;
      st_immortal = max_stress < threshold;
      st_max_stress = max_stress;
      st_peak_node = !peak;
      st_margin = threshold -. max_stress;
    }
  in
  {
    an_stress = Array.copy stress;
    an_verdicts = verdicts;
    an_counts = counts_of_hist hist;
    an_maxpath_counts = counts_of_hist maxpath_hist;
    an_audit = audit_record;
    an_stat = stat;
  }

(* Telemetry wrapper around [analyze_one]: the whole per-structure unit
   of work becomes a "structure" span on the worker's track (nested under
   its "parallel.chunk" span). The trace branch is guarded explicitly so
   the attrs list is never allocated when tracing is off. *)
let analyze_traced material with_maxpath ~audit ws index
    (cs : Extract.compact_structure) =
  let run () = analyze_one material with_maxpath ~audit ~index ws cs in
  if Obs.Trace.enabled () then
    let c = cs.Extract.compact in
    Obs.Trace.with_span
      ~attrs:
        [
          ("structure", Obs.Trace.Int index);
          ("layer", Obs.Trace.Int cs.Extract.cs_layer_level);
          ("nodes", Obs.Trace.Int (St.num_nodes c));
          ("segments", Obs.Trace.Int (St.num_segments c));
        ]
      "structure" run
  else run ()

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
       (St.num_nodes cs.Extract.compact)
       (St.num_segments cs.Extract.compact)
       detail)

(* Analyze + classify on already-columnar structures, recording stages
   into [p]. *)
let run_on_compact ?(material = M.cu_dac21) ?(with_maxpath = false) ?jobs
    ?audit ?pipeline:(p = Pipeline.create ()) compacts =
  let compacts_arr = Array.of_list compacts in
  let nstruct = Array.length compacts_arr in
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
      st_segments = St.num_segments c;
      st_ok = false;
      st_immortal = false;
      st_max_stress = Float.nan;
      st_peak_node = -1;
      st_margin = Float.nan;
    }
  in
  let stats = Array.init nstruct failed_stat in
  let node_stress = Array.make nstruct [||] in
  let verdicts = Array.make nstruct Bytes.empty in
  Array.iteri
    (fun i slot ->
      match slot with
      | Ok an ->
        audits.(i) <- an.an_audit;
        stats.(i) <- an.an_stat;
        node_stress.(i) <- an.an_stress;
        verdicts.(i) <- an.an_verdicts
      | Error (e, _bt) ->
        let d = diag_of_failure i compacts_arr.(i) e in
        Obs.Log.warn (fun () ->
            ( "structure analysis failed; fault-isolated",
              [
                ("structure", Obs.Trace.Int i);
                ( "layer",
                  Obs.Trace.Int compacts_arr.(i).Extract.cs_layer_level );
                ("error", Obs.Trace.String (Printexc.to_string e));
              ] ));
        diags := d :: !diags)
    slots;
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
  let counts, maxpath_counts, num_segments =
    Pipeline.run p "classify" (fun () ->
        let counts = ref Cl.empty and maxpath_counts = ref Cl.empty in
        let num_segments = ref 0 in
        Array.iter
          (function
            | Ok an ->
              counts := Cl.merge !counts an.an_counts;
              maxpath_counts := Cl.merge !maxpath_counts an.an_maxpath_counts;
              num_segments := !num_segments + Bytes.length an.an_verdicts
            | Error _ -> ())
          slots;
        ( !counts,
          (if with_maxpath then Some !maxpath_counts else None),
          !num_segments ))
  in
  let r =
    {
      counts;
      maxpath_counts;
      node_stress;
      verdicts;
      num_structures = nstruct;
      num_segments;
      diags;
      audits;
      structure_stats = stats;
      stages = Pipeline.stages p;
      peak_rss_mb = Option.map (fun m -> m.Pipeline.hwm_mb) (Pipeline.memory ());
    }
  in
  Obs.Log.info (fun () ->
      ( "EM analysis run complete",
        [
          ("structures", Obs.Trace.Int r.num_structures);
          ("segments", Obs.Trace.Int r.num_segments);
          ("failed_structures", Obs.Trace.Int (failed_structures r));
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
        let parsed =
          match keep_going with
          | Some max_errors -> Spice.Parser.parse_file_tolerant ?jobs ~max_errors path
          | None -> (Spice.Parser.parse_file ?jobs path, [])
        in
        (* The deck text and the scan's range columns and node tables
           are dead now; as after the solve, one collection returns them
           before the next stages allocate on top (DESIGN §13). *)
        Gc.full_major ();
        parsed)
  in
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
    Pipeline.run p "solve" (fun () ->
        let solution = Spice.Mna.solve ?jobs deck.netlist in
        (* The solve's orderings, factors and assembly scratch are dead
           now, but no major cycle would reclaim them before extraction
           and analysis allocate on top: one collection here returns
           them and lowers the run's peak (DESIGN §13). *)
        Gc.full_major ();
        solution)
  in
  let compacts =
    Pipeline.run p "extract" (fun () -> Extract.extract_compact ?jobs ~tech solution)
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
  Format.fprintf ppf "@[<v>%d structures, %d segments@,Blech vs exact: %a@]"
    r.num_structures r.num_segments Cl.pp r.counts;
  (match r.maxpath_counts with
  | Some c -> Format.fprintf ppf "@,max-path vs exact: %a" Cl.pp c
  | None -> ());
  List.iter
    (fun (s : Pipeline.stage) ->
      Format.fprintf ppf "@,  %a" Pipeline.pp_stage s)
    r.stages;
  Option.iter
    (fun mb -> Format.fprintf ppf "@,  %-10s %.1fMB peak rss" "process" mb)
    r.peak_rss_mb;
  if r.diags <> [] then begin
    Format.fprintf ppf "@,diagnostics: %a" Dg.pp_summary r.diags;
    List.iter (fun d -> Format.fprintf ppf "@,  %a" Dg.pp d) r.diags
  end

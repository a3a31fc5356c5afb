(* emcheck: EM immortality checking for power-grid netlists.

   Subcommands:
     analyze   parse a SPICE netlist, solve the DC operating point,
               extract per-layer structures and report immortality
     explain   one structure's audited margin and critical Blech path
     wire      check a single multi-segment wire given on the command line
     verify    check the DC solver against a golden solution file
     material  print the material model and derived constants

   analyze and explain run the same deck -> verdict stages
   (Em_flow.load_deck, then Em_flow.analyze_deck) and differ only in
   what they print.

   The netlist analysis assumes IBM-benchmark node naming
   (n<layer>_<x>_<y> with nm coordinates) and takes wire geometry from
   the selected technology's layer table. *)

open Cmdliner
module M = Em_core.Material
module U = Em_core.Units
module St = Em_core.Structure
module Im = Em_core.Immortality
module Cl = Em_core.Classify
module Flow = Emflow.Em_flow
module Rp = Emflow.Report

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)

let tech_arg =
  let techs =
    [ ("ibm", Pdn.Tech.ibm_like); ("28nm", Pdn.Tech.n28);
      ("45nm", Pdn.Tech.nangate45) ]
  in
  let tech_conv = Arg.enum techs in
  Arg.(
    value
    & opt tech_conv Pdn.Tech.ibm_like
    & info [ "t"; "tech" ] ~docv:"TECH"
        ~doc:"Technology for wire geometry: $(b,ibm), $(b,28nm) or $(b,45nm).")

let sigma_t_arg =
  Arg.(
    value
    & opt float 0.
    & info [ "thermal-stress" ] ~docv:"MPA"
        ~doc:"Thermal (CTE) stress offset in MPa, subtracted from the \
              critical stress.")

let temperature_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "temperature" ] ~docv:"K" ~doc:"Operating temperature in kelvin.")

let material_of ~sigma_t ~temperature =
  let m = M.with_thermal_stress M.cu_dac21 (U.mpa sigma_t) in
  match temperature with None -> m | Some t -> M.with_temperature m t

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains. The deck scan is cut into up to $(docv) line \
           ranges, one per domain (a deck under 512 KiB stays whole), and \
           the DC solve's independent nets (VDD, GND, ...), the \
           per-structure EM analysis and the Monte-Carlo samples are \
           shared among $(docv) domains. Results are identical at any \
           $(docv). Without it the scan runs on one domain and the solve \
           and analysis on every core.")

(* ------------------------------------------------------------------ *)
(* Telemetry plumbing (emcheck analyze)                                *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a hierarchical execution trace (pipeline stages, \
           per-structure spans, worker lanes) and write it to $(docv) in \
           Chrome trace-event JSON; open it in Perfetto \
           (https://ui.perfetto.dev) or chrome://tracing.")

let flight_dump_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight-dump" ] ~docv:"FILE"
        ~doc:
          "Write the full flight-recorder ring to $(docv) as JSON lines \
           when the run ends — on failure (an analysis error or a \
           non-zero exit, when the most recent events also go to \
           standard error) and on clean exits, so successful long runs \
           can archive their ring too.")

(* Failure path: show the most recent flight events on stderr and, when
   asked, persist the whole ring as JSON lines. *)
let dump_flight ~flight_dump () =
  let events = Obs.Flight.events () in
  if events <> [] then begin
    Printf.eprintf "--- flight recorder: last %d of %d events ---\n"
      (min 32 (List.length events))
      (List.length events);
    Obs.Flight.dump ~limit:32 stderr;
    flush stderr;
    match flight_dump with
    | None -> ()
    | Some path ->
      Out_channel.with_open_text path Obs.Flight.dump_json;
      Printf.eprintf "flight recorder dump (%d events) written to %s\n%!"
        (List.length events) path
  end

(* Clean-exit path: no stderr spew, but an explicitly requested
   --flight-dump archive is still written. *)
let archive_flight ~flight_dump () =
  match flight_dump with
  | None -> ()
  | Some path ->
    Out_channel.with_open_text path Obs.Flight.dump_json;
    Printf.printf "flight recorder dump (%d events) written to %s\n%!"
      (List.length (Obs.Flight.events ())) path

(* ------------------------------------------------------------------ *)
(* Numerical audit plumbing (emcheck analyze --audit, emcheck explain) *)

module Au = Em_core.Audit

let audit_arg =
  Arg.(
    value & flag
    & info [ "audit" ]
        ~doc:
          "Audit every structure's steady-state solution at run time: \
           check the physical conservation laws (Lemma 1 flux balance \
           per segment, Lemma 3 mass) against $(b,--audit-tol), report \
           the per-node current balance, and attach a signed immortality \
           margin with the top contributing segments of the critical \
           Blech path. \
           Residual violations become diagnostics; the aggregate is \
           embedded in the $(b,--json) report.")

let audit_tol_arg =
  Arg.(
    value
    & opt float Au.default_tol
    & info [ "audit-tol" ] ~docv:"REL"
        ~doc:
          "Relative tolerance for the audit residuals (flux and mass \
           conservation).")

let strict_audit_arg =
  Arg.(
    value & flag
    & info [ "strict-audit" ]
        ~doc:
          "Make audit-residual violations error diagnostics (non-zero \
           exit) instead of warnings.")

let audit_top_arg =
  Arg.(
    value
    & opt int Au.default_top_k
    & info [ "audit-top" ] ~docv:"K"
        ~doc:
          "Critical-path steps to keep per structure in the audit \
           attribution (largest stress contribution first).")

let audit_config_of ~audit ~audit_tol ~strict_audit ~audit_top =
  if not audit then None
  else begin
    if not (Float.is_finite audit_tol) || audit_tol < 0. then
      failwith "--audit-tol: expected a non-negative finite tolerance";
    if audit_top < 0 then failwith "--audit-top: expected a non-negative count";
    Some
      {
        Flow.audit_tol;
        audit_top_k = audit_top;
        audit_strict = strict_audit;
      }
  end

(* Checked before the deck is read, like the audit options. *)
let variation_spec_of ~variation ~mc_samples ~mc_seed =
  if not variation then None
  else begin
    if mc_samples < 1 then failwith "--samples: expected at least 1 sample";
    Some
      {
        Emflow.Variation.default_spec with
        Emflow.Variation.samples = mc_samples;
        seed = Int64.of_int mc_seed;
      }
  end

(* ------------------------------------------------------------------ *)
(* Profile plumbing (emcheck analyze --profile)                        *)

let profile_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile" ] ~docv:"FILE"
        ~doc:
          "Write the run's exact span profile to $(docv) as folded \
           stacks: every span's self-time (its duration minus its direct \
           children's) summed per lane and span path, in microseconds. \
           flamegraph.pl renders the file and https://www.speedscope.app \
           imports it. Implies span tracing for the run even without \
           $(b,--trace).")

(* Install the requested sinks; returns the trace buffer the caller
   exports once the run is over. --profile implies a trace: the profile
   is computed from its completed spans. *)
let start_telemetry ~trace_path ~profile_path =
  if Option.is_some trace_path || Option.is_some profile_path then begin
    let t = Obs.Trace.create () in
    Obs.Trace.enable t;
    Some t
  end
  else None

let export_profile ~profile_path trace =
  match (profile_path, trace) with
  | Some out, Some t ->
    Out_channel.with_open_text out (fun oc ->
        output_string oc
          (Obs.Profile.to_folded ~track_names:(Obs.Trace.track_names t)
             (Obs.Profile.stacks t)));
    Printf.printf
      "Profile (%d spans, %.3fs span wall) written to %s; render with \
       flamegraph.pl\n"
      (Obs.Trace.num_events t)
      (Obs.Profile.span_wall_us t /. 1e6)
      out
  | _ -> ()

let export_telemetry ~trace_path trace =
  match (trace_path, trace) with
  | Some out, Some t ->
    Obs.Trace.disable ();
    Obs.Trace.write_chrome out t;
    Printf.printf "Trace (%d spans) written to %s; open in \
                   https://ui.perfetto.dev\n"
      (Obs.Trace.num_events t) out
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* analyze                                                             *)

module Dg = Em_core.Diag

(* The deck commands' one exception -> one-line message mapping:
   [`Refused] for a deck the flow will not take, [`Failed] for any other
   failure. Each command maps these to its own exit code. *)
let error_of_exn ~path = function
  | Failure msg | Invalid_argument msg | Sys_error msg -> Some (`Failed msg)
  | e -> Option.map (fun msg -> `Refused msg) (Flow.refusal ~path e)

(* Exit-code policy: 0 = clean (or warnings only, without [--strict]);
   1 = error diagnostics present, or warnings under [--strict]. Fatal
   problems (strict-mode parse failure, exhausted error budget,
   unsupported netlist) surface as cmdliner errors instead. *)
let exit_code_of_diags ~strict diags =
  if Dg.count_errors diags > 0 then 1
  else if strict && Dg.count_warnings diags > 0 then 1
  else 0

(* What the deck load found: skipped lines, netlist size, lint. *)
let print_deck path (d : Flow.deck) =
  List.iter
    (fun (e : Spice.Parser.line_error) ->
      Printf.printf "%s:%d: skipped: %s\n" path e.Spice.Parser.line
        e.Spice.Parser.message)
    d.Flow.parse_errors;
  Format.printf "%a@." Spice.Netlist.pp_stats d.Flow.netlist;
  List.iter (fun f -> Format.printf "%a@." Spice.Checker.pp_finding f)
    d.Flow.findings

let analyze_netlist path tech sigma_t temperature with_maxpath top fix
    json_path html_path keep_going strict max_errors trace_path profile_path
    jobs variation mc_samples mc_seed audit audit_tol strict_audit audit_top =
  let material = material_of ~sigma_t ~temperature in
  let audit_cfg = audit_config_of ~audit ~audit_tol ~strict_audit ~audit_top in
  let mc_spec = variation_spec_of ~variation ~mc_samples ~mc_seed in
  let trace = start_telemetry ~trace_path ~profile_path in
  (* The deck is shown before the solve, so a refused solve still
     reports what was read. *)
  let keep_going = if keep_going then Some max_errors else None in
  let deck =
    try Flow.load_deck ?jobs ?keep_going path
    with Flow.Lint_abort d as e ->
      print_deck path d;
      raise e
  in
  print_deck path deck;
  let v =
    Flow.analyze_deck ~material ~with_maxpath ?jobs ?audit:audit_cfg ~tech deck
  in
  let { Flow.solution = sol; compacts; result = r; _ } = v in
  Format.printf "DC solve: %d free nodes, nnz(L) %d, residual %.2e@."
    sol.Spice.Mna.free_nodes sol.Spice.Mna.fill sol.Spice.Mna.residual;
  Format.printf "%a@.@." Flow.pp_summary r;
  (match audit_cfg with
  | None -> ()
  | Some cfg ->
    let su = Au.summarize ~tol:cfg.Flow.audit_tol r.Flow.audits in
    Printf.printf
      "Audit: %d structures, %d residual violations (tol %g), worst residual \
       %.3g%s\n\n"
      su.Au.su_audited su.Au.su_violations cfg.Flow.audit_tol
      su.Au.su_worst_residual
      (if su.Au.su_min_margin_index >= 0 then
         Printf.sprintf ", min margin %+.2f MPa (structure %d)"
           (U.pa_to_mpa su.Au.su_min_margin) su.Au.su_min_margin_index
       else ""));
  (* The reports read the flow's own results; only --fix solves again,
     to verify the widened structures. *)
  let layers = Emflow.Layer_report.of_result compacts r in
  let plan = Emflow.Fixer.plan_of_result ~material compacts r in
  Printf.printf "Per-layer breakdown:\n";
  Emflow.Report.print (Emflow.Layer_report.to_table layers);
  (if fix then begin
     Printf.printf
       "\nFix plan (uniform widening, 10%% safety): %d mortal structures, \
        %.1f um^2 extra metal\n"
       plan.Emflow.Fixer.mortal_structures
       (plan.Emflow.Fixer.total_extra_area *. 1e12);
     Emflow.Report.print (Emflow.Fixer.to_table plan);
     let analyzed =
       List.filteri (fun i _ -> r.Flow.structure_stats.(i).Flow.st_ok) compacts
     in
     if not (Emflow.Fixer.verify ~material analyzed plan) then
       Printf.printf "WARNING: fix plan failed verification\n"
   end);
  let table =
    Rp.create [ "layer"; "segments"; "peak MPa"; "margin MPa"; "at node" ]
  in
  let structures = Array.of_list compacts in
  List.iteri
    (fun rank i ->
      let st = r.Flow.structure_stats.(i) in
      if rank < top then
        Rp.add_row table
          [
            Printf.sprintf "M%d" st.Flow.st_layer;
            Rp.int_cell st.Flow.st_segments;
            Printf.sprintf "%.2f" (U.pa_to_mpa st.Flow.st_max_stress);
            Printf.sprintf "%+.2f" (U.pa_to_mpa st.Flow.st_margin);
            Emflow.Extract.node_name structures.(i) st.Flow.st_peak_node;
          ])
    (Flow.ranking r);
  Printf.printf "Most endangered structures:\n";
  Rp.print table;
  let blech_diags =
    if r.Flow.counts.Cl.fp > 0 then begin
      Printf.printf
        "WARNING: the traditional Blech filter would clear %d mortal segments.\n"
        r.Flow.counts.Cl.fp;
      [
        Dg.warning ~code:"blech-false-positive"
          (Printf.sprintf
             "the traditional Blech filter would clear %d mortal segments"
             r.Flow.counts.Cl.fp);
      ]
    end
    else []
  in
  (* Monte-Carlo process variation runs on the full extracted list, not
     the healthy subset: it isolates degenerate structures
     itself, and keeping the input order makes its diagnostics index
     the same structures as the flow's. *)
  let variation_result =
    match mc_spec with
    | None -> None
    | Some spec ->
      (* CPU time and allocation of every domain the engine runs on, so
         the header says where the phase's time and memory went. *)
      let cpu0 = Sys.time () and a0 = Obs.Alloc.process () in
      let vr = Emflow.Variation.run_compact ~material ?jobs spec compacts in
      let words = Obs.Alloc.words ~since:a0 (Obs.Alloc.process ()) in
      let cpu1 = Sys.time () in
      Printf.printf
        "\nMonte-Carlo variation (%d samples/structure, seed %d, %.2fs wall, \
         %.2fs cpu, %s alloc):\n"
        mc_samples mc_seed vr.Emflow.Variation.mc_time (cpu1 -. cpu0)
        (Format.asprintf "%a" Emflow.Pipeline.pp_words words);
      Rp.print (Emflow.Variation.to_table vr.Emflow.Variation.stats);
      Some vr
  in
  let variation_diags =
    match variation_result with
    | Some vr -> vr.Emflow.Variation.diags
    | None -> []
  in
  let diags = v.Flow.diags @ blech_diags @ variation_diags in
  (match html_path with
  | None -> ()
  | Some out ->
    Emflow.Html_report.write out
      ~title:(Printf.sprintf "EM sign-off: %s" (Filename.basename path))
      ~material ~tech ~compacts r;
    Printf.printf "HTML report written to %s\n" out);
  (match json_path with
  | None -> ()
  | Some out ->
    let doc =
      Emflow.Json_out.Obj
        ([
           ("netlist", Emflow.Json_out.String path);
           ("diagnostics", Emflow.Json_out.of_diags diags);
           ("flow", Emflow.Json_out.of_flow_result r);
           ("mna", Emflow.Json_out.of_mna sol);
           ("layers", Emflow.Json_out.of_layer_stats layers);
           ("fix_plan", Emflow.Json_out.of_fixer_plan plan);
         ]
        @ (match audit_cfg with
          | Some cfg ->
            [
              ( "audit",
                Emflow.Json_out.of_audit_report ~tol:cfg.Flow.audit_tol
                  r.Flow.audits );
            ]
          | None -> [])
        @ (match variation_result with
          | Some vr -> [ ("variation", Emflow.Json_out.of_variation vr) ]
          | None -> [])
        @
        (* Embed the run's telemetry when the user asked for it
           (--trace/--profile), so one JSON file carries both the
           verdicts and the run profile. *)
        match trace with
        | Some t -> [ ("telemetry", Emflow.Json_out.of_telemetry t) ]
        | None -> [])
    in
    Out_channel.with_open_text out (fun oc ->
        Emflow.Json_out.to_channel oc doc);
    Printf.printf "JSON report written to %s\n" out);
  export_telemetry ~trace_path trace;
  export_profile ~profile_path trace;
  if diags <> [] then begin
    Format.printf "Diagnostics (%a):@." Dg.pp_summary diags;
    List.iter (fun d -> Format.printf "  %a@." Dg.pp d) diags
  end;
  `Ok (exit_code_of_diags ~strict diags)

let analyze_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"NETLIST" ~doc:"SPICE power-grid netlist to analyze.")
  in
  let with_maxpath =
    Arg.(
      value & flag
      & info [ "with-maxpath" ]
          ~doc:"Also run the max-path jl heuristic for comparison.")
  in
  let top =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"Number of endangered structures to list.")
  in
  let fix =
    Arg.(
      value & flag
      & info [ "fix" ]
          ~doc:"Print a uniform-widening repair plan for mortal structures.")
  in
  let json_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write a machine-readable JSON report to $(docv).")
  in
  let html_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "html" ] ~docv:"FILE"
          ~doc:"Write a self-contained HTML report (tables + SVG scatter).")
  in
  let keep_going =
    Arg.(
      value & flag
      & info [ "k"; "keep-going" ]
          ~doc:
            "Recovery mode: skip malformed netlist lines (recording each as \
             a diagnostic, up to $(b,--max-errors)) and continue past lint \
             errors instead of aborting. The exit code still reports the \
             collected errors.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Treat warnings as errors for the exit code: exit non-zero when \
             any diagnostic (including lint warnings and Blech \
             false-positive warnings) was emitted.")
  in
  let max_errors =
    Arg.(
      value
      & opt int Spice.Parser.default_max_errors
      & info [ "max-errors" ] ~docv:"N"
          ~doc:
            "With $(b,--keep-going): give up (fatal error) after more than \
             $(docv) malformed netlist lines.")
  in
  let variation =
    Arg.(
      value & flag
      & info [ "variation" ]
          ~doc:
            "Monte-Carlo process variation: resample wire geometry and the \
             critical stress per structure (one sample at a time on the \
             columnar representation) and report per-structure mortality \
             probabilities and peak-stress quantiles. Results are \
             bit-identical for a fixed $(b,--mc-seed) at any $(b,--jobs).")
  in
  let mc_samples =
    Arg.(
      value
      & opt int Emflow.Variation.default_spec.Emflow.Variation.samples
      & info [ "samples" ] ~docv:"N"
          ~doc:
            "Monte-Carlo samples per structure for $(b,--variation); memory \
             stays independent of $(docv) (streaming estimators).")
  in
  let mc_seed =
    Arg.(
      value
      & opt int
          (Int64.to_int Emflow.Variation.default_spec.Emflow.Variation.seed)
      & info [ "mc-seed" ] ~docv:"SEED"
          ~doc:"RNG seed for $(b,--variation) (per-structure split streams).")
  in
  let term =
    Term.(
      ret
        (const (fun path tech sigma_t temperature with_maxpath top fix json
                    html keep_going strict max_errors trace_path
                    profile_path jobs variation mc_samples mc_seed audit
                    audit_tol strict_audit audit_top flight_dump ->
             (* The flight recorder is always armed during analyze; its
                ring surfaces on stderr on failure and is archived to
                --flight-dump on any exit. *)
             Obs.Flight.set_enabled true;
             let fail msg =
               dump_flight ~flight_dump ();
               `Error (false, msg)
             in
             (* A refused deck gets its one-line diagnostic alone: the
                message names the cause, and the ring would only repeat
                the intake stages. *)
             let reject msg =
               archive_flight ~flight_dump ();
               `Error (false, msg)
             in
             let r =
               match
                 analyze_netlist path tech sigma_t temperature with_maxpath
                   top fix json html keep_going strict max_errors trace_path
                   profile_path jobs variation mc_samples mc_seed audit
                   audit_tol strict_audit audit_top
               with
               | `Ok n ->
                 if n <> 0 then dump_flight ~flight_dump ()
                 else archive_flight ~flight_dump ();
                 `Ok n
               | exception e -> (
                 match error_of_exn ~path e with
                 | Some (`Refused msg) ->
                   reject
                     (match e with
                     | Flow.Lint_abort _ ->
                       msg ^ "; aborting (use --keep-going to continue)"
                     | _ -> msg)
                 | Some (`Failed msg) -> fail msg
                 | None -> raise e)
             in
             Obs.Flight.set_enabled false;
             r)
        $ path $ tech_arg $ sigma_t_arg $ temperature_arg $ with_maxpath $ top
        $ fix $ json_path $ html_path $ keep_going $ strict $ max_errors
        $ trace_arg $ profile_arg $ jobs_arg $ variation $ mc_samples
        $ mc_seed $ audit_arg $ audit_tol_arg $ strict_audit_arg
        $ audit_top_arg $ flight_dump_arg))
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Analyze a power-grid netlist for EM immortality"
       ~man:
         [
           `S Manpage.s_exit_status;
           `P
             "$(b,0) on a clean run (warnings allowed unless $(b,--strict)); \
              $(b,1) when error diagnostics were collected (skipped netlist \
              lines, skipped structures) or, with $(b,--strict), when any \
              warning was emitted; the usual cmdliner codes for fatal \
              errors (unparseable netlist without $(b,--keep-going), \
              exhausted $(b,--max-errors) budget, unsupported deck).";
         ])
    term

(* ------------------------------------------------------------------ *)
(* explain                                                             *)

(* Audit one netlist and render a single structure's record as tables:
   the margin/residual summary, then the critical Blech path from the
   reference to the most stressed node with per-step stress
   contributions, resolved to netlist node names and element ids. *)
let explain_netlist path index tech sigma_t temperature audit_tol jobs =
  let material = material_of ~sigma_t ~temperature in
  let audit =
    {
      Flow.default_audit_config with
      Flow.audit_tol;
      (* Keep the whole path in [au_top]; the table below bounds it. *)
      audit_top_k = max_int;
    }
  in
  let _, v = Flow.run_deck ~material ?jobs ~audit ~tech path in
  let r = v.Flow.result in
  let n = List.length v.Flow.compacts in
  if index < 0 || index >= n then
    failwith
      (Printf.sprintf "structure index %d out of range (deck has %d structures)"
         index n);
  (* An explanation is only as good as the currents behind it. *)
  List.iter (fun d -> Format.printf "WARNING: %a@." Dg.pp d)
    (Flow.mna_diags v.Flow.solution);
  let cs = List.nth v.Flow.compacts index in
  match r.Flow.audits.(index) with
  | None ->
    let why =
      List.find_opt
        (fun (d : Dg.t) ->
          match d.Dg.source with
          | Dg.Structure { index = i; _ } -> i = index
          | _ -> false)
        r.Flow.diags
    in
    failwith
      (Printf.sprintf "structure %d was not audited: %s" index
         (match why with
         | Some d -> d.Dg.message
         | None -> "analysis did not produce a record"))
  | Some a ->
    Format.printf "%a@.@." Au.pp a;
    (match Au.violations ~tol:audit_tol a with
    | [] -> Printf.printf "No residual violations at tol %g.\n" audit_tol
    | vs ->
      Printf.printf "RESIDUAL VIOLATIONS (tol %g):\n" audit_tol;
      List.iter (fun (name, v) -> Printf.printf "  %s = %.6e\n" name v) vs);
    let elements = cs.Emflow.Extract.cs_element_ids in
    let name_of i =
      if i < Array.length cs.Emflow.Extract.cs_nodes then Emflow.Extract.node_name cs i
      else string_of_int i
    in
    let element_of k =
      if k < Array.length elements then
        Printf.sprintf "R%d (seg %d)" elements.(k) k
      else string_of_int k
    in
    let path_len = Array.length a.Au.au_path in
    Printf.printf
      "\nCritical Blech path (%d steps, reference %s -> peak %s):\n" path_len
      (if path_len > 0 then name_of a.Au.au_path.(0).Au.ct_parent else "-")
      (name_of a.Au.au_max_node);
    let table =
      Rp.create [ "step"; "element"; "from"; "to"; "dstress MPa"; "cum MPa" ]
    in
    let cum = ref 0. in
    Array.iteri
      (fun i (ct : Au.contribution) ->
        cum := !cum +. ct.Au.ct_delta;
        Rp.add_row table
          [
            Rp.int_cell i;
            element_of ct.Au.ct_seg;
            name_of ct.Au.ct_parent;
            name_of ct.Au.ct_node;
            Printf.sprintf "%+.4f" (U.pa_to_mpa ct.Au.ct_delta);
            Printf.sprintf "%+.4f" (U.pa_to_mpa !cum);
          ])
      a.Au.au_path;
    Rp.print table;
    let top = a.Au.au_top in
    if Array.length top > 0 then begin
      Printf.printf "\nLargest contributions:\n";
      let table = Rp.create [ "element"; "from"; "to"; "dstress MPa" ] in
      Array.iteri
        (fun i (ct : Au.contribution) ->
          if i < Au.default_top_k then
            Rp.add_row table
              [
                element_of ct.Au.ct_seg;
                name_of ct.Au.ct_parent;
                name_of ct.Au.ct_node;
                Printf.sprintf "%+.4f" (U.pa_to_mpa ct.Au.ct_delta);
              ])
        top;
      Rp.print table
    end;
    `Ok 0

let explain_cmd =
  (* [string], not [file]: an unreadable deck must surface as this
     command's one-line diagnostic with exit 2, not as a cmdliner CLI
     error (124). *)
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NETLIST" ~doc:"SPICE power-grid netlist to analyze.")
  in
  let index =
    Arg.(
      required
      & pos 1 (some int) None
      & info [] ~docv:"IDX"
          ~doc:
            "Structure index to explain (the batch position reported by \
             $(b,analyze) diagnostics, audit records and the JSON report).")
  in
  let term =
    Term.(
      ret
        (const (fun path index tech sigma_t temperature audit_tol jobs ->
             (* Data problems (missing/unreadable/malformed deck, an
                index the deck does not have) are exit 2 with a one-line
                diagnostic — never an uncaught exception, and distinct
                from cmdliner's own usage errors. *)
             let fail msg =
               Printf.eprintf "emcheck explain: %s\n%!" msg;
               `Ok 2
             in
             match
               explain_netlist path index tech sigma_t temperature audit_tol
                 jobs
             with
             | r -> r
             | exception e -> (
               match error_of_exn ~path e with
               | Some (`Refused msg | `Failed msg) -> fail msg
               | None -> raise e))
        $ path $ index $ tech_arg $ sigma_t_arg $ temperature_arg
        $ audit_tol_arg $ jobs_arg))
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Explain one structure's immortality verdict: audited margin, \
          residuals, and the critical Blech path with per-segment stress \
          contributions"
       ~man:
         [
           `S Manpage.s_exit_status;
           `P
             "$(b,0) on success; $(b,2) with a one-line diagnostic when the \
              deck is missing, unreadable or malformed, or the structure \
              index is out of range.";
         ])
    term

(* ------------------------------------------------------------------ *)
(* wire                                                                *)

let check_wire segments sigma_t temperature =
  let material = material_of ~sigma_t ~temperature in
  match segments with
  | [] -> `Error (false, "provide at least one L,W,J triple")
  | _ ->
    let parsed =
      List.map
        (fun spec ->
          match String.split_on_char ',' spec with
          | [ l; w; j ] -> begin
            match
              (float_of_string_opt l, float_of_string_opt w, float_of_string_opt j)
            with
            | Some l, Some w, Some j ->
              St.segment ~length:(U.um l) ~width:(U.um w) ~j ()
            | _ -> failwith spec
          end
          | _ -> failwith spec)
        segments
    in
    let s = St.line parsed in
    let report = Im.check material s in
    Format.printf "%a@.@." St.pp s;
    List.iteri
      (fun k seg ->
        Format.printf "segment %d: jl = %.4f A/um -> traditional Blech says %s@."
          k
          (U.a_per_m_to_a_per_um (Em_core.Blech.product seg))
          (if Em_core.Blech.segment_immortal material seg then "immortal"
           else "potentially mortal"))
      parsed;
    Format.printf "@.%a@." Im.pp report;
    `Ok 0

let wire_cmd =
  let segments =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"L,W,J"
          ~doc:
            "Segments of a straight multi-segment wire, each as \
             length(um),width(um),current density(A/m^2).")
  in
  let term =
    Term.(
      ret
        (const (fun segments sigma_t temperature ->
             try check_wire segments sigma_t temperature
             with Failure spec ->
               `Error (false, Printf.sprintf "malformed segment %S" spec))
        $ segments $ sigma_t_arg $ temperature_arg))
  in
  Cmd.v
    (Cmd.info "wire" ~doc:"Check a single multi-segment wire")
    term

(* ------------------------------------------------------------------ *)
(* verify                                                              *)

let verify_cmd =
  let netlist_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"NETLIST" ~doc:"SPICE netlist to solve.")
  in
  let solution_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"SOLUTION" ~doc:"Golden node-voltage file.")
  in
  let tol =
    Arg.(
      value & opt float 1e-6
      & info [ "tol" ] ~docv:"V" ~doc:"Allowed per-node voltage error.")
  in
  let term =
    Term.(
      ret
        (const (fun netlist solution tol jobs ->
             match
               let net = Spice.Parser.parse_file ?jobs netlist in
               let sol = Spice.Mna.solve ?jobs net in
               let golden = Spice.Solution_file.parse_file solution in
               Spice.Solution_file.check ~tol ~reference:golden sol
             with
             | Ok () ->
               print_endline "solution matches";
               `Ok 0
             | Error msg -> `Error (false, msg)
             | exception e -> (
               match error_of_exn ~path:netlist e with
               | Some (`Refused msg | `Failed msg) -> `Error (false, msg)
               | None -> raise e))
        $ netlist_arg $ solution_arg $ tol $ jobs_arg))
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Check the DC solver against a golden solution file")
    term

(* ------------------------------------------------------------------ *)
(* material                                                            *)

let material_cmd =
  let term =
    Term.(
      const (fun sigma_t temperature ->
          let m = material_of ~sigma_t ~temperature in
          Format.printf "%a@." M.pp m;
          0)
      $ sigma_t_arg $ temperature_arg)
  in
  Cmd.v
    (Cmd.info "material" ~doc:"Print the material model and derived constants")
    term

let () =
  let info =
    Cmd.info "emcheck" ~version:"1.0.0"
      ~doc:"EM immortality checking for general interconnects (DAC'21)"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            analyze_cmd; explain_cmd; wire_cmd; verify_cmd; material_cmd;
          ]))

(* emcheck: EM immortality checking for power-grid netlists.

   Subcommands:
     analyze   parse a SPICE netlist, solve the DC operating point,
               extract per-layer structures and report immortality
     explain   one structure's audited margin and critical Blech path
     diff      compare two recorded runs structure by structure
     history   per-structure margin or solve-time trend across runs
     stats     the analysis with span, hot-path and metric tables
     wire      check a single multi-segment wire given on the command line
     verify    check the DC solver against a golden solution file
     material  print the material model and derived constants

   analyze, explain and stats run the deck -> verdict stages through
   Em_flow.run_deck and differ only in what they print.

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
           the per-structure EM analysis and the Monte-Carlo samples are \
           shared among $(docv) domains. Results are identical at any \
           $(docv). Without it the scan runs on one domain and the \
           analysis on every core.")

(* ------------------------------------------------------------------ *)
(* Telemetry plumbing shared by analyze and stats                      *)

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

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Collect pipeline metrics (solve/classification counters, latency \
           histogram, GC gauges) and write them to $(docv) in Prometheus \
           text exposition format.")

let log_level_arg =
  let levels =
    [ ("debug", Obs.Log.Debug); ("info", Obs.Log.Info);
      ("warn", Obs.Log.Warn); ("error", Obs.Log.Error) ]
  in
  Arg.(
    value
    & opt (some (enum levels)) None
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:
          "Print structured log records at $(docv) and above \
           ($(b,debug), $(b,info), $(b,warn), $(b,error)) to standard \
           error, correlated with the trace span open at each call.")

let log_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log-json" ] ~docv:"FILE"
        ~doc:
          "Also write the structured log as JSON lines to $(docv) \
           (records filtered by $(b,--log-level), default info).")

(* Install the structured-log sink requested by --log-level/--log-json;
   returns a closer that uninstalls it and closes the JSON file. *)
let start_logging ~log_level ~log_json =
  match (log_level, log_json) with
  | None, None -> fun () -> ()
  | _ ->
    let json_oc = Option.map open_out log_json in
    let sink =
      Obs.Log.create
        ?min_level:log_level
        ?text:(Option.map (fun _ -> Obs.Log.Channel stderr) log_level)
        ?json:(Option.map (fun oc -> Obs.Log.Channel oc) json_oc)
        ()
    in
    Obs.Log.enable sink;
    fun () ->
      Obs.Log.disable ();
      Option.iter close_out_noerr json_oc

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

let audit_arg =
  Arg.(
    value & flag
    & info [ "audit" ]
        ~doc:
          "Audit every structure's steady-state solution at run time: \
           replay the solver's exact invariants (Blech-sum schedule, \
           normalization constants, stress telescoping — all gated at \
           exactly zero), check the physical conservation laws against \
           $(b,--audit-tol), and attach a signed immortality margin with \
           the top contributing segments of the critical Blech path. \
           Residual violations become diagnostics; the aggregate is \
           served live at $(b,/audit) under $(b,--listen) and embedded \
           in the $(b,--json) report.")

let audit_tol_arg =
  Arg.(
    value
    & opt float Em_core.Audit.default_tol
    & info [ "audit-tol" ] ~docv:"REL"
        ~doc:
          "Relative tolerance for the physically-rounded audit residuals \
           (flux and mass conservation). The bit-identity residuals are \
           always gated at exactly 0.")

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
    & opt int Em_core.Audit.default_top_k
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

(* ------------------------------------------------------------------ *)
(* Run-ledger plumbing (emcheck analyze --record-run, diff, history)   *)

module Lg = Emflow.Ledger
module Fp = Em_core.Fingerprint

let record_run_arg =
  Arg.(
    value
    & opt ~vopt:(Some Lg.default_dir) (some string) None
    & info [ "record-run" ] ~docv:"DIR"
        ~doc:
          "Append this run to the persistent run ledger in $(docv) \
           (default $(b,emcheck_runs)): one JSONL record carrying the \
           deck hash, tech and worker count and, per structure, its \
           content-addressed fingerprint, verdict, signed immortality \
           margin, solve time and diagnostics. Compare archived runs \
           with $(b,emcheck diff) and $(b,emcheck history). Recording \
           never changes analysis results.")

let iso8601_now () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

type recording = {
  rc_dir : string;
  rc_deck_hash : string;
  rc_timestamp : string;
  rc_run_id : string;
}

(* Start a recording: derive the run id, publish it to /healthz and
   install the /runs provider. The ledger record itself is appended
   once the analysis is done. *)
let start_recording ~path = function
  | None -> None
  | Some dir ->
    let deck_hash = Digest.to_hex (Digest.file path) in
    let timestamp = iso8601_now () in
    let run_id = Lg.fresh_run_id ~deck_hash ~timestamp in
    Obs.Runtime.set_run_id (Some run_id);
    Obs.Runtime.set_runs_provider
      (Some (fun () -> Lg.runs_snapshot_json ~dir ~run_id));
    Some
      { rc_dir = dir; rc_deck_hash = deck_hash; rc_timestamp = timestamp;
        rc_run_id = run_id }

let stop_recording () =
  Obs.Runtime.set_run_id None;
  Obs.Runtime.set_runs_provider None

(* ------------------------------------------------------------------ *)
(* Live telemetry server (emcheck analyze --listen)                    *)

let listen_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "listen" ] ~docv:"[ADDR:]PORT"
        ~doc:
          "Serve live telemetry over HTTP while the analysis runs: \
           $(b,GET /metrics) (Prometheus exposition), $(b,/healthz) \
           (JSON liveness with pipeline phase and structure progress), \
           $(b,/trace) (Chrome-trace snapshot), $(b,/profile) \
           (speedscope snapshot), $(b,/flight) (flight-recorder \
           dump), $(b,/audit) (live numerical-audit aggregate under \
           $(b,--audit)) and $(b,/runs) (run-ledger snapshot under \
           $(b,--record-run)). The address defaults to 127.0.0.1; port 0 picks an \
           ephemeral port (printed at startup). The server never \
           changes analysis results.")

let parse_listen spec =
  let addr, port_s =
    match String.rindex_opt spec ':' with
    | None -> ("127.0.0.1", spec)
    | Some i ->
      (String.sub spec 0 i, String.sub spec (i + 1) (String.length spec - i - 1))
  in
  match int_of_string_opt port_s with
  | Some p when p >= 0 && p <= 65535 -> (addr, p)
  | _ ->
    failwith
      (Printf.sprintf "--listen %s: expected [ADDR:]PORT with a port in 0..65535"
         spec)

(* Start the endpoint server. Metrics and run-state publication must be
   on for the gauges to move (each /metrics scrape samples the process
   gauges first); tracing and profiling stay under their own flags
   (--trace/--profile), so /trace and /profile serve empty-but-valid
   documents unless those were also requested. *)
let start_live ~listen () =
  match listen with
  | None -> None
  | Some spec ->
    let addr, port = parse_listen spec in
    Obs.Metrics.set_enabled true;
    Obs.Runtime.set_enabled true;
    let server =
      try Obs.Serve.start ~addr ~port ()
      with Unix.Unix_error (err, _, _) ->
        failwith
          (Printf.sprintf "--listen %s: cannot bind: %s" spec
             (Unix.error_message err))
    in
    Printf.printf
      "Live telemetry on http://%s:%d/ (endpoints: /metrics /healthz /trace \
       /profile /flight /audit /runs)\n%!"
      addr (Obs.Serve.port server);
    Some server

(* An in-flight scrape finishes; later connections are refused. *)
let stop_live live =
  Option.iter
    (fun server ->
      Obs.Serve.stop server;
      Obs.Runtime.set_enabled false;
      Printf.printf "Live telemetry server stopped after %d requests\n%!"
        (Obs.Serve.requests_served server))
    live

(* ------------------------------------------------------------------ *)
(* Profile plumbing (emcheck analyze/stats --profile)                  *)

let profile_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile" ] ~docv:"FILE"
        ~doc:
          "Write the run's exact span profile to $(docv): every span's \
           self-time (its duration minus its direct children's) summed \
           per lane and span path, in microseconds — speedscope JSON by \
           default (https://www.speedscope.app), or folded stacks for \
           flamegraph.pl with $(b,--profile-format folded). Implies span \
           tracing for the run even without $(b,--trace).")

let profile_format_arg =
  let formats = [ ("speedscope", `Speedscope); ("folded", `Folded) ] in
  Arg.(
    value
    & opt (enum formats) `Speedscope
    & info [ "profile-format" ] ~docv:"FORMAT"
        ~doc:
          "Profile output format: $(b,speedscope) (JSON, one lane per \
           domain) or $(b,folded) (flamegraph.pl folded stacks).")

(* Install the requested sinks; returns the trace buffer the caller
   exports once the run is over. --profile implies a trace: the profile
   is computed from its completed spans. *)
let start_telemetry ~trace_path ~metrics_path ~profile_path =
  if
    Option.is_some metrics_path || Option.is_some trace_path
    || Option.is_some profile_path
  then Obs.Metrics.set_enabled true;
  if Option.is_some trace_path || Option.is_some profile_path then begin
    let t = Obs.Trace.create () in
    Obs.Trace.enable t;
    Some t
  end
  else None

let write_file path contents =
  Out_channel.with_open_text path (fun oc -> output_string oc contents)

let export_profile ~profile_path ~profile_format trace =
  match (profile_path, trace) with
  | Some out, Some t ->
    let track_names = Obs.Trace.track_names t in
    let stacks = Obs.Profile.stacks t in
    write_file out
      (match profile_format with
      | `Folded -> Obs.Profile.to_folded ~track_names stacks
      | `Speedscope ->
        Obs.Profile.to_speedscope ~name:(Filename.basename out) ~track_names
          stacks);
    Printf.printf "Profile (%d spans, %.3fs span wall) written to %s%s\n"
      (Obs.Trace.num_events t)
      (Obs.Profile.span_wall_us t /. 1e6)
      out
      (match profile_format with
      | `Speedscope -> "; open in https://www.speedscope.app"
      | `Folded -> "; render with flamegraph.pl")
  | _ -> ()

let export_telemetry ~trace_path ~metrics_path trace =
  (match metrics_path with
  | None -> ()
  | Some out ->
    write_file out (Obs.Metrics.to_prometheus ());
    Printf.printf "Metrics written to %s\n" out);
  match (trace_path, trace) with
  | Some out, Some t ->
    Obs.Trace.disable ();
    Obs.Trace.write_chrome out t;
    Printf.printf "Trace (%d spans) written to %s; open in \
                   https://ui.perfetto.dev\n"
      (Obs.Trace.num_events t) out
  | _ -> ()

(* Top-K hot-path table: exact self-time attribution from the completed
   spans. *)
let print_hot_paths ~top trace =
  match Obs.Profile.attribute trace with
  | [] -> ()
  | paths ->
    let wall_us = Obs.Profile.span_wall_us trace in
    let table =
      Rp.create
        [ "hot path"; "count"; "self ms"; "total ms"; "% wall";
          "self alloc Mw" ]
    in
    List.iteri
      (fun i (h : Obs.Profile.hot_path) ->
        if i < top then
          Rp.add_row table
            [
              Obs.Profile.path_to_string h.Obs.Profile.hp_path;
              Rp.int_cell h.Obs.Profile.hp_count;
              Printf.sprintf "%.3f" (h.Obs.Profile.hp_self_us /. 1e3);
              Printf.sprintf "%.3f" (h.Obs.Profile.hp_total_us /. 1e3);
              (if wall_us > 0. then
                 Printf.sprintf "%.1f"
                   (100. *. h.Obs.Profile.hp_self_us /. wall_us)
               else "-");
              Printf.sprintf "%.2f" (h.Obs.Profile.hp_self_alloc_words /. 1e6);
            ])
      paths;
    Printf.printf "\nHot paths (top %d of %d by self-time):\n"
      (min top (List.length paths))
      (List.length paths);
    Rp.print table

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
    json_path html_path keep_going strict max_errors trace_path metrics_path
    profile_path profile_format jobs variation mc_samples mc_seed audit
    audit_tol strict_audit audit_top record_run listen =
  let material = material_of ~sigma_t ~temperature in
  let audit_cfg = audit_config_of ~audit ~audit_tol ~strict_audit ~audit_top in
  (* Whether the *user* asked for telemetry in the report. --listen also
     enables the metrics registry (the gauges must move for /metrics),
     but must not change the JSON report — the on/off bit-identity
     contract covers the whole output. *)
  let telemetry_requested =
    Option.is_some trace_path || Option.is_some metrics_path
    || Option.is_some profile_path
  in
  let recording = start_recording ~path record_run in
  let live = start_live ~listen () in
  (* The /audit endpoint serves the live aggregate only while an audited
     analysis owns it; any other time it answers {"enabled":false}. *)
  if audit then
    Obs.Runtime.set_audit_provider (Some Em_core.Audit.Live.to_json);
  Fun.protect
    ~finally:(fun () ->
      Obs.Runtime.set_audit_provider None;
      stop_recording ();
      stop_live live)
  @@ fun () ->
  let trace = start_telemetry ~trace_path ~metrics_path ~profile_path in
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
    let audited = ref 0 and violating = ref 0 in
    let worst = ref 0. in
    let min_margin = ref infinity and min_idx = ref (-1) in
    Array.iter
      (function
        | Some (a : Em_core.Audit.t) ->
          incr audited;
          if Em_core.Audit.violations ~tol:cfg.Flow.audit_tol a <> [] then
            incr violating;
          worst := Float.max !worst (Em_core.Audit.worst_residual a);
          if a.Em_core.Audit.au_margin < !min_margin then begin
            min_margin := a.Em_core.Audit.au_margin;
            min_idx := a.Em_core.Audit.au_index
          end
        | None -> ())
      r.Flow.audits;
    Printf.printf
      "Audit: %d structures, %d residual violations (tol %g), worst residual \
       %.3g%s\n\n"
      !audited !violating cfg.Flow.audit_tol !worst
      (if !min_idx >= 0 then
         Printf.sprintf ", min margin %+.2f MPa (structure %d)"
           (U.pa_to_mpa !min_margin) !min_idx
       else ""));
  (* The reports read the flow's own results; only --fix solves again,
     to verify the widened structures. *)
  let layers = Emflow.Layer_report.of_result r in
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
  let names = Array.of_list (List.map (fun c -> c.Emflow.Extract.cs_node_names) compacts) in
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
            names.(i).(st.Flow.st_peak_node);
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
    if not variation then None
    else begin
      let spec =
        { Emflow.Variation.default_spec with
          Emflow.Variation.samples = mc_samples;
          seed = Int64.of_int mc_seed;
        }
      in
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
    end
  in
  let variation_diags =
    match variation_result with
    | Some vr -> vr.Emflow.Variation.diags
    | None -> []
  in
  let diags = v.Flow.diags @ blech_diags @ variation_diags in
  (* Append the ledger record: fingerprint every extracted structure
     (full list — failed structures are recorded too) and join with the
     per-structure stats the flow always collects. *)
  (match recording with
  | None -> ()
  | Some rc ->
    let entries = Lg.entries_of_result ~material compacts r in
    let stats = r.Flow.structure_stats in
    let count p =
      Array.fold_left (fun acc s -> if p s then acc + 1 else acc) 0 stats
    in
    let run =
      {
        Lg.rn_id = rc.rc_run_id;
        rn_timestamp = rc.rc_timestamp;
        rn_deck = path;
        rn_deck_hash = rc.rc_deck_hash;
        rn_tech = tech.Pdn.Tech.name;
        rn_jobs = (match jobs with Some j -> max 1 j | None -> 1);
        rn_audited = audit;
        rn_sigma_th_pa = M.effective_critical_stress material;
        rn_structures = r.Flow.num_structures;
        rn_segments = r.Flow.num_segments;
        rn_immortal = count (fun s -> s.Flow.st_ok && s.Flow.st_immortal);
        rn_mortal = count (fun s -> s.Flow.st_ok && not s.Flow.st_immortal);
        rn_failed = count (fun s -> not s.Flow.st_ok);
        rn_analysis_s = r.Flow.analysis_time;
        rn_entries = entries;
      }
    in
    (match Lg.append ~dir:rc.rc_dir run with
    | Ok () ->
      Printf.printf "Run %s recorded to %s (%d structures)\n"
        (Fp.short rc.rc_run_id)
        (Lg.ledger_path rc.rc_dir)
        (List.length entries)
    | Error msg -> failwith (Printf.sprintf "--record-run: %s" msg)));
  (match html_path with
  | None -> ()
  | Some out ->
    Emflow.Html_report.write out
      ~title:(Printf.sprintf "EM sign-off: %s" (Filename.basename path))
      ~material ~tech ~compacts r;
    Printf.printf "HTML report written to %s\n" out);
  (* The process gauges are sampled when read: here for the --json
     telemetry object and the --metrics file. *)
  if telemetry_requested then Obs.Runtime.sample_now ();
  (match json_path with
  | None -> ()
  | Some out ->
    let doc =
      Emflow.Json_out.Obj
        ([
           ("netlist", Emflow.Json_out.String path);
           ("diagnostics", Emflow.Json_out.of_diags diags);
           ("flow", Emflow.Json_out.of_flow_result r);
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
           (--trace/--metrics/--profile), so one JSON file carries both
           the verdicts and the run profile. Deliberately not keyed on
           [Obs.Metrics.is_enabled]: --listen enables the registry too
           but must leave the report identical to a no-listen run. *)
        if telemetry_requested then
          [ ("telemetry", Emflow.Json_out.of_telemetry ()) ]
        else [])
    in
    Out_channel.with_open_text out (fun oc ->
        Emflow.Json_out.to_channel oc doc);
    Printf.printf "JSON report written to %s\n" out);
  export_telemetry ~trace_path ~metrics_path trace;
  export_profile ~profile_path ~profile_format trace;
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
             critical stress per structure (vectorized over the columnar \
             representation) and report per-structure mortality \
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
                    html keep_going strict max_errors trace_path metrics_path
                    profile_path profile_format jobs variation mc_samples
                    mc_seed audit audit_tol strict_audit audit_top record_run
                    log_level log_json flight_dump listen ->
             let finish_log = start_logging ~log_level ~log_json in
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
                   metrics_path profile_path profile_format jobs variation
                   mc_samples mc_seed audit audit_tol strict_audit audit_top
                   record_run listen
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
             finish_log ();
             r)
        $ path $ tech_arg $ sigma_t_arg $ temperature_arg $ with_maxpath $ top
        $ fix $ json_path $ html_path $ keep_going $ strict $ max_errors
        $ trace_arg $ metrics_arg $ profile_arg $ profile_format_arg $ jobs_arg
        $ variation $ mc_samples $ mc_seed $ audit_arg $ audit_tol_arg
        $ strict_audit_arg $ audit_top_arg $ record_run_arg $ log_level_arg
        $ log_json_arg $ flight_dump_arg $ listen_arg))
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

module Au = Em_core.Audit

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
    let names = cs.Emflow.Extract.cs_node_names in
    let elements = cs.Emflow.Extract.cs_element_ids in
    let name_of i = if i < Array.length names then names.(i) else string_of_int i in
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
(* diff / history (cross-run ledger analysis)                          *)

let ledger_dir_arg =
  Arg.(
    value
    & opt string Lg.default_dir
    & info [ "dir" ] ~docv:"DIR"
        ~doc:
          "Run-ledger directory — where $(b,analyze --record-run) \
           appended (default $(b,emcheck_runs)).")

let ledger_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write the machine-readable result to $(docv).")

let write_json_doc path doc =
  Out_channel.with_open_text path (fun oc ->
      Emflow.Json_out.to_channel oc doc;
      output_char oc '\n');
  Printf.printf "JSON written to %s\n" path

let mpa_cell x =
  if Float.is_finite x then Printf.sprintf "%+.4f" (U.pa_to_mpa x) else "-"

let describe_run tag (r : Lg.run) =
  Printf.printf "%s %s  %s  %s  (%d structures: %d immortal, %d mortal, %d \
                 failed)\n"
    tag (Fp.short r.Lg.rn_id) r.Lg.rn_timestamp r.Lg.rn_deck r.Lg.rn_structures
    r.Lg.rn_immortal r.Lg.rn_mortal r.Lg.rn_failed

let flip_cell = function
  | `None -> "-"
  | `To_mortal -> "immortal -> MORTAL"
  | `To_immortal -> "mortal -> immortal"
  | `To_failed -> "ok -> FAILED"
  | `To_ok -> "failed -> ok"

let diff_runs dir sel_a sel_b top json_path fail_on_regression =
  let fail msg =
    Printf.eprintf "emcheck diff: %s\n%!" msg;
    `Ok 2
  in
  match Lg.load ~dir with
  | Error msg -> fail msg
  | Ok runs -> (
    match (Lg.resolve runs sel_a, Lg.resolve runs sel_b) with
    | Error msg, _ | _, Error msg -> fail msg
    | Ok a, Ok b ->
      let d = Lg.diff a b in
      describe_run "A:" a;
      describe_run "B:" b;
      Printf.printf
        "\nmatched %d by fingerprint; %d verdict flip(s), %d regression(s), \
         %d changed, %d added, %d removed\n\
         max |margin drift| %s MPa; solve total %.4fs -> %.4fs\n"
        (List.length d.Lg.df_matched)
        d.Lg.df_verdict_flips d.Lg.df_regressions
        (List.length d.Lg.df_changed)
        (List.length d.Lg.df_added)
        (List.length d.Lg.df_removed)
        (Printf.sprintf "%.6g" (U.pa_to_mpa d.Lg.df_max_abs_margin_drift))
        d.Lg.df_total_solve_a d.Lg.df_total_solve_b;
      let flips = List.filter (fun m -> m.Lg.dm_flip <> `None) d.Lg.df_matched in
      if flips <> [] then begin
        Printf.printf "\nVerdict flips:\n";
        let table =
          Rp.create [ "fp"; "layer"; "flip"; "margin A MPa"; "margin B MPa" ]
        in
        List.iter
          (fun (m : Lg.matched) ->
            Rp.add_row table
              [
                Fp.short m.Lg.dm_fp;
                Printf.sprintf "M%d" m.Lg.dm_layer;
                flip_cell m.Lg.dm_flip;
                mpa_cell m.Lg.dm_margin_a;
                mpa_cell m.Lg.dm_margin_b;
              ])
          flips;
        Rp.print table
      end;
      (match Lg.top_movers ~k:top d with
      | [] -> ()
      | movers when d.Lg.df_max_abs_margin_drift > 0. ->
        Printf.printf "\nTop margin movers:\n";
        let table =
          Rp.create
            [ "fp"; "layer"; "margin A MPa"; "margin B MPa"; "drift MPa" ]
        in
        List.iter
          (fun (m : Lg.matched) ->
            Rp.add_row table
              [
                Fp.short m.Lg.dm_fp;
                Printf.sprintf "M%d" m.Lg.dm_layer;
                mpa_cell m.Lg.dm_margin_a;
                mpa_cell m.Lg.dm_margin_b;
                mpa_cell m.Lg.dm_margin_delta;
              ])
          movers;
        Rp.print table
      | _ -> ());
      if d.Lg.df_changed <> [] then begin
        Printf.printf "\nChanged structures (re-identified by shape):\n";
        let table =
          Rp.create
            [ "layer"; "nodes"; "segs"; "fp A -> fp B"; "verdict";
              "margin A MPa"; "margin B MPa" ]
        in
        List.iter
          (fun (c : Lg.changed) ->
            Rp.add_row table
              [
                Printf.sprintf "M%d" c.Lg.dc_layer;
                Rp.int_cell c.Lg.dc_nodes;
                Rp.int_cell c.Lg.dc_segments;
                Printf.sprintf "%s -> %s" (Fp.short c.Lg.dc_fp_a)
                  (Fp.short c.Lg.dc_fp_b);
                Printf.sprintf "%s -> %s"
                  (if c.Lg.dc_immortal_a then "immortal" else "mortal")
                  (if c.Lg.dc_immortal_b then "immortal" else "mortal");
                mpa_cell c.Lg.dc_margin_a;
                mpa_cell c.Lg.dc_margin_b;
              ])
          d.Lg.df_changed;
        Rp.print table
      end;
      List.iter
        (fun (e : Lg.entry) ->
          Printf.printf "added:   %s M%d (%d nodes, %d segments)\n"
            (Fp.short e.Lg.en_fp) e.Lg.en_layer e.Lg.en_nodes e.Lg.en_segments)
        d.Lg.df_added;
      List.iter
        (fun (e : Lg.entry) ->
          Printf.printf "removed: %s M%d (%d nodes, %d segments)\n"
            (Fp.short e.Lg.en_fp) e.Lg.en_layer e.Lg.en_nodes e.Lg.en_segments)
        d.Lg.df_removed;
      Option.iter (fun p -> write_json_doc p (Lg.diff_to_json d)) json_path;
      if fail_on_regression && d.Lg.df_regressions > 0 then begin
        Printf.printf "\nFAIL: %d regression(s) between %s and %s\n"
          d.Lg.df_regressions (Fp.short a.Lg.rn_id) (Fp.short b.Lg.rn_id);
        `Ok 1
      end
      else `Ok 0)

let diff_cmd =
  let run_a =
    Arg.(
      value
      & pos 0 string "prev"
      & info [] ~docv:"RUN_A"
          ~doc:
            "Baseline run: $(b,latest), $(b,prev) (default), a full run id \
             or a unique id prefix (>= 4 chars).")
  in
  let run_b =
    Arg.(
      value
      & pos 1 string "latest"
      & info [] ~docv:"RUN_B" ~doc:"Run to compare against the baseline \
                                    (default $(b,latest)).")
  in
  let top =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"K" ~doc:"Margin movers to list (default 10).")
  in
  let fail_on_regression =
    Arg.(
      value & flag
      & info [ "fail-on-regression" ]
          ~doc:
            "Exit $(b,1) when any matched structure flipped to mortal or \
             failed, or a re-identified edit went immortal to mortal.")
  in
  let term =
    Term.(
      ret
        (const (fun dir run_a run_b top json fail_on_regression ->
             diff_runs dir run_a run_b top json fail_on_regression)
        $ ledger_dir_arg $ run_a $ run_b $ top $ ledger_json_arg
        $ fail_on_regression))
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two recorded runs structure-by-structure (keyed by \
          content fingerprint): verdict flips, margin and timing drift, \
          added/removed/changed structures"
       ~man:
         [
           `S Manpage.s_exit_status;
           `P
             "$(b,0) on a clean comparison; $(b,1) when \
              $(b,--fail-on-regression) found regressions; $(b,2) with a \
              one-line diagnostic when a run cannot be resolved or the \
              ledger cannot be read.";
         ])
    term

let history_runs dir metric top json_path =
  let fail msg =
    Printf.eprintf "emcheck history: %s\n%!" msg;
    `Ok 2
  in
  match Lg.load ~dir with
  | Error msg -> fail msg
  | Ok [] ->
    Printf.printf "run ledger %s is empty — record runs with \
                   'emcheck analyze --record-run %s'\n"
      (Lg.ledger_path dir) dir;
    `Ok 0
  | Ok runs ->
    let trends = Lg.history ~metric runs in
    let metric_name, cell =
      match metric with
      | `Margin -> ("margin MPa", mpa_cell)
      | `Time -> ("solve ms", fun s -> Printf.sprintf "%.4f" (s *. 1e3))
    in
    Printf.printf "%d run(s), %d structure(s) tracked\n\n" (List.length runs)
      (List.length trends);
    let table =
      Rp.create
        [ "fp"; "layer"; "points"; "first " ^ metric_name;
          "last " ^ metric_name; "drift" ]
    in
    List.iteri
      (fun i (t : Lg.trend) ->
        if i < top then
          let first = List.nth_opt t.Lg.tr_points 0 in
          let last =
            match t.Lg.tr_points with
            | [] -> None
            | ps -> Some (List.nth ps (List.length ps - 1))
          in
          Rp.add_row table
            [
              Fp.short t.Lg.tr_fp;
              Printf.sprintf "M%d" t.Lg.tr_layer;
              Rp.int_cell (List.length t.Lg.tr_points);
              (match first with Some (_, v) -> cell v | None -> "-");
              (match last with Some (_, v) -> cell v | None -> "-");
              (match (first, last) with
              | Some (_, f), Some (_, l) -> cell (l -. f)
              | _ -> "-");
            ])
      trends;
    Rp.print table;
    if List.length trends > top then
      Printf.printf "(%d more; raise --top or use --json)\n"
        (List.length trends - top);
    Option.iter
      (fun p -> write_json_doc p (Lg.history_to_json ~metric trends))
      json_path;
    `Ok 0

let history_cmd =
  let metric =
    let metrics = [ ("margin", `Margin); ("time", `Time) ] in
    Arg.(
      value
      & opt (enum metrics) `Margin
      & info [ "metric" ] ~docv:"METRIC"
          ~doc:
            "Trend to report per structure: $(b,margin) (signed immortality \
             margin) or $(b,time) (per-structure solve wall time).")
  in
  let top =
    Arg.(
      value & opt int 20
      & info [ "top" ] ~docv:"N"
          ~doc:"Structures to list (default 20; the JSON output is \
                always complete).")
  in
  let term =
    Term.(
      ret
        (const (fun dir metric top json -> history_runs dir metric top json)
        $ ledger_dir_arg $ metric $ top $ ledger_json_arg))
  in
  Cmd.v
    (Cmd.info "history"
       ~doc:
         "Per-structure trend of margin or solve time across every run \
          recorded in the ledger"
       ~man:
         [
           `S Manpage.s_exit_status;
           `P
             "$(b,0) on success (including an empty ledger); $(b,2) with a \
              one-line diagnostic when the ledger cannot be read.";
         ])
    term

(* ------------------------------------------------------------------ *)
(* stats                                                               *)

(* Run the full pipeline with telemetry forced on and print the span,
   hot-path and metric rollups as tables (each bounded to --top rows) —
   the terminal-only view of what --trace / --metrics / --profile export
   for external tools. *)
let stats_netlist path tech sigma_t temperature jobs top trace_path
    metrics_path profile_path profile_format =
  if top < 1 then invalid_arg "stats: --top must be at least 1";
  let material = material_of ~sigma_t ~temperature in
  let trace = Obs.Trace.create () in
  Obs.Trace.enable trace;
  Obs.Metrics.set_enabled true;
  let _, v = Flow.run_deck ~material ?jobs ~tech path in
  Format.printf "%a@.@." Flow.pp_summary v.Flow.result;
  let bounded name xs =
    let n = List.length xs in
    if n > top then Printf.printf "%s (top %d of %d):\n" name top n
    else Printf.printf "%s:\n" name;
    List.filteri (fun i _ -> i < top) xs
  in
  (* The deck's own stages are spans, so neither table is ever empty. *)
  let span_table =
    Rp.create
      [ "span"; "count"; "total ms"; "max ms"; "alloc Mw"; "minor/major GCs";
        "errors" ]
  in
  (* Busiest spans first so the --top cut keeps the interesting rows. *)
  Obs.Trace.aggregate trace
  |> List.sort (fun (a : Obs.Trace.agg) (b : Obs.Trace.agg) ->
         Float.compare b.Obs.Trace.total_us a.Obs.Trace.total_us)
  |> bounded "Span summary"
  |> List.iter (fun (a : Obs.Trace.agg) ->
         Rp.add_row span_table
           [
             a.Obs.Trace.agg_name;
             Rp.int_cell a.Obs.Trace.count;
             Printf.sprintf "%.3f" (a.Obs.Trace.total_us /. 1e3);
             Printf.sprintf "%.3f" (a.Obs.Trace.max_us /. 1e3);
             Printf.sprintf "%.2f" (a.Obs.Trace.total_allocated_words /. 1e6);
             Printf.sprintf "%d/%d" a.Obs.Trace.total_minor_collections
               a.Obs.Trace.total_major_collections;
             Rp.int_cell a.Obs.Trace.errors;
           ]);
  Rp.print span_table;
  print_hot_paths ~top trace;
  Obs.Runtime.sample_now ();
  let metric_table = Rp.create [ "metric"; "labels"; "value" ] in
  print_newline ();
  bounded "Metrics" (Obs.Metrics.snapshot ())
  |> List.iter (fun (s : Obs.Metrics.sample) ->
         let labels =
           String.concat ","
             (List.map (fun (k, v) -> k ^ "=" ^ v) s.Obs.Metrics.s_labels)
         in
         let value =
           match s.Obs.Metrics.s_kind with
           | "histogram" ->
             Printf.sprintf "count=%d sum=%.6gs" s.Obs.Metrics.s_count
               s.Obs.Metrics.s_value
           | _ -> Printf.sprintf "%.6g" s.Obs.Metrics.s_value
         in
         Rp.add_row metric_table [ s.Obs.Metrics.s_name; labels; value ]);
  Rp.print metric_table;
  export_telemetry ~trace_path ~metrics_path (Some trace);
  export_profile ~profile_path ~profile_format (Some trace);
  (* stats forced the collectors on; don't leak that past the command. *)
  Obs.Trace.disable ();
  Obs.Metrics.set_enabled false;
  `Ok 0

let stats_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"NETLIST" ~doc:"SPICE power-grid netlist to profile.")
  in
  let top =
    Arg.(
      value & opt int 20
      & info [ "top" ] ~docv:"N"
          ~doc:
            "Bound every aggregate table (span summary, hot paths, metrics) \
             to its $(docv) most significant rows (default 20).")
  in
  let term =
    Term.(
      ret
        (const (fun path tech sigma_t temperature jobs top trace_path
                    metrics_path profile_path profile_format log_level
                    log_json ->
             let finish_log = start_logging ~log_level ~log_json in
             let r =
               match
                 stats_netlist path tech sigma_t temperature jobs top
                   trace_path metrics_path profile_path profile_format
               with
               | `Ok n -> `Ok n
               | exception e -> (
                 match error_of_exn ~path e with
                 | Some (`Refused msg | `Failed msg) -> `Error (false, msg)
                 | None -> raise e)
             in
             finish_log ();
             r)
        $ path $ tech_arg $ sigma_t_arg $ temperature_arg $ jobs_arg $ top
        $ trace_arg $ metrics_arg $ profile_arg $ profile_format_arg
        $ log_level_arg $ log_json_arg))
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Profile a netlist analysis: span and metric summary tables")
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
               let sol = Spice.Mna.solve net in
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
            analyze_cmd; explain_cmd; diff_cmd; history_cmd; stats_cmd;
            wire_cmd; verify_cmd; material_cmd;
          ]))

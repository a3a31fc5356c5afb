module Cl = Em_core.Classify
module Dg = Em_core.Diag

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape_into buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if Float.is_finite f then begin
      (* Shortest representation that round-trips. *)
      let short = Printf.sprintf "%.12g" f in
      if float_of_string short = f then Buffer.add_string buf short
      else Buffer.add_string buf (Printf.sprintf "%.17g" f)
    end
    else Buffer.add_string buf "null"
  | String s -> escape_into buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        emit buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (key, value) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_into buf key;
        Buffer.add_char buf ':';
        emit buf value)
      fields;
    Buffer.add_char buf '}'

let to_string json =
  let buf = Buffer.create 256 in
  emit buf json;
  Buffer.contents buf

let to_channel oc json = output_string oc (to_string json)

let of_counts (c : Cl.counts) =
  Obj
    [
      ("tp", Int c.Cl.tp); ("tn", Int c.Cl.tn); ("fp", Int c.Cl.fp);
      ("fn", Int c.Cl.fn); ("total", Int (Cl.total c));
      ("accuracy", Float (Cl.accuracy c));
    ]

(* A measurement that is absent off Linux: the key is left out. *)
let optional key = function Some x -> [ (key, Float x) ] | None -> []

let of_stage (s : Pipeline.stage) =
  Obj
    ([
       ("name", String s.Pipeline.name);
       ("wall_s", Float s.Pipeline.wall_s);
       ("cpu_s", Float s.Pipeline.cpu_s);
       ("minor_words", Float s.Pipeline.minor_words);
       ("major_words", Float s.Pipeline.major_words);
       ("promoted_words", Float s.Pipeline.promoted_words);
       ("allocated_words", Float (Pipeline.allocated_words s));
     ]
    @ optional "rss_mb" s.Pipeline.rss_mb
    @ optional "hwm_growth_mb" s.Pipeline.hwm_growth_mb
    @ [ ("error", Bool s.Pipeline.error) ])

let of_stages stages = List (Stdlib.List.map of_stage stages)

(* -------------------------------------------------------------------- *)
(* Telemetry                                                            *)

let of_hot_path (h : Obs.Profile.hot_path) =
  Obj
    [
      ("path", List (Stdlib.List.map (fun s -> String s) h.Obs.Profile.hp_path));
      ("count", Int h.Obs.Profile.hp_count);
      ("total_us", Float h.Obs.Profile.hp_total_us);
      ("self_us", Float h.Obs.Profile.hp_self_us);
      ("alloc_words", Float h.Obs.Profile.hp_alloc_words);
      ("self_alloc_words", Float h.Obs.Profile.hp_self_alloc_words);
    ]

let of_hot_paths hs = List (Stdlib.List.map of_hot_path hs)

let take n xs =
  Stdlib.List.filteri (fun i _ -> i < n) xs

let of_telemetry ?(top = 20) trace =
  Obj
    [
      ("spans", Int (Obs.Trace.num_events trace));
      ("dropped_spans", Int (Obs.Trace.dropped_spans trace));
      ("span_wall_us", Float (Obs.Profile.span_wall_us trace));
      ("hot_paths", of_hot_paths (take top (Obs.Profile.attribute trace)));
    ]

let of_diag_source = function
  | Dg.Global -> Obj [ ("kind", String "global") ]
  | Dg.Netlist_line line ->
    Obj [ ("kind", String "netlist-line"); ("line", Int line) ]
  | Dg.Structure { index; layer } ->
    Obj
      [ ("kind", String "structure"); ("index", Int index);
        ("layer", Int layer) ]
  | Dg.Node { structure; layer; node } ->
    Obj
      [ ("kind", String "node"); ("structure", Int structure);
        ("layer", Int layer); ("node", Int node) ]

let of_diag (d : Dg.t) =
  Obj
    [
      ("severity", String (Dg.severity_to_string d.Dg.severity));
      ("code", String d.Dg.code);
      ("source", of_diag_source d.Dg.source);
      ("message", String d.Dg.message);
    ]

let of_diags ds = List (Stdlib.List.map of_diag ds)

module Au = Em_core.Audit

let of_contribution (ct : Au.contribution) =
  Obj
    [
      ("segment", Int ct.Au.ct_seg);
      ("from_node", Int ct.Au.ct_parent);
      ("to_node", Int ct.Au.ct_node);
      ("delta_pa", Float ct.Au.ct_delta);
    ]

let of_audit ~tol (a : Au.t) =
  let res = a.Au.au_residuals in
  Obj
    [
      ("index", Int a.Au.au_index);
      ("layer", Int a.Au.au_layer);
      ("nodes", Int a.Au.au_nodes);
      ("segments", Int a.Au.au_segments);
      ("threshold_pa", Float a.Au.au_threshold);
      ("max_stress_pa", Float a.Au.au_max_stress);
      ("max_stress_node", Int a.Au.au_max_node);
      ("margin_pa", Float a.Au.au_margin);
      ("margin_rel", Float a.Au.au_rel_margin);
      ("immortal", Bool a.Au.au_immortal);
      ( "residuals",
        Obj
          [
            ("flux_rel", Float res.Au.flux_rel);
            ("mass_rel", Float res.Au.mass_rel);
            ("kcl_interior_rel", Float res.Au.kcl_interior_rel);
          ] );
      ("worst_residual", Float (Au.worst_residual a));
      ( "violations",
        List
          (Stdlib.List.map
             (fun (name, v) -> Obj [ ("residual", String name); ("value", Float v) ])
             (Au.violations ~tol a)) );
      ("critical_path_len", Int (Array.length a.Au.au_path));
      ( "top_contributions",
        List (Stdlib.List.map of_contribution (Array.to_list a.Au.au_top)) );
    ]

let of_audit_report ~tol (audits : Au.t option array) =
  let su = Au.summarize ~tol audits in
  let recs = Stdlib.List.filter_map Fun.id (Array.to_list audits) in
  Obj
    [
      ("enabled", Bool true);
      ("tol", Float tol);
      ("structures_audited", Int su.Au.su_audited);
      ("violations", Int su.Au.su_violations);
      ("worst_residual", Float su.Au.su_worst_residual);
      ("min_margin_pa", Float su.Au.su_min_margin);
      ("min_margin_rel", Float su.Au.su_min_rel_margin);
      ("min_margin_structure", Int su.Au.su_min_margin_index);
      ("structures", List (Stdlib.List.map (of_audit ~tol) recs));
    ]

let of_mna (sol : Spice.Mna.solution) =
  Obj
    [
      ("free_nodes", Int sol.Spice.Mna.free_nodes);
      ("nnz_l", Int sol.Spice.Mna.fill);
      ("nets", Int sol.Spice.Mna.nets);
      ("residual", Float sol.Spice.Mna.residual);
    ]

let of_flow_result (r : Em_flow.result) =
  Obj
    ([
      ("structures", Int r.Em_flow.num_structures);
      ("failed_structures", Int (Em_flow.failed_structures r));
      ("segments", Int r.Em_flow.num_segments);
      ("diagnostics", of_diags r.Em_flow.diags);
      ("blech_vs_exact", of_counts r.Em_flow.counts);
      ( "maxpath_vs_exact",
        match r.Em_flow.maxpath_counts with
        | Some c -> of_counts c
        | None -> Null );
      ("stages", of_stages r.Em_flow.stages);
    ]
    @ optional "peak_rss_mb" r.Em_flow.peak_rss_mb)

let of_variation (r : Variation.result) =
  Obj
    [
      ("samples", Int r.Variation.samples);
      (* Results for a given seed are comparable only within one
         version of the normal stream. *)
      ("rng_stream", Int Numerics.Rng.stream_version);
      ("mc_s", Float r.Variation.mc_time);
      ("diagnostics", of_diags r.Variation.diags);
      ( "structures",
        List
          (List.map
             (fun (st : Variation.structure_stats) ->
               Obj
                 [
                   ("index", Int st.Variation.index);
                   ("layer", Int st.Variation.layer);
                   ("nominal_immortal", Bool st.Variation.nominal_immortal);
                   ("samples_ok", Int st.Variation.samples_ok);
                   ("samples_failed", Int st.Variation.samples_failed);
                   (* Non-finite floats (all-degenerate nan probability)
                      render as null. *)
                   ( "mortality_probability",
                     Float st.Variation.mortality_probability );
                   ("mean_max_stress_pa", Float st.Variation.mean_max_stress);
                   ("std_max_stress_pa", Float st.Variation.std_max_stress);
                   ("q50_max_stress_pa", Float st.Variation.q50_max_stress);
                   ("q90_max_stress_pa", Float st.Variation.q90_max_stress);
                   ("q99_max_stress_pa", Float st.Variation.q99_max_stress);
                 ])
             r.Variation.stats) );
    ]

let of_layer_stats stats =
  List
    (List.map
       (fun (st : Layer_report.layer_stats) ->
         Obj
           [
             ("level", Int st.Layer_report.level);
             ("structures", Int st.Layer_report.structures);
             ("segments", Int st.Layer_report.segments);
             ("total_length_m", Float st.Layer_report.total_length);
             ("max_abs_j", Float st.Layer_report.max_abs_j);
             ("max_jl", Float st.Layer_report.max_jl);
             ("max_stress_pa", Float st.Layer_report.max_stress);
             ("mortal_segments", Int st.Layer_report.mortal_segments);
             ("counts", of_counts st.Layer_report.counts);
           ])
       stats)

let of_fixer_plan (p : Fixer.plan) =
  Obj
    [
      ("mortal_structures", Int p.Fixer.mortal_structures);
      ("immortal_structures", Int p.Fixer.immortal_structures);
      ("total_extra_area_m2", Float p.Fixer.total_extra_area);
      ( "fixes",
        List
          (List.map
             (fun (f : Fixer.fix) ->
               Obj
                 [
                   ("index", Int f.Fixer.index);
                   ("layer", Int f.Fixer.layer);
                   ("segments", Int f.Fixer.segments);
                   ("max_stress_pa", Float f.Fixer.max_stress);
                   ("widen", Float f.Fixer.widen);
                   ("extra_area_m2", Float f.Fixer.extra_area);
                 ])
             p.Fixer.fixes) );
    ]

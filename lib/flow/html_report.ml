module M = Em_core.Material
module U = Em_core.Units
module Cl = Em_core.Classify

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let style =
  {|body{font-family:system-ui,sans-serif;margin:2em auto;max-width:70em;
color:#222;line-height:1.45}
h1{font-size:1.5em}h2{font-size:1.15em;margin-top:2em}
table{border-collapse:collapse;margin:0.8em 0}
th,td{border:1px solid #ccc;padding:0.3em 0.7em;font-size:0.92em}
th{background:#f0f2f4;text-align:center}
td.num{text-align:right;font-variant-numeric:tabular-nums}
td.name{text-align:left}
.bad{color:#b3261e;font-weight:600}.ok{color:#1b6e3c;font-weight:600}
.note{color:#555;font-size:0.9em}|}

let table buf headers rows =
  Buffer.add_string buf "<table><tr>";
  List.iter (fun h -> Buffer.add_string buf ("<th>" ^ escape h ^ "</th>")) headers;
  Buffer.add_string buf "</tr>";
  List.iter
    (fun row ->
      Buffer.add_string buf "<tr>";
      List.iter
        (fun (cls, cell) ->
          Buffer.add_string buf
            (Printf.sprintf "<td class='%s'>%s</td>" cls (escape cell)))
        row;
      Buffer.add_string buf "</tr>")
    rows;
  Buffer.add_string buf "</table>"

let num x = ("num", x)

let name x = ("name", x)

let page ~title ?(material = M.cu_dac21) ~tech ~compacts (r : Em_flow.result) =
  let buf = Buffer.create 16384 in
  Buffer.add_string buf "<!DOCTYPE html><html><head><meta charset='utf-8'>";
  Buffer.add_string buf
    (Printf.sprintf "<title>%s</title><style>%s</style></head><body>"
       (escape title) style);
  Buffer.add_string buf (Printf.sprintf "<h1>%s</h1>" (escape title));
  Buffer.add_string buf
    (Printf.sprintf
       "<p class='note'>%s &middot; (jl)<sub>crit</sub> = %.3f A/&micro;m \
        &middot; sigma<sub>crit</sub> &minus; sigma<sub>T</sub> = %.1f MPa \
        &middot; T = %g K</p>"
       (escape tech.Pdn.Tech.name)
       (U.a_per_m_to_a_per_um (M.jl_crit material))
       (U.pa_to_mpa (M.effective_critical_stress material))
       material.M.temperature);
  (* Summary. *)
  let c = r.Em_flow.counts in
  Buffer.add_string buf "<h2>Traditional Blech filter vs exact test</h2>";
  table buf
    [ "segments"; "structures"; "TP"; "TN"; "FP (missed mortal)";
      "FN (overdesign)"; "accuracy" ]
    [
      [
        num (string_of_int r.Em_flow.num_segments);
        num (string_of_int r.Em_flow.num_structures);
        num (string_of_int c.Cl.tp);
        num (string_of_int c.Cl.tn);
        num (string_of_int c.Cl.fp);
        num (string_of_int c.Cl.fn);
        num (Printf.sprintf "%.1f%%" (100. *. Cl.accuracy c));
      ];
    ];
  if c.Cl.fp > 0 then
    Buffer.add_string buf
      (Printf.sprintf
         "<p class='bad'>The traditional filter clears %d mortal segments \
          on this grid.</p>"
         c.Cl.fp);
  (* Scatter. *)
  Buffer.add_string buf "<h2>Current density vs length</h2>";
  Buffer.add_string buf
    (Svg.scatter
       {
         Svg.width = 760;
         height = 420;
         title = "per-segment j vs l with the critical frontier";
         x_label = "segment length (um, log)";
         y_label = "|j| (A/m^2, log)";
         jl_crit = Some (M.jl_crit material);
       }
       (Scatter.of_result compacts r));
  (* Per-layer breakdown. *)
  Buffer.add_string buf "<h2>Per-layer breakdown</h2>";
  let stats = Layer_report.of_result compacts r in
  table buf
    [ "layer"; "structures"; "segments"; "max |j| (A/m^2)"; "max jl (A/um)";
      "max stress (MPa)"; "mortal"; "FP"; "FN" ]
    (List.map
       (fun (st : Layer_report.layer_stats) ->
         [
           name (Printf.sprintf "M%d" st.Layer_report.level);
           num (string_of_int st.Layer_report.structures);
           num (string_of_int st.Layer_report.segments);
           num (Printf.sprintf "%.2e" st.Layer_report.max_abs_j);
           num (Printf.sprintf "%.3f" (st.Layer_report.max_jl *. 1e-6));
           num (Printf.sprintf "%.1f" (st.Layer_report.max_stress *. 1e-6));
           num (string_of_int st.Layer_report.mortal_segments);
           num (string_of_int st.Layer_report.counts.Cl.fp);
           num (string_of_int st.Layer_report.counts.Cl.fn);
         ])
       stats);
  (* Endangered structures. *)
  Buffer.add_string buf "<h2>Most endangered structures</h2>";
  let structures = Array.of_list compacts in
  table buf
    [ "layer"; "segments"; "peak stress (MPa)"; "margin (MPa)"; "worst node" ]
    (List.filteri (fun i _ -> i < 12) (Em_flow.ranking r)
    |> List.map (fun i ->
           let st = r.Em_flow.structure_stats.(i) in
           [
             name (Printf.sprintf "M%d" st.Em_flow.st_layer);
             num (string_of_int st.Em_flow.st_segments);
             num (Printf.sprintf "%.2f" (U.pa_to_mpa st.Em_flow.st_max_stress));
             num (Printf.sprintf "%+.2f" (U.pa_to_mpa st.Em_flow.st_margin));
             name (Extract.node_name structures.(i) st.Em_flow.st_peak_node);
           ]));
  (* Repair plan. *)
  let plan = Fixer.plan_of_result ~material compacts r in
  Buffer.add_string buf "<h2>Repair plan (uniform widening)</h2>";
  if plan.Fixer.fixes = [] then
    Buffer.add_string buf "<p class='ok'>No mortal structures: nothing to fix.</p>"
  else begin
    Buffer.add_string buf
      (Printf.sprintf
         "<p>%d mortal structures; total extra metal %.1f &micro;m&sup2;.</p>"
         plan.Fixer.mortal_structures
         (plan.Fixer.total_extra_area *. 1e12));
    table buf
      [ "layer"; "segments"; "peak (MPa)"; "widen"; "extra area (um^2)" ]
      (List.filteri (fun i _ -> i < 12) plan.Fixer.fixes
      |> List.map (fun (f : Fixer.fix) ->
             [
               name (Printf.sprintf "M%d" f.Fixer.layer);
               num (string_of_int f.Fixer.segments);
               num (Printf.sprintf "%.1f" (f.Fixer.max_stress *. 1e-6));
               num (Printf.sprintf "%.2fx" f.Fixer.widen);
               num (Printf.sprintf "%.1f" (f.Fixer.extra_area *. 1e12));
             ]))
  end;
  Buffer.add_string buf
    "<p class='note'>Generated by blech (linear-time generalized Blech \
     criterion, DAC'21 reproduction).</p></body></html>";
  Buffer.contents buf

let write path ~title ?material ~tech ~compacts r =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (page ~title ?material ~tech ~compacts r))

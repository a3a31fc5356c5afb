module M = Em_core.Material
module St = Em_core.Structure
module Im = Em_core.Immortality
module Bl = Em_core.Blech
module Cl = Em_core.Classify

type layer_stats = {
  level : int;
  structures : int;
  segments : int;
  total_length : float;
  max_abs_j : float;
  max_jl : float;
  max_stress : float;
  mortal_segments : int;
  counts : Cl.counts;
}

let empty_stats level =
  {
    level;
    structures = 0;
    segments = 0;
    total_length = 0.;
    max_abs_j = 0.;
    max_jl = 0.;
    max_stress = Float.nan;
    mortal_segments = 0;
    counts = Cl.empty;
  }

(* Fold one structure, its segments [segs.(lo .. lo + n - 1)], into its
   layer's row. *)
let add_structure by_level ~level ~max_stress (segs : Em_flow.segment_record array) lo n =
  let stats =
    match Hashtbl.find_opt by_level level with
    | Some st -> st
    | None -> empty_stats level
  in
  let counts = ref stats.counts in
  let mortal = ref stats.mortal_segments in
  let max_abs_j = ref stats.max_abs_j in
  let max_jl = ref stats.max_jl in
  let total_length = ref stats.total_length in
  for k = lo to lo + n - 1 do
    let seg = segs.(k) in
    let exact = seg.Em_flow.exact_immortal in
    counts :=
      Cl.add_pair !counts ~predicted_immortal:seg.Em_flow.blech_immortal
        ~actual_immortal:exact;
    if not exact then incr mortal;
    max_abs_j := Float.max !max_abs_j (Float.abs seg.Em_flow.j);
    max_jl := Float.max !max_jl (Float.abs seg.Em_flow.j *. seg.Em_flow.length);
    total_length := !total_length +. seg.Em_flow.length
  done;
  let max_stress =
    if Float.is_nan stats.max_stress then max_stress
    else Float.max stats.max_stress max_stress
  in
  Hashtbl.replace by_level level
    {
      stats with
      structures = stats.structures + 1;
      segments = stats.segments + n;
      total_length = !total_length;
      max_abs_j = !max_abs_j;
      max_jl = !max_jl;
      max_stress;
      mortal_segments = !mortal;
      counts = !counts;
    }

let rows by_level =
  Hashtbl.fold (fun _ st acc -> st :: acc) by_level []
  |> List.sort (fun a b -> compare a.level b.level)

let of_result (r : Em_flow.result) =
  let by_level = Hashtbl.create 8 and lo = ref 0 in
  Array.iter
    (fun (st : Em_flow.structure_stat) ->
      if st.Em_flow.st_ok then begin
        add_structure by_level ~level:st.Em_flow.st_layer
          ~max_stress:st.Em_flow.st_max_stress r.Em_flow.segments !lo
          st.Em_flow.st_segments;
        lo := !lo + st.Em_flow.st_segments
      end)
    r.Em_flow.structure_stats;
  rows by_level

let analyze ?(material = M.cu_dac21) structures =
  let by_level = Hashtbl.create 8 in
  List.iter
    (fun (es : Extract.em_structure) ->
      let s = es.Extract.structure in
      let report = Im.check material s in
      let blech = Bl.filter material s in
      let stress = report.Im.solution.Em_core.Steady_state.node_stress in
      let segs =
        Array.init (St.num_segments s) (fun k ->
            let seg = St.seg s k in
            let tail, head = St.endpoints s k in
            {
              Em_flow.layer = es.Extract.layer_level;
              length = seg.St.length;
              j = seg.St.current_density;
              stress_tail = stress.(tail);
              stress_head = stress.(head);
              blech_immortal = blech.(k);
              exact_immortal = report.Im.segment_immortal.(k);
              maxpath_immortal = report.Im.segment_immortal.(k);
            })
      in
      add_structure by_level ~level:es.Extract.layer_level
        ~max_stress:report.Im.max_stress segs 0 (Array.length segs))
    structures;
  rows by_level

let to_table stats =
  let t =
    Report.create
      [
        "layer"; "structs"; "segments"; "len (mm)"; "max |j|"; "max jl (A/um)";
        "max MPa"; "mortal"; "FP"; "FN";
      ]
  in
  List.iter
    (fun st ->
      Report.add_row t
        [
          Printf.sprintf "M%d" st.level;
          Report.int_cell st.structures;
          Report.int_cell st.segments;
          Printf.sprintf "%.2f" (st.total_length *. 1e3);
          Printf.sprintf "%.2e" st.max_abs_j;
          Printf.sprintf "%.3f" (st.max_jl *. 1e-6);
          (if Float.is_nan st.max_stress then "-"
           else Printf.sprintf "%.1f" (st.max_stress *. 1e-6));
          Report.int_cell st.mortal_segments;
          Report.int_cell st.counts.Cl.fp;
          Report.int_cell st.counts.Cl.fn;
        ])
    stats;
  t

let pp ppf stats = Format.fprintf ppf "%s" (Report.render (to_table stats))

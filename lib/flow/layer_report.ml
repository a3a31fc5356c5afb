module M = Em_core.Material
module St = Em_core.Structure
module Im = Em_core.Immortality
module Bl = Em_core.Blech
module Cl = Em_core.Classify
module Cc = Em_core.Compact

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

(* Fold one structure into its layer's row: its segments' lengths and
   current densities (columns) and verdicts, in segment order, so the
   length total is summed in the same order on every path. *)
let add_structure by_level ~level ~max_stress ~length ~j ~blech ~exact =
  let stats =
    match Hashtbl.find_opt by_level level with
    | Some st -> st
    | None -> empty_stats level
  in
  let n = Array.length length in
  let counts = ref stats.counts in
  let mortal = ref stats.mortal_segments in
  let max_abs_j = ref stats.max_abs_j in
  let max_jl = ref stats.max_jl in
  let total_length = ref stats.total_length in
  for k = 0 to n - 1 do
    let exact = exact k in
    counts := Cl.add_pair !counts ~predicted_immortal:(blech k) ~actual_immortal:exact;
    if not exact then incr mortal;
    max_abs_j := Float.max !max_abs_j (Float.abs j.(k));
    max_jl := Float.max !max_jl (Float.abs j.(k) *. length.(k));
    total_length := !total_length +. length.(k)
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

let of_result compacts (r : Em_flow.result) =
  let by_level = Hashtbl.create 8 in
  List.iteri
    (fun i (cs : Extract.compact_structure) ->
      let st = r.Em_flow.structure_stats.(i) in
      if st.Em_flow.st_ok then begin
        let c = cs.Extract.compact in
        let has bit k = Em_flow.segment_verdict r i k land bit <> 0 in
        add_structure by_level ~level:st.Em_flow.st_layer
          ~max_stress:st.Em_flow.st_max_stress ~length:c.Cc.length ~j:c.Cc.j
          ~blech:(has Em_flow.blech_bit) ~exact:(has Em_flow.exact_bit)
      end)
    compacts;
  rows by_level

let analyze ?(material = M.cu_dac21) structures =
  let by_level = Hashtbl.create 8 in
  List.iter
    (fun (es : Extract.em_structure) ->
      let s = es.Extract.structure in
      let report = Im.check material s in
      let blech = Bl.filter material s in
      let seg k = St.seg s k in
      add_structure by_level ~level:es.Extract.layer_level
        ~max_stress:report.Im.max_stress
        ~length:(Array.init (St.num_segments s) (fun k -> (seg k).St.length))
        ~j:(Array.init (St.num_segments s) (fun k -> (seg k).St.current_density))
        ~blech:(Array.get blech)
        ~exact:(Array.get report.Im.segment_immortal))
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

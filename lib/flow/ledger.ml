module Fp = Em_core.Fingerprint
module M = Em_core.Material
module Dg = Em_core.Diag
module Au = Em_core.Audit
module J = Json_out

let schema = "emledger1"

type entry = {
  en_fp : string;
  en_occ : int;
  en_layer : int;
  en_nodes : int;
  en_segments : int;
  en_ok : bool;
  en_immortal : bool;
  en_margin_pa : float;
  en_solve_s : float;
  en_worst_residual : float option;
  en_diags : string list;
}

type run = {
  rn_id : string;
  rn_timestamp : string;
  rn_deck : string;
  rn_deck_hash : string;
  rn_tech : string;
  rn_jobs : int;
  rn_audited : bool;
  rn_sigma_th_pa : float;
  rn_structures : int;
  rn_segments : int;
  rn_immortal : int;
  rn_mortal : int;
  rn_failed : int;
  rn_analysis_s : float;
  rn_entries : entry list;
}

(* Ledger telemetry: recorded on append, matched/changed on diff. *)
let runs_recorded =
  Obs.Metrics.counter ~help:"Analysis runs appended to a run ledger"
    "em_ledger_runs_recorded_total"

let structures_matched =
  Obs.Metrics.counter
    ~help:"Structures matched by identical fingerprint across diffed runs"
    "em_ledger_structures_matched_total"

let structures_changed =
  Obs.Metrics.counter
    ~help:
      "Structures that drifted across diffed runs (verdict flips plus \
       re-identified geometry edits)"
    "em_ledger_structures_changed_total"

let id_nonce = ref 0

let fresh_run_id ~deck_hash ~timestamp =
  incr id_nonce;
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%s|%s|%d|%d" deck_hash timestamp (Unix.getpid ())
          !id_nonce))

let entries_of_result ?(material = M.cu_dac21)
    (compacts : Extract.compact_structure list) (r : Em_flow.result) =
  let stats = r.Em_flow.structure_stats in
  let n = Array.length stats in
  if List.length compacts <> n then
    invalid_arg "Ledger.entries_of_result: compacts/result length mismatch";
  (* Diagnostic codes grouped by structure index, batch order. *)
  let diags = Array.make n [] in
  List.iter
    (fun (d : Dg.t) ->
      let at i = if i >= 0 && i < n then diags.(i) <- d.Dg.code :: diags.(i) in
      match d.Dg.source with
      | Dg.Structure { index; _ } -> at index
      | Dg.Node { structure; _ } -> at structure
      | Dg.Global | Dg.Netlist_line _ -> ())
    r.Em_flow.diags;
  let occ = Hashtbl.create 64 in
  List.mapi
    (fun i (cs : Extract.compact_structure) ->
      let st = stats.(i) in
      let fp =
        Fp.of_compact ~layer:cs.Extract.cs_layer_level ~material
          cs.Extract.compact
      in
      let k = match Hashtbl.find_opt occ fp with Some k -> k | None -> 0 in
      Hashtbl.replace occ fp (k + 1);
      {
        en_fp = fp;
        en_occ = k;
        en_layer = st.Em_flow.st_layer;
        en_nodes = st.Em_flow.st_nodes;
        en_segments = st.Em_flow.st_segments;
        en_ok = st.Em_flow.st_ok;
        en_immortal = st.Em_flow.st_immortal;
        en_margin_pa = st.Em_flow.st_margin;
        en_solve_s = st.Em_flow.st_solve_s;
        en_worst_residual = Option.map Au.worst_residual r.Em_flow.audits.(i);
        en_diags = List.rev diags.(i);
      })
    compacts

(* ------------------------------------------------------------------ *)
(* Serialization. Field order is fixed and non-finite floats are
   omitted (not emitted as null), so to_json ∘ of_json round-trips
   byte-identically. *)

let entry_to_json e =
  let base =
    [
      ("fp", J.String e.en_fp);
      ("occ", J.Int e.en_occ);
      ("layer", J.Int e.en_layer);
      ("nodes", J.Int e.en_nodes);
      ("segments", J.Int e.en_segments);
      ("ok", J.Bool e.en_ok);
      ("immortal", J.Bool e.en_immortal);
    ]
  in
  let margin =
    if Float.is_finite e.en_margin_pa then
      [ ("margin_pa", J.Float e.en_margin_pa) ]
    else []
  in
  let solve = [ ("solve_s", J.Float e.en_solve_s) ] in
  let residual =
    match e.en_worst_residual with
    | Some w when Float.is_finite w -> [ ("worst_residual", J.Float w) ]
    | _ -> []
  in
  let diags =
    match e.en_diags with
    | [] -> []
    | ds -> [ ("diags", J.List (List.map (fun c -> J.String c) ds)) ]
  in
  J.Obj (base @ margin @ solve @ residual @ diags)

let run_to_json r =
  J.Obj
    [
      ("schema", J.String schema);
      ("id", J.String r.rn_id);
      ("timestamp", J.String r.rn_timestamp);
      ("deck", J.String r.rn_deck);
      ("deck_hash", J.String r.rn_deck_hash);
      ("tech", J.String r.rn_tech);
      ("jobs", J.Int r.rn_jobs);
      ("audited", J.Bool r.rn_audited);
      ("sigma_th_pa", J.Float r.rn_sigma_th_pa);
      ("structures", J.Int r.rn_structures);
      ("segments", J.Int r.rn_segments);
      ("immortal", J.Int r.rn_immortal);
      ("mortal", J.Int r.rn_mortal);
      ("failed", J.Int r.rn_failed);
      ("analysis_s", J.Float r.rn_analysis_s);
      ("entries", J.List (List.map entry_to_json r.rn_entries));
    ]

(* Readback helpers: strict on presence and type, permissive on
   Int/Float for numbers (Json_in parses integral literals as Int). *)
let ( let* ) = Result.bind

let field name conv j =
  match Json_in.member name j with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v -> (
    match conv v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "field %S has the wrong type" name))

let get_string name j = field name Json_in.string_value j
let get_bool name j = field name Json_in.bool_value j
let get_float name j = field name Json_in.number j

let get_int name j =
  field name
    (fun v ->
      match Json_in.number v with
      | Some f when Float.is_integer f -> Some (int_of_float f)
      | _ -> None)
    j

let entry_of_json j =
  let* en_fp = get_string "fp" j in
  let* en_occ = get_int "occ" j in
  let* en_layer = get_int "layer" j in
  let* en_nodes = get_int "nodes" j in
  let* en_segments = get_int "segments" j in
  let* en_ok = get_bool "ok" j in
  let* en_immortal = get_bool "immortal" j in
  let en_margin_pa =
    match Json_in.member "margin_pa" j with
    | Some v -> Option.value ~default:Float.nan (Json_in.number v)
    | None -> Float.nan
  in
  let* en_solve_s = get_float "solve_s" j in
  let en_worst_residual =
    Option.bind (Json_in.member "worst_residual" j) Json_in.number
  in
  let en_diags =
    match Option.bind (Json_in.member "diags" j) Json_in.list_value with
    | Some l -> List.filter_map Json_in.string_value l
    | None -> []
  in
  Ok
    {
      en_fp;
      en_occ;
      en_layer;
      en_nodes;
      en_segments;
      en_ok;
      en_immortal;
      en_margin_pa;
      en_solve_s;
      en_worst_residual;
      en_diags;
    }

let run_of_json j =
  let* tag = get_string "schema" j in
  if not (String.equal tag schema) then
    Error (Printf.sprintf "unknown ledger schema %S (expected %S)" tag schema)
  else
    let* rn_id = get_string "id" j in
    let* rn_timestamp = get_string "timestamp" j in
    let* rn_deck = get_string "deck" j in
    let* rn_deck_hash = get_string "deck_hash" j in
    let* rn_tech = get_string "tech" j in
    let* rn_jobs = get_int "jobs" j in
    let* rn_audited = get_bool "audited" j in
    let* rn_sigma_th_pa = get_float "sigma_th_pa" j in
    let* rn_structures = get_int "structures" j in
    let* rn_segments = get_int "segments" j in
    let* rn_immortal = get_int "immortal" j in
    let* rn_mortal = get_int "mortal" j in
    let* rn_failed = get_int "failed" j in
    let* rn_analysis_s = get_float "analysis_s" j in
    let* entries = field "entries" Json_in.list_value j in
    let* rn_entries =
      List.fold_left
        (fun acc e ->
          let* acc = acc in
          let* entry = entry_of_json e in
          Ok (entry :: acc))
        (Ok []) entries
    in
    Ok
      {
        rn_id;
        rn_timestamp;
        rn_deck;
        rn_deck_hash;
        rn_tech;
        rn_jobs;
        rn_audited;
        rn_sigma_th_pa;
        rn_structures;
        rn_segments;
        rn_immortal;
        rn_mortal;
        rn_failed;
        rn_analysis_s;
        rn_entries = List.rev rn_entries;
      }

(* ------------------------------------------------------------------ *)
(* Archive. *)

let default_dir = "emcheck_runs"
let ledger_path dir = Filename.concat dir "ledger.jsonl"
let default_max_bytes = 8 * 1024 * 1024
let default_keep_rotated = 4
let rotated_path dir g = Filename.concat dir (Printf.sprintf "ledger.%d.jsonl" g)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if String.length parent < String.length dir then mkdir_p parent;
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let rotate ~keep_rotated dir =
  if keep_rotated <= 0 then Sys.remove (ledger_path dir)
  else begin
    let last = rotated_path dir keep_rotated in
    if Sys.file_exists last then Sys.remove last;
    for g = keep_rotated - 1 downto 1 do
      let src = rotated_path dir g in
      if Sys.file_exists src then Sys.rename src (rotated_path dir (g + 1))
    done;
    Sys.rename (ledger_path dir) (rotated_path dir 1)
  end

let append ?(max_bytes = default_max_bytes)
    ?(keep_rotated = default_keep_rotated) ~dir run =
  try
    mkdir_p dir;
    let line = J.to_string (run_to_json run) ^ "\n" in
    let active = ledger_path dir in
    let size = file_size active in
    if size > 0 && size + String.length line > max_bytes then
      rotate ~keep_rotated dir;
    let oc =
      open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 active
    in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc line);
    Obs.Metrics.inc runs_recorded;
    Ok ()
  with
  | Sys_error m -> Error m
  | Unix.Unix_error (e, fn, arg) ->
    Error (Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message e))

let load_file path acc =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec loop lineno acc =
        match input_line ic with
        | exception End_of_file -> Ok acc
        | "" -> loop (lineno + 1) acc
        | line -> (
          match
            let* j = Json_in.parse line in
            run_of_json j
          with
          | Ok run -> loop (lineno + 1) (run :: acc)
          | Error m -> Error (Printf.sprintf "%s:%d: %s" path lineno m))
      in
      loop 1 acc)

let load ~dir =
  try
    let files =
      List.init default_keep_rotated (fun i ->
          rotated_path dir (default_keep_rotated - i))
      @ [ ledger_path dir ]
    in
    let* runs =
      List.fold_left
        (fun acc path ->
          let* acc = acc in
          if Sys.file_exists path then load_file path acc else Ok acc)
        (Ok []) files
    in
    Ok (List.rev runs)
  with Sys_error m -> Error m

let resolve runs selector =
  let newest_first = List.rev runs in
  match selector with
  | "latest" -> (
    match newest_first with
    | r :: _ -> Ok r
    | [] -> Error "the ledger is empty")
  | "prev" -> (
    match newest_first with
    | _ :: r :: _ -> Ok r
    | _ -> Error "the ledger holds fewer than two runs")
  | sel -> (
    match List.find_opt (fun r -> String.equal r.rn_id sel) runs with
    | Some r -> Ok r
    | None ->
      if String.length sel < 4 then
        Error
          (Printf.sprintf
             "no run %S (id prefixes need at least 4 characters; try \
              \"latest\" or \"prev\")"
             sel)
      else
        let is_prefix r =
          String.length r.rn_id >= String.length sel
          && String.equal (String.sub r.rn_id 0 (String.length sel)) sel
        in
        (match List.filter is_prefix newest_first with
        | [ r ] -> Ok r
        | [] -> Error (Printf.sprintf "no run matches %S" sel)
        | many ->
          Error
            (Printf.sprintf "%S is ambiguous: %s" sel
               (String.concat ", "
                  (List.map (fun r -> Fp.short r.rn_id) many)))))

(* ------------------------------------------------------------------ *)
(* Diff. *)

type matched = {
  dm_fp : string;
  dm_layer : int;
  dm_flip : [ `None | `To_mortal | `To_immortal | `To_failed | `To_ok ];
  dm_margin_a : float;
  dm_margin_b : float;
  dm_margin_delta : float;
  dm_solve_a : float;
  dm_solve_b : float;
}

type changed = {
  dc_layer : int;
  dc_nodes : int;
  dc_segments : int;
  dc_fp_a : string;
  dc_fp_b : string;
  dc_immortal_a : bool;
  dc_immortal_b : bool;
  dc_margin_a : float;
  dc_margin_b : float;
}

type diff = {
  df_run_a : string;
  df_run_b : string;
  df_matched : matched list;
  df_changed : changed list;
  df_added : entry list;
  df_removed : entry list;
  df_verdict_flips : int;
  df_regressions : int;
  df_max_abs_margin_drift : float;
  df_total_solve_a : float;
  df_total_solve_b : float;
}

let verdict e = if not e.en_ok then `Failed else if e.en_immortal then `Immortal else `Mortal

let flip_of a b =
  let va = verdict a and vb = verdict b in
  if va = vb then `None
  else
    match (va, vb) with
    | _, `Failed -> `To_failed
    | `Failed, _ -> `To_ok
    | _, `Mortal -> `To_mortal
    | _, `Immortal -> `To_immortal

let diff a b =
  let key e = (e.en_fp, e.en_occ) in
  let in_b = Hashtbl.create 256 in
  List.iter (fun e -> Hashtbl.replace in_b (key e) e) b.rn_entries;
  let matched = ref [] and removed = ref [] in
  List.iter
    (fun ea ->
      match Hashtbl.find_opt in_b (key ea) with
      | Some eb ->
        Hashtbl.remove in_b (key ea);
        matched :=
          {
            dm_fp = ea.en_fp;
            dm_layer = ea.en_layer;
            dm_flip = flip_of ea eb;
            dm_margin_a = ea.en_margin_pa;
            dm_margin_b = eb.en_margin_pa;
            dm_margin_delta = eb.en_margin_pa -. ea.en_margin_pa;
            dm_solve_a = ea.en_solve_s;
            dm_solve_b = eb.en_solve_s;
          }
          :: !matched
      | None -> removed := ea :: !removed)
    a.rn_entries;
  let matched = List.rev !matched in
  let added_raw =
    List.filter (fun e -> Hashtbl.mem in_b (key e)) b.rn_entries
  in
  (* Re-identify edits: pair leftovers by shape, first-come. *)
  let by_shape = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let k = (e.en_layer, e.en_nodes, e.en_segments) in
      Hashtbl.replace by_shape k
        (match Hashtbl.find_opt by_shape k with
        | Some q -> q @ [ e ]
        | None -> [ e ]))
    (List.rev !removed);
  let changed = ref [] and added = ref [] in
  List.iter
    (fun eb ->
      let k = (eb.en_layer, eb.en_nodes, eb.en_segments) in
      match Hashtbl.find_opt by_shape k with
      | Some (ea :: rest) ->
        (if rest = [] then Hashtbl.remove by_shape k
         else Hashtbl.replace by_shape k rest);
        changed :=
          {
            dc_layer = eb.en_layer;
            dc_nodes = eb.en_nodes;
            dc_segments = eb.en_segments;
            dc_fp_a = ea.en_fp;
            dc_fp_b = eb.en_fp;
            dc_immortal_a = ea.en_immortal && ea.en_ok;
            dc_immortal_b = eb.en_immortal && eb.en_ok;
            dc_margin_a = ea.en_margin_pa;
            dc_margin_b = eb.en_margin_pa;
          }
          :: !changed
      | Some [] | None -> added := eb :: !added)
    added_raw;
  let changed = List.rev !changed in
  let added = List.rev !added in
  let removed =
    Hashtbl.fold (fun _ q acc -> q @ acc) by_shape []
    |> List.sort (fun x y -> String.compare x.en_fp y.en_fp)
  in
  let flips =
    List.length (List.filter (fun m -> m.dm_flip <> `None) matched)
  in
  let regressions =
    List.length
      (List.filter
         (fun m -> match m.dm_flip with `To_mortal | `To_failed -> true | _ -> false)
         matched)
    + List.length
        (List.filter (fun c -> c.dc_immortal_a && not c.dc_immortal_b) changed)
  in
  let max_drift =
    List.fold_left
      (fun acc m ->
        if Float.is_finite m.dm_margin_delta then
          Float.max acc (Float.abs m.dm_margin_delta)
        else acc)
      0. matched
  in
  let total f entries = List.fold_left (fun acc e -> acc +. f e) 0. entries in
  Obs.Metrics.inc_by structures_matched (List.length matched);
  Obs.Metrics.inc_by structures_changed (flips + List.length changed);
  {
    df_run_a = a.rn_id;
    df_run_b = b.rn_id;
    df_matched = matched;
    df_changed = changed;
    df_added = added;
    df_removed = removed;
    df_verdict_flips = flips;
    df_regressions = regressions;
    df_max_abs_margin_drift = max_drift;
    df_total_solve_a = total (fun e -> e.en_solve_s) a.rn_entries;
    df_total_solve_b = total (fun e -> e.en_solve_s) b.rn_entries;
  }

let top_movers ?(k = 10) d =
  let finite =
    List.filter
      (fun m -> Float.is_finite m.dm_margin_delta && m.dm_margin_delta <> 0.)
      d.df_matched
  in
  let sorted =
    List.sort
      (fun x y ->
        Float.compare (Float.abs y.dm_margin_delta) (Float.abs x.dm_margin_delta))
      finite
  in
  List.filteri (fun i _ -> i < k) sorted

let flip_to_string = function
  | `None -> "none"
  | `To_mortal -> "to-mortal"
  | `To_immortal -> "to-immortal"
  | `To_failed -> "to-failed"
  | `To_ok -> "to-ok"

let float_or_null x = if Float.is_finite x then J.Float x else J.Null

let matched_to_json m =
  J.Obj
    [
      ("fp", J.String m.dm_fp);
      ("layer", J.Int m.dm_layer);
      ("flip", J.String (flip_to_string m.dm_flip));
      ("margin_a_pa", float_or_null m.dm_margin_a);
      ("margin_b_pa", float_or_null m.dm_margin_b);
      ("margin_delta_pa", float_or_null m.dm_margin_delta);
      ("solve_a_s", J.Float m.dm_solve_a);
      ("solve_b_s", J.Float m.dm_solve_b);
    ]

let changed_to_json c =
  J.Obj
    [
      ("layer", J.Int c.dc_layer);
      ("nodes", J.Int c.dc_nodes);
      ("segments", J.Int c.dc_segments);
      ("fp_a", J.String c.dc_fp_a);
      ("fp_b", J.String c.dc_fp_b);
      ("immortal_a", J.Bool c.dc_immortal_a);
      ("immortal_b", J.Bool c.dc_immortal_b);
      ("margin_a_pa", float_or_null c.dc_margin_a);
      ("margin_b_pa", float_or_null c.dc_margin_b);
    ]

let entry_brief e =
  J.Obj
    [
      ("fp", J.String e.en_fp);
      ("occ", J.Int e.en_occ);
      ("layer", J.Int e.en_layer);
      ("nodes", J.Int e.en_nodes);
      ("segments", J.Int e.en_segments);
      ("immortal", J.Bool (e.en_immortal && e.en_ok));
      ("margin_pa", float_or_null e.en_margin_pa);
    ]

let diff_to_json d =
  let flips = List.filter (fun m -> m.dm_flip <> `None) d.df_matched in
  J.Obj
    [
      ("run_a", J.String d.df_run_a);
      ("run_b", J.String d.df_run_b);
      ( "summary",
        J.Obj
          [
            ("matched", J.Int (List.length d.df_matched));
            ("verdict_flips", J.Int d.df_verdict_flips);
            ("regressions", J.Int d.df_regressions);
            ("added", J.Int (List.length d.df_added));
            ("removed", J.Int (List.length d.df_removed));
            ("changed", J.Int (List.length d.df_changed));
            ("max_abs_margin_drift_pa", J.Float d.df_max_abs_margin_drift);
            ("total_solve_a_s", J.Float d.df_total_solve_a);
            ("total_solve_b_s", J.Float d.df_total_solve_b);
          ] );
      ("flips", J.List (List.map matched_to_json flips));
      ("top_movers", J.List (List.map matched_to_json (top_movers d)));
      ("changed", J.List (List.map changed_to_json d.df_changed));
      ("added", J.List (List.map entry_brief d.df_added));
      ("removed", J.List (List.map entry_brief d.df_removed));
    ]

(* ------------------------------------------------------------------ *)
(* History. *)

type trend = {
  tr_fp : string;
  tr_layer : int;
  tr_points : (string * float) list;
}

let history ~metric runs =
  let value e = match metric with `Margin -> e.en_margin_pa | `Time -> e.en_solve_s in
  let order = ref [] in
  let table = Hashtbl.create 64 in
  List.iter
    (fun r ->
      List.iter
        (fun e ->
          if e.en_occ = 0 then begin
            if not (Hashtbl.mem table e.en_fp) then begin
              Hashtbl.replace table e.en_fp (e.en_layer, ref []);
              order := e.en_fp :: !order
            end;
            let _, points = Hashtbl.find table e.en_fp in
            let v = value e in
            if Float.is_finite v then points := (r.rn_id, v) :: !points
          end)
        r.rn_entries)
    runs;
  List.rev_map
    (fun fp ->
      let layer, points = Hashtbl.find table fp in
      { tr_fp = fp; tr_layer = layer; tr_points = List.rev !points })
    !order

let history_to_json ~metric trends =
  J.Obj
    [
      ("metric", J.String (match metric with `Margin -> "margin" | `Time -> "time"));
      ( "trends",
        J.List
          (List.map
             (fun t ->
               J.Obj
                 [
                   ("fp", J.String t.tr_fp);
                   ("layer", J.Int t.tr_layer);
                   ( "points",
                     J.List
                       (List.map
                          (fun (id, v) ->
                            J.Obj [ ("run", J.String id); ("value", J.Float v) ])
                          t.tr_points) );
                 ])
             trends) );
    ]

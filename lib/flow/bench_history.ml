module J = Json_out

type entry = {
  bench : string;
  rev : string;
  timestamp : string;
  full : bool;
  metrics : (string * float) list;
}

let ends_with ~suffix s =
  let n = String.length s and m = String.length suffix in
  n >= m && String.sub s (n - m) m = suffix

(* ------------------------------------------------------------------ *)
(* Metric extraction                                                   *)

let looks_like_measurement name =
  ends_with ~suffix:"_s" name
  || ends_with ~suffix:"_ratio" name
  || ends_with ~suffix:"_ns" name
  || ends_with ~suffix:"_pct" name
  || ends_with ~suffix:"_per_s" name
  || String.equal name "speedup"

let generic_metrics doc =
  match doc with
  | J.Obj fields ->
    List.filter_map
      (fun (k, v) ->
        match Json_in.number v with
        | Some f when looks_like_measurement k -> Some (k, f)
        | _ -> None)
      fields
  | _ -> []

(* Per-size series from the scaling bench: each row keyed by its edge
   count, so the history compares like against like. Top-level summary
   measurements (e.g. the columnar throughput cliff ratio) ride along
   through the generic extractor. Columns of older results that this
   list lacks are not metrics. *)
let scaling_metrics doc =
  let per_row =
    match Json_in.member "rows" doc with
    | Some (J.List rows) ->
      List.concat_map
        (fun row ->
          match Json_in.member "edges" row with
          | Some edges_j -> begin
            match Json_in.number edges_j with
            | Some edges ->
              let tag = Printf.sprintf "@%.0f" edges in
              List.filter_map
                (fun key ->
                  match Option.bind (Json_in.member key row) Json_in.number with
                  | Some f -> Some (key ^ tag, f)
                  | None -> None)
                [ "convert_s"; "columnar_s"; "columnar_segments_per_s" ]
            | None -> []
          end
          | None -> [])
        rows
    | _ -> []
  in
  generic_metrics doc @ per_row

let obs_metrics doc =
  List.filter_map
    (fun key ->
      match Option.bind (Json_in.member key doc) Json_in.number with
      | Some f -> Some (key, f)
      | None -> None)
    [
      "off_s"; "trace_on_ratio"; "audit_overhead_ratio";
      "audit_disabled_ratio"; "disabled_span_ns";
      "estimated_disabled_overhead_pct";
    ]

let metrics_of_result doc =
  match Option.bind (Json_in.member "bench" doc) Json_in.string_value with
  | Some "scaling" -> scaling_metrics doc
  | Some "obs" -> obs_metrics doc
  | _ -> generic_metrics doc

let entry_of_result ~rev ~timestamp doc =
  match Option.bind (Json_in.member "bench" doc) Json_in.string_value with
  | None -> Error "bench result has no \"bench\" field"
  | Some bench -> begin
    let full =
      match Option.bind (Json_in.member "full" doc) Json_in.bool_value with
      | Some b -> b
      | None -> false
    in
    match metrics_of_result doc with
    | [] -> Error (Printf.sprintf "bench %s: no metrics extracted" bench)
    | metrics -> Ok { bench; rev; timestamp; full; metrics }
  end

(* ------------------------------------------------------------------ *)
(* History file (JSON lines)                                           *)

let entry_to_json e =
  J.Obj
    [
      ("bench", J.String e.bench);
      ("rev", J.String e.rev);
      ("timestamp", J.String e.timestamp);
      ("full", J.Bool e.full);
      ("metrics", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) e.metrics));
    ]

let entry_of_json doc =
  let str key =
    match Option.bind (Json_in.member key doc) Json_in.string_value with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "history entry: missing %S" key)
  in
  match (str "bench", str "rev", str "timestamp") with
  | Ok bench, Ok rev, Ok timestamp -> begin
    let full =
      match Option.bind (Json_in.member "full" doc) Json_in.bool_value with
      | Some b -> b
      | None -> false
    in
    match Json_in.member "metrics" doc with
    | Some (J.Obj fields) ->
      let metrics =
        List.filter_map
          (fun (k, v) -> Option.map (fun f -> (k, f)) (Json_in.number v))
          fields
      in
      Ok { bench; rev; timestamp; full; metrics }
    | _ -> Error "history entry: missing metrics object"
  end
  | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e

let load path =
  if not (Sys.file_exists path) then Ok []
  else
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | exception Sys_error msg -> Error msg
    | text ->
      let lines = String.split_on_char '\n' text in
      let entries = ref [] in
      let err = ref None in
      List.iteri
        (fun i line ->
          if !err = None && String.trim line <> "" then
            match Json_in.parse line with
            | Error msg ->
              err := Some (Printf.sprintf "%s:%d: %s" path (i + 1) msg)
            | Ok doc -> begin
              match entry_of_json doc with
              | Ok e -> entries := e :: !entries
              | Error msg ->
                err := Some (Printf.sprintf "%s:%d: %s" path (i + 1) msg)
            end)
        lines;
      (match !err with Some m -> Error m | None -> Ok (List.rev !entries))

let append path e =
  match
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc (J.to_string (entry_to_json e));
        output_char oc '\n')
  with
  | () -> Ok ()
  | exception Sys_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)

type direction = Lower_better | Higher_better

(* Per-size metrics carry an "@<edges>" tag; direction and thresholds
   depend on the base name only. *)
let base_name metric =
  match String.index_opt metric '@' with
  | Some i -> String.sub metric 0 i
  | None -> metric

let direction_of_metric metric =
  let b = base_name metric in
  if ends_with ~suffix:"_per_s" b || String.equal b "speedup" then
    Higher_better
  else Lower_better

let threshold_pct ~bench ~metric =
  let b = base_name metric in
  match bench with
  | "obs" when ends_with ~suffix:"_ratio" b -> 15.
  | "obs" when ends_with ~suffix:"_ns" b -> 50.
  | "obs" -> 50.
  | "scaling" -> 25.
  (* Monte-Carlo throughput has RNG-independent work but shares the
     scaling bench's sensitivity to machine load. *)
  | "variation" -> 25.
  | _ -> 20.

type status = Ok_ | Regression | Improvement | No_baseline

let status_to_string = function
  | Ok_ -> "ok"
  | Regression -> "regression"
  | Improvement -> "improvement"
  | No_baseline -> "no-baseline"

type item = {
  metric : string;
  current : float;
  baseline : float option;
  delta_pct : float option;
  threshold : float;
  status : status;
}

type verdict = {
  v_bench : string;
  v_items : item list;
  v_regressions : int;
  v_improvements : int;
  v_baseline_runs : int;
}

let median values =
  match List.sort Float.compare values with
  | [] -> None
  | sorted ->
    let n = List.length sorted in
    let nth i = List.nth sorted i in
    Some
      (if n mod 2 = 1 then nth (n / 2)
       else (nth ((n / 2) - 1) +. nth (n / 2)) /. 2.)

let take_last k xs =
  let n = List.length xs in
  if n <= k then xs else List.filteri (fun i _ -> i >= n - k) xs

let compare_entry ?(window = 5) ~history current =
  let relevant =
    take_last window
      (List.filter
         (fun e ->
           String.equal e.bench current.bench && e.full = current.full)
         history)
  in
  let baseline_of metric =
    median (List.filter_map (fun e -> List.assoc_opt metric e.metrics) relevant)
  in
  let items =
    List.map
      (fun (metric, cur) ->
        let threshold = threshold_pct ~bench:current.bench ~metric in
        match baseline_of metric with
        | Some base when Float.abs base > 1e-12 ->
          (* Positive delta = worse, whatever the metric's direction. *)
          let delta =
            match direction_of_metric metric with
            | Lower_better -> (cur -. base) /. base *. 100.
            | Higher_better -> (base -. cur) /. base *. 100.
          in
          let status =
            if delta > threshold then Regression
            else if delta < -.threshold then Improvement
            else Ok_
          in
          {
            metric;
            current = cur;
            baseline = Some base;
            delta_pct = Some delta;
            threshold;
            status;
          }
        | _ ->
          {
            metric;
            current = cur;
            baseline = None;
            delta_pct = None;
            threshold;
            status = No_baseline;
          })
      current.metrics
  in
  let count st = List.length (List.filter (fun i -> i.status = st) items) in
  {
    v_bench = current.bench;
    v_items = items;
    v_regressions = count Regression;
    v_improvements = count Improvement;
    v_baseline_runs = List.length relevant;
  }

let verdict_to_json v =
  J.Obj
    [
      ("bench", J.String v.v_bench);
      ("regressions", J.Int v.v_regressions);
      ("improvements", J.Int v.v_improvements);
      ("baseline_runs", J.Int v.v_baseline_runs);
      ( "items",
        J.List
          (List.map
             (fun i ->
               J.Obj
                 [
                   ("metric", J.String i.metric);
                   ("current", J.Float i.current);
                   ( "baseline",
                     match i.baseline with Some b -> J.Float b | None -> J.Null
                   );
                   ( "delta_pct",
                     match i.delta_pct with
                     | Some d -> J.Float d
                     | None -> J.Null );
                   ("threshold_pct", J.Float i.threshold);
                   ("status", J.String (status_to_string i.status));
                 ])
             v.v_items) );
    ]

let regressed verdicts = List.exists (fun v -> v.v_regressions > 0) verdicts

(* `e2e.exe compare A B`: two BENCH_e2e.json results judged per
   workload and end-to-end metric by BENCHMARK.json's bounds. *)

module H = Harness
module J = Emflow.Json_out
module Ji = Emflow.Json_in

type verdict = Better | Worse | Same | Unresolved

let verdict_to_string = function
  | Better -> "better"
  | Worse -> "worse"
  | Same -> "same"
  | Unresolved -> "unresolved"

(* One workload x metric. A side without samples (its result lacks the
   workload or the metric) has no quartiles and makes the row
   unresolved. *)
type row = {
  workload : string;
  metric : string;
  a : Quartile.t option;
  b : Quartile.t option;
  verdict : verdict;
}

(* [b] against [a] for one timed metric: unresolved when either side has
   fewer than [H.min_runs] samples, or when either side's spread exceeds
   [bound] unless every run of [b] beats every run of [a]; otherwise
   worse or better when the medians differ by more than [bound] (a share
   of [a]'s median), else same. *)
let judge ~bound ~better ~a ~b =
  let qa = Quartile.of_samples a and qb = Quartile.of_samples b in
  let sign = match better with H.Lower -> 1. | H.Higher -> -1. in
  let change = sign *. (qb.Quartile.median -. qa.Quartile.median) in
  let limit = bound *. Float.abs qa.Quartile.median in
  let beats x y = sign *. (x -. y) < 0. in
  if qa.Quartile.n < H.min_runs || qb.Quartile.n < H.min_runs then Unresolved
  else if Float.max (Quartile.spread qa) (Quartile.spread qb) > bound then
    if List.for_all (fun x -> List.for_all (beats x) a) b then Better
    else Unresolved
  else if change > limit then Worse
  else if change < -.limit then Better
  else Same

(* The error rate is one exact ratio per result: any increase is worse. *)
let judge_rate ~a ~b =
  match (a, b) with
  | [ x ], [ y ] when y > x -> Worse
  | [ x ], [ y ] when y < x -> Better
  | [ _ ], [ _ ] -> Same
  | _ -> Unresolved

(* Bounds of the end-to-end metrics, from BENCHMARK.json. *)
let load_bounds path =
  match Ji.of_file path with
  | Error e -> Error e
  | Ok doc -> (
    match Option.bind (Ji.member "end_to_end" doc) Ji.list_value with
    | None -> Error (path ^ ": no end_to_end list")
    | Some items ->
      Ok
        (List.filter_map
           (fun item ->
             let s k = Option.bind (Ji.member k item) Ji.string_value in
             match (s "name", s "better", Option.bind (Ji.member "bound" item) Ji.number) with
             | Some name, Some dir, Some bound ->
               Some (name, bound, if dir = "higher" then H.Higher else H.Lower)
             | _ -> None)
           items))

(* Every workload of either result, with every bounded metric and the
   error rate. *)
let compare_results ~bounds a_doc b_doc =
  let ( let* ) = Result.bind in
  let host d = Option.value ~default:J.Null (Ji.member "host" d) in
  let* () =
    match
      List.find_opt
        (fun k -> Ji.member k (host a_doc) <> Ji.member k (host b_doc))
        H.like_host_keys
    with
    | Some k -> Error ("results come from unlike hosts (" ^ k ^ " differs)")
    | None -> Ok ()
  in
  let workloads d =
    Option.value ~default:[]
      (Option.bind (Ji.member "workloads" d) Ji.list_value)
    |> List.filter_map (fun w ->
           Option.map (fun n -> (n, w))
             (Option.bind (Ji.member "name" w) Ji.string_value))
  in
  let wa = workloads a_doc and wb = workloads b_doc in
  let names =
    List.map fst wa
    @ List.filter (fun n -> not (List.mem_assoc n wa)) (List.map fst wb)
  in
  let samples ws name k =
    match
      Option.bind (List.assoc_opt name ws) (fun w ->
          Option.bind
            (Option.bind (Ji.member "end_to_end" w) (Ji.member k))
            (fun x ->
              Option.map (List.filter_map Ji.number)
                (Option.bind (Ji.member "samples" x) Ji.list_value)))
    with
    | Some (_ :: _ as s) -> Some s
    | _ -> None
  in
  let row name (k, judge) =
    let a = samples wa name k and b = samples wb name k in
    {
      workload = name;
      metric = k;
      a = Option.map Quartile.of_samples a;
      b = Option.map Quartile.of_samples b;
      verdict =
        (match (a, b) with
         | Some a, Some b -> judge ~a ~b
         | _ -> Unresolved);
    }
  in
  let judges =
    List.map (fun (k, bound, better) -> (k, judge ~bound ~better)) bounds
    @ [ (H.error_rate.H.name, judge_rate) ]
  in
  Ok (List.concat_map (fun name -> List.map (row name) judges) names)

let print_comparison rows =
  let cell = function
    | None -> "-"
    | Some q ->
      Printf.sprintf "%.4g [%.4g, %.4g] n=%d" q.Quartile.median q.Quartile.q1
        q.Quartile.q3 q.Quartile.n
  in
  let change r =
    match (r.a, r.b) with
    | Some qa, Some qb when qa.Quartile.median <> 0. ->
      Printf.sprintf "%+.1f%%"
        (100. *. (qb.Quartile.median -. qa.Quartile.median) /. qa.Quartile.median)
    | _ -> "-"
  in
  let table =
    Emflow.Report.create [ "workload"; "metric"; "A median [q1, q3]"; "B median [q1, q3]"; "change"; "verdict" ]
  in
  List.iter
    (fun r ->
      Emflow.Report.add_row table
        [ r.workload; r.metric; cell r.a; cell r.b; change r; verdict_to_string r.verdict ])
    rows;
  Emflow.Report.print table

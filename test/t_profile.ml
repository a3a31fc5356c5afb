open T_helpers
module Tr = Obs.Trace
module Pf = Obs.Profile
module Jin = Emflow.Json_in
module Jout = Emflow.Json_out

(* ---------------------------------------------------------------- *)
(* Per-lane stacks and the folded export                             *)

let stack track path self =
  { Pf.sk_track = track; sk_path = path; sk_self_us = self }

let synthetic_stacks =
  [
    stack 0 [ "root"; "child" ] 2.4;
    stack 0 [ "root" ] 1.0;
    stack 1 [ "root"; "child" ] 1.2;
    stack 1 [ "other" ] 0.7;
  ]

let test_folded_output () =
  let folded =
    Pf.to_folded ~track_names:[ (0, "main"); (1, "worker-1") ] synthetic_stacks
  in
  (* Sorted by lane, then path; the rounding remainder carries, so the
     lines total round(5.3) = 5 µs and each is within 1 µs of its own
     self-time. *)
  Alcotest.(check string) "folded lines, lanes resolved"
    "main;root 1\nmain;root;child 2\nworker-1;other 1\nworker-1;root;child 1\n"
    folded;
  (* Unknown tracks fall back to track-N; a line that reads 0 is left
     out. *)
  Alcotest.(check string) "track fallback" "track-7;x 3\n"
    (Pf.to_folded [ stack 7 [ "x" ] 3.2 ]);
  Alcotest.(check string) "sub-µs total prints nothing" ""
    (Pf.to_folded [ stack 0 [ "x" ] 0.3 ])

let test_folded_permutation_invariant =
  qcheck ~count:50 "folded output is a function of the observation multiset"
    QCheck2.Gen.(list_size (int_range 0 30) (int_range 0 5))
    (fun picks ->
      (* Build a stack list by indexing a fixed universe, then compare
         against the same multiset in sorted order. *)
      let universe =
        [|
          stack 0 [ "a" ] 1.6; stack 0 [ "a"; "b" ] 0.4; stack 0 [ "a"; "c" ] 2.5;
          stack 1 [ "a" ] 0.5; stack 1 [ "d"; "e" ] 7.25; stack 2 [ "f" ] 3.;
        |]
      in
      let stacks = List.map (fun i -> universe.(i)) picks in
      Pf.to_folded stacks = Pf.to_folded (List.sort compare stacks))

(* Sum of the integer values of a folded export. *)
let folded_total folded =
  String.split_on_char '\n' folded
  |> List.filter (fun l -> l <> "")
  |> List.fold_left
       (fun acc line ->
         let i = String.rindex line ' ' in
         let v =
           int_of_string (String.sub line (i + 1) (String.length line - i - 1))
         in
         Alcotest.(check bool) "folded value positive" true (v > 0);
         acc + v)
       0

let get = function Some v -> v | None -> Alcotest.fail "missing JSON member"

(* ---------------------------------------------------------------- *)
(* Exact attribution invariants                                      *)

(* A busy loop long enough for span durations to be nonzero at the
   clock's resolution, so containment inequalities are meaningful. *)
let spin () =
  let x = ref 0. in
  for i = 1 to 20_000 do
    x := !x +. float_of_int i
  done;
  ignore (Sys.opaque_identity !x)

let nested_trace () =
  let t = Tr.create () in
  Tr.with_enabled t (fun () ->
      Tr.with_span "root" (fun () ->
          Tr.with_span "solve" (fun () ->
              Tr.with_span "cg" (fun () -> spin ());
              Tr.with_span "cg" (fun () -> spin ()));
          Tr.with_span "classify" (fun () -> spin ()));
      Tr.with_span "report" (fun () -> spin ()));
  t

let path_to_string = String.concat ";"

let find_path paths p =
  match List.find_opt (fun (h : Pf.hot_path) -> h.Pf.hp_path = p) paths with
  | Some h -> h
  | None -> Alcotest.failf "path %s missing" (path_to_string p)

let test_attribution_invariants () =
  let t = nested_trace () in
  let paths = Pf.attribute t in
  Alcotest.(check int) "five distinct paths" 5 (List.length paths);
  (* Self within total, everywhere. *)
  List.iter
    (fun (h : Pf.hot_path) ->
      Alcotest.(check bool)
        (path_to_string h.Pf.hp_path ^ ": 0 <= self <= total")
        true
        (h.Pf.hp_self_us >= 0. && h.Pf.hp_self_us <= h.Pf.hp_total_us +. 1e-9);
      Alcotest.(check bool)
        (path_to_string h.Pf.hp_path ^ ": self alloc within alloc")
        true
        (h.Pf.hp_self_alloc_words >= 0.
        && h.Pf.hp_self_alloc_words <= h.Pf.hp_alloc_words +. 1e-9))
    paths;
  (* Direct children are contained in their parent. *)
  let total p = (find_path paths p).Pf.hp_total_us in
  Alcotest.(check bool) "children of root contained" true
    (total [ "root"; "solve" ] +. total [ "root"; "classify" ]
    <= total [ "root" ] +. 1e-9);
  Alcotest.(check bool) "children of solve contained" true
    (total [ "root"; "solve"; "cg" ] <= total [ "root"; "solve" ] +. 1e-9);
  (* Self-times telescope: their sum is exactly the root wall time
     (same float additions, so the tolerance is pure rounding). *)
  let self_sum =
    List.fold_left (fun acc (h : Pf.hot_path) -> acc +. h.Pf.hp_self_us) 0. paths
  in
  let wall = Pf.span_wall_us t in
  Alcotest.(check bool) "wall time positive" true (wall > 0.);
  check_close ~rtol:1e-9 "sum of self == wall of roots" wall self_sum;
  (* The cg path aggregated both spans. *)
  Alcotest.(check int) "cg count" 2 (find_path paths [ "root"; "solve"; "cg" ]).Pf.hp_count;
  (* Sorted by descending self-time. *)
  let selfs = List.map (fun (h : Pf.hot_path) -> h.Pf.hp_self_us) paths in
  Alcotest.(check bool) "sorted by self desc" true
    (List.sort (fun a b -> Float.compare b a) selfs = selfs)

(* Spans on two lanes: the caller's ("main") and a spawned domain
   named like a Parallel worker. *)
let two_lane_trace () =
  let t = Tr.create () in
  Tr.with_enabled t (fun () ->
      Tr.with_span "root" (fun () ->
          Tr.with_span "child" spin;
          Tr.with_span "child" spin;
          Domain.join
            (Domain.spawn (fun () ->
                 Tr.name_track "worker-1";
                 Tr.with_span "root" (fun () -> Tr.with_span "child" spin)))));
  t

let test_stacks_aggregation () =
  let t = two_lane_trace () in
  let main = Tr.track () in
  let stacks = Pf.stacks t in
  let keys = List.map (fun s -> (s.Pf.sk_track = main, s.Pf.sk_path)) stacks in
  (* Both "child" spans on main merge into one stack; the worker lane
     keeps its own copy of the same paths. *)
  Alcotest.(check int) "one stack per (lane, path)" 4 (List.length stacks);
  List.iter
    (fun k ->
      Alcotest.(check bool) "expected (lane, path)" true (List.mem k keys))
    [
      (true, [ "root" ]); (true, [ "root"; "child" ]); (false, [ "root" ]);
      (false, [ "root"; "child" ]);
    ];
  Alcotest.(check bool) "sorted by track, then path" true
    (List.sort compare stacks = stacks);
  let self_sum =
    List.fold_left (fun acc s -> acc +. s.Pf.sk_self_us) 0. stacks
  in
  check_close ~rtol:1e-9 "stacks sum to the root wall" (Pf.span_wall_us t)
    self_sum;
  let folded = Pf.to_folded ~track_names:(Tr.track_names t) stacks in
  Alcotest.(check bool) "worker lane named" true
    (T_obs.contains folded "worker-1;root;child ");
  Alcotest.(check bool) "main lane named" true
    (T_obs.contains folded "main;root;child ")

(* Each parallel section spawns fresh domains, but a worker's spans go
   on its slot's lane, so three sections at -j 3 make three lanes (every
   worker records one "parallel.chunk" span per section); a domain
   outside any section gets a lane no worker shares. *)
let test_worker_lanes () =
  let t = Tr.create () in
  let outside =
    Tr.with_enabled t (fun () ->
        for _ = 1 to 3 do
          ignore
            (Numerics.Parallel.map ~jobs:3 Fun.id (Array.init 6 Fun.id))
        done;
        Domain.join
          (Domain.spawn (fun () ->
               Tr.with_span "outside" ignore;
               Tr.track ())))
  in
  let lanes name =
    List.filter (fun (e : Tr.event) -> e.Tr.name = name) (Tr.events t)
    |> List.map (fun (e : Tr.event) -> e.Tr.track)
    |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "chunk lanes" [ 0; 1; 2 ] (lanes "parallel.chunk");
  Alcotest.(check bool) "outside lane is no worker's" true (outside < 0);
  Alcotest.(check (list int)) "outside span" [ outside ] (lanes "outside");
  Alcotest.(check (list (pair int string)))
    "one name per lane"
    [ (0, "main"); (1, "worker-1"); (2, "worker-2") ]
    (List.sort compare (Tr.track_names t));
  check_raises_invalid "slot 0" (fun () -> Tr.set_worker_lane 0)

(* A flight event carries its trace lane, not its domain id: every
   parallel section spawns fresh domains, so ids would name lanes the
   trace never shows. A -j 2 run on the sample deck, traced with the
   recorder on, dumps only lanes its trace has. *)
let test_flight_lanes_are_trace_lanes () =
  let path = "../../../data/mini_grid.sp" in
  let path = if Sys.file_exists path then path else "data/mini_grid.sp" in
  let t = Tr.create () in
  Obs.Flight.clear ();
  Obs.Flight.with_enabled true (fun () ->
      Tr.with_enabled t (fun () ->
          ignore
            (Emflow.Em_flow.run_deck ~jobs:2 ~tech:Pdn.Tech.ibm_like path)));
  let flight =
    List.sort_uniq compare
      (List.map (fun e -> e.Obs.Flight.fl_track) (Obs.Flight.events ()))
  in
  Obs.Flight.clear ();
  let traced =
    List.sort_uniq compare
      (List.map (fun (e : Tr.event) -> e.Tr.track) (Tr.events t))
  in
  Alcotest.(check (list int)) "trace has main and worker-1" [ 0; 1 ] traced;
  Alcotest.(check (list int)) "flight lanes are the trace's" traced flight

(* The acceptance test for the exact profile: a real two-domain flow
   run on a pg1-class grid, traced end to end. *)
let test_flow_identity () =
  let grid = Pdn.Grid_gen.generate (Pdn.Grid_gen.ibm_preset Pdn.Grid_gen.Pg1) in
  let t = Tr.create () in
  ignore (Tr.with_enabled t (fun () -> Emflow.Em_flow.run ~jobs:2 grid));
  let wall = Pf.span_wall_us t in
  Alcotest.(check bool) "wall time positive" true (wall > 0.);
  let paths = Pf.attribute t in
  let self_sum =
    List.fold_left (fun acc (h : Pf.hot_path) -> acc +. h.Pf.hp_self_us) 0. paths
  in
  check_close ~rtol:1e-9 "sum of self == span wall" wall self_sum;
  let total p =
    match List.find_opt (fun (h : Pf.hot_path) -> h.Pf.hp_path = p) paths with
    | Some h -> h.Pf.hp_total_us
    | None -> 0.
  in
  List.iter
    (fun (h : Pf.hot_path) ->
      let name = path_to_string h.Pf.hp_path in
      Alcotest.(check bool) (name ^ ": 0 <= self <= total") true
        (h.Pf.hp_self_us >= 0. && h.Pf.hp_self_us <= h.Pf.hp_total_us);
      (* Direct children: one more path element. *)
      let depth = List.length h.Pf.hp_path in
      let children =
        List.filter
          (fun (c : Pf.hot_path) ->
            List.length c.Pf.hp_path = depth + 1
            && List.filteri (fun i _ -> i < depth) c.Pf.hp_path = h.Pf.hp_path)
          paths
      in
      let child_total =
        List.fold_left (fun acc c -> acc +. total c.Pf.hp_path) 0. children
      in
      Alcotest.(check bool) (name ^ ": total >= direct children") true
        (h.Pf.hp_total_us >= child_total))
    paths;
  Alcotest.(check bool) "the DC solve is a traced stage" true
    (total [ "solve" ] > 0.);
  let stacks = Pf.stacks t in
  (* A lane is a worker slot: main, and worker-1, which the DC solve's
     section (pg1 has two nets) and the EM analysis's share although
     each spawns its own domain. *)
  Alcotest.(check int) "two lanes" 2
    (List.length (List.sort_uniq compare (List.map (fun s -> s.Pf.sk_track) stacks)));
  (* The folded export totals the wall, to the rounded µs. *)
  Alcotest.(check int) "folded totals the wall" (int_of_float (Float.round wall))
    (folded_total (Pf.to_folded stacks));
  (* The report's telemetry carries the same wall and a bounded hot-path
     table, and no sampler summary or per-name rollup. *)
  let json = Jout.to_string (Jout.of_telemetry ~top:5 t) in
  Alcotest.(check bool) "telemetry JSON well-formed" true
    (T_obs.json_accepts json);
  let doc = Jin.parse_exn json in
  check_close ~rtol:1e-12 "telemetry span wall" wall
    (get (Option.bind (Jin.member "span_wall_us" doc) Jin.number));
  let hot = get (Option.bind (Jin.member "hot_paths" doc) Jin.list_value) in
  Alcotest.(check int) "hot paths bounded by top" 5 (List.length hot);
  Alcotest.(check bool) "no profile summary" true
    (Jin.member "profile" doc = None);
  Alcotest.(check bool) "no span summary" true
    (Jin.member "span_summary" doc = None)

(* ---------------------------------------------------------------- *)
(* Span-buffer cap                                                   *)

let test_trace_capacity_cap () =
  check_raises_invalid "capacity must be positive" (fun () ->
      ignore (Tr.create ~capacity:0 ()));
  Alcotest.(check int) "default capacity is generous" 1_000_000
    (Tr.capacity (Tr.create ()));
  let t = Tr.create ~capacity:3 () in
  Obs.Flight.clear ();
  Obs.Flight.with_enabled true (fun () ->
      Tr.with_enabled t (fun () ->
          for i = 1 to 8 do
            Tr.with_span (Printf.sprintf "s%d" i) (fun () -> ())
          done));
  Alcotest.(check int) "buffer holds exactly capacity" 3 (Tr.num_events t);
  Alcotest.(check int) "drops counted" 5 (Tr.dropped_spans t);
  (* Earliest completions survive; later ones drop. *)
  Alcotest.(check (list string))
    "first-in kept"
    [ "s1"; "s2"; "s3" ]
    (List.map (fun (e : Tr.event) -> e.Tr.name) (Tr.events t));
  (* One drop event in the ring, not five. *)
  let warnings =
    List.filter
      (fun e -> e.Obs.Flight.fl_level = "warn")
      (Obs.Flight.events ())
  in
  Obs.Flight.clear ();
  Alcotest.(check int) "warn-once on first drop" 1 (List.length warnings);
  let w = List.hd warnings in
  Alcotest.(check bool) "warning names the condition" true
    (T_obs.contains w.Obs.Flight.fl_name "trace span buffer full");
  Alcotest.(check (option string)) "warning carries the capacity" (Some "3")
    (List.assoc_opt "capacity" w.Obs.Flight.fl_detail)

let test_trace_cap_orphan_root () =
  (* The child completes first and is kept; its parent is dropped. The
     kept child then counts as a root, so the identity still holds. *)
  let t = Tr.create ~capacity:1 () in
  Tr.with_enabled t (fun () ->
      Tr.with_span "parent" (fun () -> Tr.with_span "child" spin));
  Alcotest.(check int) "one span kept" 1 (Tr.num_events t);
  Alcotest.(check int) "one span dropped" 1 (Tr.dropped_spans t);
  match Pf.attribute t with
  | [ h ] ->
    Alcotest.(check (list string)) "child is a root" [ "child" ] h.Pf.hp_path;
    check_close "self == wall" (Pf.span_wall_us t) h.Pf.hp_self_us
  | l -> Alcotest.failf "expected 1 path, got %d" (List.length l)

let suites =
  [
    ( "profile.folded",
      [
        case "aggregation over synthetic stacks" test_stacks_aggregation;
        case "folded output and lane naming" test_folded_output;
        test_folded_permutation_invariant;
      ] );
    ( "profile.attribute",
      [
        case "self/total invariants and telescoping" test_attribution_invariants;
        case "exact identity on a two-domain flow run" test_flow_identity;
        case "one lane per worker slot" test_worker_lanes;
        case "flight events carry the trace lane"
          test_flight_lanes_are_trace_lanes;
      ] );
    ( "profile.cap",
      [
        case "span buffer cap: count, metric, warn-once" test_trace_capacity_cap;
        case "dropped parent: kept child counts as a root"
          test_trace_cap_orphan_root;
      ] );
  ]

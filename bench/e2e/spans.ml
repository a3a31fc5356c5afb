(* The harness's own span recorder. Spans are taken around calls into
   each layer from outside, kept in memory, and written out as Chrome
   trace JSON at the end. The program's own tracing ([Obs.Trace]) stays
   off, so its spans cannot perturb the layers being timed. *)

module J = Emflow.Json_out
module Ji = Emflow.Json_in

type span = {
  id : int;
  name : string;
  workload : string;
  parent : int option;
  start_us : float;
  end_us : float;
}

type t = {
  owner : string; (* the workload every span is tagged with *)
  mutable next_id : int;
  mutable open_ids : int list; (* innermost first *)
  mutable closed : span list;  (* most recently closed first *)
}

let create ~workload = { owner = workload; next_id = 0; open_ids = []; closed = [] }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let with_span t name f =
  let id = fresh_id t in
  let parent = match t.open_ids with p :: _ -> Some p | [] -> None in
  t.open_ids <- id :: t.open_ids;
  let start_us = Obs.Clock.now_us () in
  Fun.protect
    ~finally:(fun () ->
      t.open_ids <- List.tl t.open_ids;
      t.closed <-
        { id; name; workload = t.owner; parent; start_us;
          end_us = Obs.Clock.now_us () }
        :: t.closed)
    f

(* Spans in start order. *)
let spans t =
  List.stable_sort (fun a b -> Float.compare a.start_us b.start_us)
    (List.rev t.closed)

let duration_us (s : span) = s.end_us -. s.start_us

(* Adopt spans recorded by another recorder (a child process): ids are
   renumbered into this recorder, and roots hang under the innermost
   open span. *)
let import t spans =
  let base = t.next_id in
  let top = match t.open_ids with p :: _ -> Some p | [] -> None in
  List.iter
    (fun s ->
      t.next_id <- max t.next_id (base + s.id + 1);
      t.closed <-
        {
          s with
          id = base + s.id;
          workload = t.owner;
          parent =
            (match s.parent with Some p -> Some (base + p) | None -> top);
        }
        :: t.closed)
    spans

(* A span's duration minus the part its direct children cover. Children
   of one span run one after another, never overlapping. *)
let self_us spans (s : span) =
  List.fold_left
    (fun acc (c : span) ->
      if c.workload = s.workload && c.parent = Some s.id then
        acc -. duration_us c
      else acc)
    (duration_us s) spans

(* Total seconds spent in spans named [name]. *)
let total_s spans name =
  List.fold_left
    (fun acc (s : span) -> if s.name = name then acc +. (duration_us s /. 1e6) else acc)
    0. spans

let to_json (s : span) =
  J.Obj
    [
      ("id", J.Int s.id); ("name", J.String s.name);
      ("workload", J.String s.workload);
      ("parent", match s.parent with Some p -> J.Int p | None -> J.Null);
      ("start_us", J.Float s.start_us); ("end_us", J.Float s.end_us);
    ]

let of_json j =
  let num k = Option.bind (Ji.member k j) Ji.number in
  let str k = Option.bind (Ji.member k j) Ji.string_value in
  match (num "id", str "name", str "workload", num "start_us", num "end_us") with
  | Some id, Some name, Some workload, Some start_us, Some end_us ->
    Some
      {
        id = int_of_float id;
        name;
        workload;
        parent = Option.map int_of_float (num "parent");
        start_us;
        end_us;
      }
  | _ -> None

(* Chrome trace-event JSON: one complete ("X") event per span, one
   process per workload, timestamps relative to the earliest span. *)
let to_chrome spans =
  let workloads = List.sort_uniq String.compare (List.map (fun s -> s.workload) spans) in
  let pid w = 1 + Option.get (List.find_index (String.equal w) workloads) in
  let epoch = List.fold_left (fun acc s -> Float.min acc s.start_us) infinity spans in
  let meta =
    List.map
      (fun w ->
        J.Obj
          [
            ("name", J.String "process_name"); ("ph", J.String "M");
            ("pid", J.Int (pid w)); ("tid", J.Int 1);
            ("args", J.Obj [ ("name", J.String w) ]);
          ])
      workloads
  in
  let events =
    List.map
      (fun s ->
        J.Obj
          [
            ("name", J.String s.name); ("cat", J.String "e2e");
            ("ph", J.String "X"); ("ts", J.Float (s.start_us -. epoch));
            ("dur", J.Float (duration_us s)); ("pid", J.Int (pid s.workload));
            ("tid", J.Int 1);
            ( "args",
              J.Obj
                [
                  ("id", J.Int s.id); ("workload", J.String s.workload);
                  ( "parent",
                    match s.parent with Some p -> J.Int p | None -> J.Null );
                  ("self_us", J.Float (self_us spans s));
                ] );
          ])
      spans
  in
  J.to_string
    (J.Obj
       [ ("traceEvents", J.List (meta @ events));
         ("displayTimeUnit", J.String "ms") ])

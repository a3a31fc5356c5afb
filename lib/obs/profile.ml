(* Exact self-time attribution from the completed-span buffer:
   self = duration - sum of direct children, which telescopes so the
   self-times of a trace sum to exactly the durations of its roots.
   [attribute] groups spans by name path; [stacks] by (lane, path) for
   the folded export. *)

type hot_path = {
  hp_path : string list;
  hp_count : int;
  hp_total_us : float;
  hp_self_us : float;
  hp_alloc_words : float;
  hp_self_alloc_words : float;
}

type stack = { sk_track : int; sk_path : string list; sk_self_us : float }

(* One completed span with its root-first name path and its exact self
   time and allocation. *)
type span = {
  ev : Trace.event;
  path : string list;
  self_us : float;
  self_alloc : float;
}

let add_to tbl key v =
  Hashtbl.replace tbl key
    (v +. match Hashtbl.find_opt tbl key with Some x -> x | None -> 0.)

let spans t =
  let evs = Trace.events t in
  let by_id = Hashtbl.create 256 in
  List.iter (fun (e : Trace.event) -> Hashtbl.replace by_id e.Trace.id e) evs;
  (* A span whose parent was evicted by the buffer cap counts as a root:
     no surviving ancestor covers its time. *)
  let parent_of (e : Trace.event) =
    Option.bind e.Trace.parent (Hashtbl.find_opt by_id)
  in
  (* Root-first name path per span, memoized over the parent chain. *)
  let paths = Hashtbl.create 256 in
  let rec path_of (e : Trace.event) =
    match Hashtbl.find_opt paths e.Trace.id with
    | Some p -> p
    | None ->
      let p =
        match parent_of e with
        | None -> [ e.Trace.name ]
        | Some parent -> path_of parent @ [ e.Trace.name ]
      in
      Hashtbl.replace paths e.Trace.id p;
      p
  in
  (* Direct-children rollups, keyed by parent id. *)
  let child_dur = Hashtbl.create 256 in
  let child_alloc = Hashtbl.create 256 in
  List.iter
    (fun (e : Trace.event) ->
      match parent_of e with
      | Some p ->
        add_to child_dur p.Trace.id e.Trace.dur_us;
        add_to child_alloc p.Trace.id (Trace.allocated_words e)
      | None -> ())
    evs;
  List.map
    (fun (e : Trace.event) ->
      let sub tbl =
        match Hashtbl.find_opt tbl e.Trace.id with Some v -> v | None -> 0.
      in
      (* Clamped at zero: nesting on one monotonic clock guarantees the
         children are contained, so any negative residue is rounding. *)
      {
        ev = e;
        path = path_of e;
        self_us = Float.max 0. (e.Trace.dur_us -. sub child_dur);
        self_alloc = Float.max 0. (Trace.allocated_words e -. sub child_alloc);
      })
    evs

let span_wall_us t =
  let evs = Trace.events t in
  let ids = Hashtbl.create 256 in
  List.iter (fun (e : Trace.event) -> Hashtbl.replace ids e.Trace.id ()) evs;
  List.fold_left
    (fun acc (e : Trace.event) ->
      match e.Trace.parent with
      | Some p when Hashtbl.mem ids p -> acc
      | _ -> acc +. e.Trace.dur_us)
    0. evs

let attribute t =
  let agg = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun s ->
      let cur =
        match Hashtbl.find_opt agg s.path with
        | Some h -> h
        | None ->
          order := s.path :: !order;
          {
            hp_path = s.path;
            hp_count = 0;
            hp_total_us = 0.;
            hp_self_us = 0.;
            hp_alloc_words = 0.;
            hp_self_alloc_words = 0.;
          }
      in
      Hashtbl.replace agg s.path
        {
          cur with
          hp_count = cur.hp_count + 1;
          hp_total_us = cur.hp_total_us +. s.ev.Trace.dur_us;
          hp_self_us = cur.hp_self_us +. s.self_us;
          hp_alloc_words = cur.hp_alloc_words +. Trace.allocated_words s.ev;
          hp_self_alloc_words = cur.hp_self_alloc_words +. s.self_alloc;
        })
    (spans t);
  List.rev_map (Hashtbl.find agg) !order
  |> List.sort (fun a b ->
         match Float.compare b.hp_self_us a.hp_self_us with
         | 0 -> compare a.hp_path b.hp_path
         | c -> c)

(* ------------------------------------------------------------------ *)
(* Per-lane stacks and the folded export                              *)

let stacks t =
  let tbl = Hashtbl.create 64 in
  List.iter (fun s -> add_to tbl (s.ev.Trace.track, s.path) s.self_us) (spans t);
  Hashtbl.fold
    (fun (track, path) self acc ->
      { sk_track = track; sk_path = path; sk_self_us = self } :: acc)
    tbl []
  |> List.sort compare

let lane_name track_names track =
  match List.assoc_opt track track_names with
  | Some n -> n
  | None -> Printf.sprintf "track-%d" track

let to_folded ?(track_names = []) stacks =
  let buf = Buffer.create 1024 in
  (* Round the running total, not each line, so the lines add up to the
     rounded sum however many there are. *)
  let exact = ref 0. and emitted = ref 0. in
  List.iter
    (fun s ->
      exact := !exact +. s.sk_self_us;
      let us = Float.round !exact -. !emitted in
      if us > 0. then begin
        emitted := !emitted +. us;
        Buffer.add_string buf
          (String.concat ";" (lane_name track_names s.sk_track :: s.sk_path));
        Buffer.add_string buf (Printf.sprintf " %.0f\n" us)
      end)
    (List.sort compare stacks);
  Buffer.contents buf

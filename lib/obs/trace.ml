type value = Bool of bool | Int of int | Float of float | String of string

let value_to_string = function
  | Bool b -> if b then "true" else "false"
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | String s -> s

type event = {
  id : int;
  parent : int option;
  name : string;
  track : int;
  start_us : float;
  dur_us : float;
  error : bool;
  attrs : (string * value) list;
  gc_minor_words : float;
  gc_major_words : float;
  gc_promoted_words : float;
  gc_minor_collections : int;
  gc_major_collections : int;
}

type t = {
  epoch_us : float;
  mutex : Mutex.t;
  mutable rev_events : event list;
  mutable n_events : int;
  mutable dropped : int;
  mutable drop_warned : bool;
  buf_capacity : int;
  mutable named_tracks : (int * string) list;
  next_id : int Atomic.t;
}

let default_capacity = 1_000_000

let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Trace.create: capacity < 1";
  {
    epoch_us = Clock.now_us ();
    mutex = Mutex.create ();
    rev_events = [];
    n_events = 0;
    dropped = 0;
    drop_warned = false;
    buf_capacity = capacity;
    named_tracks = [];
    next_id = Atomic.make 0;
  }

(* The one global the fast path reads: one atomic load, one branch
   (plus the flight recorder's flag, also off by default). *)
let state : t option Atomic.t = Atomic.make None

let enabled () = Atomic.get state <> None

(* The worker slot a [Parallel] section gave the calling domain, if
   any. Sections spawn fresh domains, so keying a worker's spans by its
   slot rather than its domain id keeps every worker-N on one lane. *)
let worker_lane : int option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let set_worker_lane w =
  if w < 1 then invalid_arg "Trace.set_worker_lane: slot < 1";
  Domain.DLS.set worker_lane (Some w)

(* Domains outside a section take minus their id, so they never share
   a worker's lane; the main domain (id 0) is lane 0. *)
let track () =
  match Domain.DLS.get worker_lane with
  | Some w -> w
  | None -> -(Domain.self () :> int)

let name_track name =
  match Atomic.get state with
  | None -> ()
  | Some t ->
    let id = track () in
    Mutex.lock t.mutex;
    if not (List.mem_assoc id t.named_tracks) then
      t.named_tracks <- (id, name) :: t.named_tracks;
    Mutex.unlock t.mutex

let enable t =
  Atomic.set state (Some t);
  name_track "main"

let disable () = Atomic.set state None

let with_enabled t f =
  let prev = Atomic.get state in
  Atomic.set state (Some t);
  name_track "main";
  Fun.protect ~finally:(fun () -> Atomic.set state prev) f

(* Per-domain stack of open span ids, private to the owning domain:
   parents are resolved within a domain only, so a worker's spans start
   a fresh hierarchy on its own track instead of dangling from whatever
   the spawning domain had open. *)
let stack_key : int list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let record t e =
  Mutex.lock t.mutex;
  if t.n_events >= t.buf_capacity then begin
    t.dropped <- t.dropped + 1;
    let first = not t.drop_warned in
    t.drop_warned <- true;
    Mutex.unlock t.mutex;
    if first then
      Flight.record ~track:(track ()) ~kind:"log" ~level:"warn"
        ~name:"trace span buffer full; dropping further spans"
        [ ("capacity", string_of_int t.buf_capacity) ]
  end
  else begin
    t.rev_events <- e :: t.rev_events;
    t.n_events <- t.n_events + 1;
    Mutex.unlock t.mutex
  end

let dropped_spans t =
  Mutex.lock t.mutex;
  let n = t.dropped in
  Mutex.unlock t.mutex;
  n

let capacity t = t.buf_capacity

let flight_of_span ~track ~name ~dur_us ~error attrs =
  Flight.record ~track ~kind:"span"
    ~level:(if error then "error" else "span")
    ~name
    (("dur_us", Printf.sprintf "%.1f" dur_us)
    :: List.map (fun (k, v) -> (k, value_to_string v)) attrs)

(* Tracing disabled but the flight recorder on: time the body and leave
   the span in the crash ring, without ids or GC accounting. *)
let flight_only_span attrs result_attrs name f =
  let start_us = Clock.now_us () in
  let finish error attrs =
    flight_of_span ~track:(track ()) ~name
      ~dur_us:(Clock.now_us () -. start_us) ~error attrs
  in
  match f () with
  | v ->
    finish false (attrs @ result_attrs v);
    v
  | exception e ->
    finish true attrs;
    raise e

let with_span ?(attrs = []) ?(result_attrs = fun _ -> []) name f =
  match Atomic.get state with
  | None ->
    if Flight.is_enabled () then flight_only_span attrs result_attrs name f
    else f ()
  | Some t ->
    let id = Atomic.fetch_and_add t.next_id 1 in
    let ids = Domain.DLS.get stack_key in
    let parent = match !ids with [] -> None | p :: _ -> Some p in
    ids := id :: !ids;
    let tr = track () in
    (* Word counts come from one exact per-domain source ([Alloc],
       where [Gc.quick_stat]'s words refresh only at GC points);
       collection counts come from the stat record. *)
    let a0 = Alloc.domain () in
    let gc0 = Gc.quick_stat () in
    let start_us = Clock.now_us () in
    let finish error attrs =
      (match !ids with _ :: rest -> ids := rest | [] -> ());
      let dur_us = Clock.now_us () -. start_us in
      let gc1 = Gc.quick_stat () in
      let a1 = Alloc.domain () in
      record t
        {
          id;
          parent;
          name;
          track = tr;
          start_us;
          dur_us;
          error;
          attrs;
          gc_minor_words = a1.Alloc.minor -. a0.Alloc.minor;
          gc_major_words = a1.Alloc.major -. a0.Alloc.major;
          gc_promoted_words = a1.Alloc.promoted -. a0.Alloc.promoted;
          gc_minor_collections =
            gc1.Gc.minor_collections - gc0.Gc.minor_collections;
          gc_major_collections =
            gc1.Gc.major_collections - gc0.Gc.major_collections;
        };
      if Flight.is_enabled () then
        flight_of_span ~track:tr ~name ~dur_us ~error attrs
    in
    (match f () with
    | v ->
      finish false (attrs @ result_attrs v);
      v
    | exception e ->
      finish true attrs;
      raise e)

let events t =
  Mutex.lock t.mutex;
  let es = t.rev_events in
  Mutex.unlock t.mutex;
  List.sort
    (fun a b ->
      match Float.compare a.start_us b.start_us with
      | 0 -> compare a.id b.id
      | c -> c)
    es

let num_events t =
  Mutex.lock t.mutex;
  let n = t.n_events in
  Mutex.unlock t.mutex;
  n

let track_names t =
  Mutex.lock t.mutex;
  let ns = t.named_tracks in
  Mutex.unlock t.mutex;
  List.rev ns

let allocated_words e =
  (* Words promoted out of the minor heap would otherwise be counted
     twice: once as minor allocation, once as major. *)
  e.gc_minor_words +. e.gc_major_words -. e.gc_promoted_words

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export (JSON emission via Jsonx: escaped and
   sanitized to valid UTF-8, since span/attribute names may come from
   netlists and error messages). *)

let add_json_string = Jsonx.add_string

let add_json_float = Jsonx.add_float

let add_value buf = function
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> add_json_float buf f
  | String s -> add_json_string buf s

let add_event buf ~epoch e =
  Buffer.add_string buf "{\"ph\":\"X\",\"pid\":0,\"tid\":";
  Buffer.add_string buf (string_of_int e.track);
  Buffer.add_string buf ",\"name\":";
  add_json_string buf e.name;
  Buffer.add_string buf ",\"cat\":\"em\",\"ts\":";
  add_json_float buf (e.start_us -. epoch);
  Buffer.add_string buf ",\"dur\":";
  add_json_float buf e.dur_us;
  Buffer.add_string buf ",\"args\":{\"span_id\":";
  Buffer.add_string buf (string_of_int e.id);
  (match e.parent with
  | Some p ->
    Buffer.add_string buf ",\"parent_id\":";
    Buffer.add_string buf (string_of_int p)
  | None -> ());
  Buffer.add_string buf ",\"error\":";
  Buffer.add_string buf (if e.error then "true" else "false");
  Buffer.add_string buf ",\"gc_minor_words\":";
  add_json_float buf e.gc_minor_words;
  Buffer.add_string buf ",\"gc_major_words\":";
  add_json_float buf e.gc_major_words;
  Buffer.add_string buf ",\"gc_minor_collections\":";
  Buffer.add_string buf (string_of_int e.gc_minor_collections);
  Buffer.add_string buf ",\"gc_major_collections\":";
  Buffer.add_string buf (string_of_int e.gc_major_collections);
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf ',';
      add_json_string buf k;
      Buffer.add_char buf ':';
      add_value buf v)
    e.attrs;
  Buffer.add_string buf "}}"

let add_thread_name buf (tid, name) =
  Buffer.add_string buf "{\"ph\":\"M\",\"pid\":0,\"tid\":";
  Buffer.add_string buf (string_of_int tid);
  Buffer.add_string buf ",\"name\":\"thread_name\",\"args\":{\"name\":";
  add_json_string buf name;
  Buffer.add_string buf "}}"

let to_chrome_json t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_char buf ','
  in
  sep ();
  Buffer.add_string buf
    "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"blech\"}}";
  List.iter
    (fun tn ->
      sep ();
      add_thread_name buf tn)
    (track_names t);
  List.iter
    (fun e ->
      sep ();
      add_event buf ~epoch:t.epoch_us e)
    (events t);
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents buf

let write_chrome path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (to_chrome_json t);
      output_char oc '\n')

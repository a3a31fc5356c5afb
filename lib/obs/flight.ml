type event = {
  fl_ts_us : float;
  fl_track : int;
  fl_kind : string;
  fl_level : string;
  fl_name : string;
  fl_detail : (string * string) list;
}

let capacity = 256

(* One ring per domain, single writer (the owning domain). Slots hold
   boxed events, so a concurrent reader sees either the old or the new
   event of a slot being overwritten, never a torn one. [head] counts
   recorded events forever; the live window is the last [capacity]. *)
type ring = { buf : event option array; head : int Atomic.t }

(* Registration of rings is rare (once per domain) and mutex-protected;
   recording itself never takes the lock. Rings of joined domains stay
   registered so a post-mortem dump still sees their events. *)
let rings : ring list ref = ref []

let rings_mu = Mutex.create ()

let ring_key : ring Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let r = { buf = Array.make capacity None; head = Atomic.make 0 } in
      Mutex.lock rings_mu;
      rings := r :: !rings;
      Mutex.unlock rings_mu;
      r)

(* The one global the fast path reads: one atomic load, one branch. *)
let enabled_flag = Atomic.make false

let set_enabled b = Atomic.set enabled_flag b

let is_enabled () = Atomic.get enabled_flag

let with_enabled b f =
  let prev = Atomic.get enabled_flag in
  Atomic.set enabled_flag b;
  Fun.protect ~finally:(fun () -> Atomic.set enabled_flag prev) f

let record ~track ~kind ~level ~name detail =
  if Atomic.get enabled_flag then begin
    let r = Domain.DLS.get ring_key in
    let e =
      {
        fl_ts_us = Clock.now_us ();
        fl_track = track;
        fl_kind = kind;
        fl_level = level;
        fl_name = name;
        fl_detail = detail;
      }
    in
    let i = Atomic.fetch_and_add r.head 1 in
    r.buf.(i mod capacity) <- Some e
  end

let all_rings () =
  Mutex.lock rings_mu;
  let rs = !rings in
  Mutex.unlock rings_mu;
  rs

(* Read a ring oldest-to-newest by walking the write counter, not the
   array: after a wrap, slot order and logical order differ. *)
let ring_events r =
  let h = Atomic.get r.head in
  let es = ref [] in
  for i = h - 1 downto max 0 (h - capacity) do
    match r.buf.(i mod capacity) with
    | Some e -> es := e :: !es
    | None -> ()
  done;
  !es

let events () =
  let collected = List.concat_map ring_events (all_rings ()) in
  (* Stable, so same-microsecond events of one ring keep their recorded
     order; cross-ring ties order by track. *)
  List.stable_sort
    (fun a b ->
      match Float.compare a.fl_ts_us b.fl_ts_us with
      | 0 -> compare a.fl_track b.fl_track
      | c -> c)
    collected

let clear () =
  List.iter
    (fun r ->
      Array.fill r.buf 0 (Array.length r.buf) None;
      Atomic.set r.head 0)
    (all_rings ())

let take_last limit es =
  match limit with
  | None -> es
  | Some k ->
    let n = List.length es in
    if n <= k then es else List.filteri (fun i _ -> i >= n - k) es

let dump ?limit oc =
  List.iter
    (fun e ->
      Printf.fprintf oc "%13.1f [%d] %-5s %s: %s%s\n" e.fl_ts_us e.fl_track
        e.fl_level e.fl_kind e.fl_name
        (String.concat ""
           (List.map (fun (k, v) -> Printf.sprintf " %s=%s" k v) e.fl_detail)))
    (take_last limit (events ()))

let dump_json oc =
  let buf = Buffer.create 256 in
  List.iter
    (fun e ->
      Buffer.add_string buf "{\"ts_us\":";
      Jsonx.add_float buf e.fl_ts_us;
      Buffer.add_string buf ",\"track\":";
      Buffer.add_string buf (string_of_int e.fl_track);
      Buffer.add_string buf ",\"kind\":";
      Jsonx.add_string buf e.fl_kind;
      Buffer.add_string buf ",\"level\":";
      Jsonx.add_string buf e.fl_level;
      Buffer.add_string buf ",\"name\":";
      Jsonx.add_string buf e.fl_name;
      Buffer.add_string buf ",\"fields\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Jsonx.add_string buf k;
          Buffer.add_char buf ':';
          Jsonx.add_string buf v)
        e.fl_detail;
      Buffer.add_string buf "}}\n")
    (events ());
  Buffer.output_buffer oc buf

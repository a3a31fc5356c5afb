type level = Debug | Info | Warn | Error

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

type output = Channel of out_channel | Buffer of Buffer.t

type t = {
  min_level : level;
  text : output option;
  json : output option;
  mutex : Mutex.t;
}

let create ?(min_level = Info) ?text ?json () =
  { min_level; text; json; mutex = Mutex.create () }

(* The one global the fast path reads (plus the flight recorder's
   flag): one load and branch each when everything is off. *)
let state : t option Atomic.t = Atomic.make None

let enable t = Atomic.set state (Some t)

let disable () = Atomic.set state None

let enabled () = Atomic.get state <> None

let with_enabled t f =
  let prev = Atomic.get state in
  Atomic.set state (Some t);
  Fun.protect ~finally:(fun () -> Atomic.set state prev) f

let write out s =
  match out with
  | Buffer b -> Buffer.add_string b s
  | Channel oc ->
    output_string oc s;
    (* A crash must not swallow the lines leading up to it. *)
    flush oc

(* ISO-8601 UTC with millisecond precision from a Clock microsecond
   timestamp. *)
let iso_of_us ts_us =
  let secs = ts_us /. 1e6 in
  let tm = Unix.gmtime secs in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec
    (int_of_float (Float.rem ts_us 1e6) / 1000)

let text_line ~ts_us ~level ~track ~span msg fields =
  let buf = Buffer.create 96 in
  Buffer.add_string buf (iso_of_us ts_us);
  Buffer.add_char buf ' ';
  Buffer.add_string buf
    (Printf.sprintf "%-5s" (String.uppercase_ascii (level_to_string level)));
  Buffer.add_string buf (Printf.sprintf " [%d]" track);
  (match span with
  | Some id -> Buffer.add_string buf (Printf.sprintf " (span %d)" id)
  | None -> ());
  Buffer.add_char buf ' ';
  Buffer.add_string buf msg;
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf k;
      Buffer.add_char buf '=';
      Buffer.add_string buf (Trace.value_to_string v))
    fields;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let add_value buf = function
  | Trace.Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Trace.Int i -> Buffer.add_string buf (string_of_int i)
  | Trace.Float f -> Jsonx.add_float buf f
  | Trace.String s -> Jsonx.add_string buf s

let json_line ~ts_us ~level ~track ~span msg fields =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "{\"ts_us\":";
  Jsonx.add_float buf ts_us;
  Buffer.add_string buf ",\"level\":";
  Jsonx.add_string buf (level_to_string level);
  Buffer.add_string buf ",\"track\":";
  Buffer.add_string buf (string_of_int track);
  (match span with
  | Some id ->
    Buffer.add_string buf ",\"span\":";
    Buffer.add_string buf (string_of_int id)
  | None -> ());
  Buffer.add_string buf ",\"msg\":";
  Jsonx.add_string buf msg;
  Buffer.add_string buf ",\"fields\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Jsonx.add_string buf k;
      Buffer.add_char buf ':';
      add_value buf v)
    fields;
  Buffer.add_string buf "}}\n";
  Buffer.contents buf

let emit sink level make =
  let msg, fields = make () in
  let ts_us = Clock.now_us () in
  let track = Trace.track () in
  let span = Trace.current_span_id () in
  if Flight.is_enabled () then
    Flight.record ~track ~kind:"log" ~level:(level_to_string level) ~name:msg
      (List.map (fun (k, v) -> (k, Trace.value_to_string v)) fields);
  match sink with
  | Some t when severity level >= severity t.min_level ->
    Mutex.lock t.mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.mutex)
      (fun () ->
        (match t.text with
        | Some out -> write out (text_line ~ts_us ~level ~track ~span msg fields)
        | None -> ());
        match t.json with
        | Some out -> write out (json_line ~ts_us ~level ~track ~span msg fields)
        | None -> ())
  | _ -> ()

let log level make =
  match Atomic.get state with
  | None -> if Flight.is_enabled () then emit None level make
  | Some t -> emit (Some t) level make

let debug make = log Debug make

let info make = log Info make

let warn make = log Warn make

let error make = log Error make

(* Trace sits below Log in the module order, so it reports span-buffer
   overflow through a callback installed here (once per buffer). *)
let () =
  Trace.set_drop_warner (fun capacity ->
      warn (fun () ->
          ( "trace span buffer full; dropping further spans",
            [ ("capacity", Trace.Int capacity) ] )))

(* Embedded live-telemetry HTTP server: one listener domain, blocking
   sequential accept, hostile-input-bounded request parsing. See the
   .mli for the architecture and DESIGN §7 for the rationale. *)

type t = {
  sv_addr : string;
  sv_port : int;
  sv_sock : Unix.file_descr;
  sv_stop : bool Atomic.t;
  sv_served : int Atomic.t;
  sv_domain : unit Domain.t;
  sv_stopped : bool Atomic.t; (* [stop] already ran (idempotence) *)
}

(* ------------------------------------------------------------------ *)
(* Routes                                                              *)

let prometheus_content_type = "text/plain; version=0.0.4"

let healthz_json () =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "{\"status\":\"ok\",\"uptime_s\":";
  Jsonx.add_float buf (Runtime.uptime_s ());
  Buffer.add_string buf ",\"phase\":";
  Jsonx.add_string buf (Runtime.phase ());
  let sdone, stotal = Runtime.structures () in
  Buffer.add_string buf ",\"structures_done\":";
  Buffer.add_string buf (string_of_int sdone);
  Buffer.add_string buf ",\"structures_total\":";
  Buffer.add_string buf (string_of_int stotal);
  (* Cross-run correlation: the ledger run id being recorded (null when
     --record-run is off) and whether a numerical audit is live. *)
  Buffer.add_string buf ",\"run_id\":";
  (match Runtime.run_id () with
  | Some id -> Jsonx.add_string buf id
  | None -> Buffer.add_string buf "null");
  Buffer.add_string buf ",\"audit_enabled\":";
  Buffer.add_string buf (if Runtime.audit_enabled () then "true" else "false");
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let empty_trace_json = "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}"

(* [(path, handler)] pairs. A handler returns [(content_type, body)];
   it is evaluated per request on the listener domain, and an exception
   turns into a [500]. *)
let routes () =
  [
    ( "/metrics",
      fun () ->
        Runtime.sample_now ();
        (prometheus_content_type, Metrics.to_prometheus ()) );
    ("/healthz", fun () -> ("application/json", healthz_json ()));
    ( "/trace",
      fun () ->
        ( "application/json",
          match Trace.current () with
          | Some tr -> Trace.to_chrome_json tr
          | None -> empty_trace_json ) );
    ( "/profile",
      fun () ->
        ( "application/json",
          match Trace.current () with
          | Some tr ->
            Profile.to_speedscope ~track_names:(Trace.track_names tr)
              (Profile.stacks tr)
          | None -> Profile.to_speedscope [] ) );
    ("/flight", fun () -> ("application/x-ndjson", Flight.to_json_lines ()));
    ("/audit", fun () -> ("application/json", Runtime.audit_json ()));
    ("/runs", fun () -> ("application/json", Runtime.runs_json ()));
  ]

(* ------------------------------------------------------------------ *)
(* HTTP plumbing                                                       *)

let reason_of = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 500 -> "Internal Server Error"
  | _ -> "Unknown"

let requests_counter status =
  Metrics.counter
    ~labels:[ ("status", string_of_int status) ]
    ~help:"Live-telemetry HTTP requests served, by response status"
    "obs_serve_requests_total"

let write_all fd s =
  let n = String.length s in
  let pos = ref 0 in
  while !pos < n do
    pos := !pos + Unix.write_substring fd s !pos (n - !pos)
  done

let respond fd ~status ?(headers = []) ~content_type body =
  let buf = Buffer.create (String.length body + 256) in
  Buffer.add_string buf
    (Printf.sprintf "HTTP/1.1 %d %s\r\n" status (reason_of status));
  Buffer.add_string buf (Printf.sprintf "Content-Type: %s\r\n" content_type);
  Buffer.add_string buf
    (Printf.sprintf "Content-Length: %d\r\n" (String.length body));
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%s: %s\r\n" k v))
    headers;
  Buffer.add_string buf "Connection: close\r\n\r\n";
  Buffer.add_string buf body;
  write_all fd (Buffer.contents buf);
  Metrics.inc (requests_counter status)

let error_body status detail = Printf.sprintf "%d %s\n" status detail

(* Read the request head: everything up to the header/body separator,
   bounded by [max_bytes] and the socket's receive timeout. Returns the
   first line, or an error classification. We never need the headers —
   every response closes the connection — but draining to the blank
   line keeps well-behaved clients from seeing a reset before the
   response. Stops early once the first line is complete and the limit
   is hit (oversized *headers* from a client that already sent a valid
   request line are forgiven; an oversized request *line* is not). *)
type head = Line of string | Too_long | Timeout | Closed

let contains_crlf buf =
  let s = Buffer.contents buf in
  match String.index_opt s '\n' with Some _ -> true | None -> false

let read_head fd max_bytes =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 512 in
  let result = ref None in
  (try
     while !result = None do
       let want = Bytes.length chunk in
       let n = Unix.read fd chunk 0 want in
       if n = 0 then
         result := Some (if contains_crlf buf then `Head else `Closed)
       else begin
         Buffer.add_subbytes buf chunk 0 n;
         let s = Buffer.contents buf in
         (* Head complete at the first blank line. *)
         let complete =
           let rec find i =
             if i + 1 >= String.length s then false
             else if s.[i] = '\n' && (s.[i + 1] = '\n'
                     || (s.[i + 1] = '\r' && i + 2 < String.length s
                         && s.[i + 2] = '\n'))
             then true
             else find (i + 1)
           in
           find 0
         in
         if complete then result := Some `Head
         else if Buffer.length buf > max_bytes then
           result := Some (if contains_crlf buf then `Head else `Too_long)
       end
     done
   with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    result := Some `Timeout
  | Unix.Unix_error _ -> result := Some `Closed);
  match !result with
  | Some `Timeout -> Timeout
  | Some `Closed -> Closed
  | Some `Too_long -> Too_long
  | Some `Head | None -> begin
    let s = Buffer.contents buf in
    match String.index_opt s '\n' with
    | None -> Closed
    (* The request-line bound holds even when the whole head arrived in
       one read and completed before the incremental size check ran. *)
    | Some i when i > max_bytes -> Too_long
    | Some i ->
      let line = String.sub s 0 i in
      let line =
        if line <> "" && line.[String.length line - 1] = '\r' then
          String.sub line 0 (String.length line - 1)
        else line
      in
      Line line
  end

let strip_query path =
  match String.index_opt path '?' with
  | None -> path
  | Some i -> String.sub path 0 i

let handle_connection routes ~max_request_bytes fd =
  match read_head fd max_request_bytes with
  | Closed -> () (* nothing useful to answer *)
  | Timeout ->
    respond fd ~status:408 ~content_type:"text/plain"
      (error_body 408 "request head not received in time")
  | Too_long ->
    respond fd ~status:400 ~content_type:"text/plain"
      (error_body 400 "request line too long")
  | Line line -> begin
    match String.split_on_char ' ' line with
    | [ meth; target; version ]
      when String.length version >= 5 && String.sub version 0 5 = "HTTP/" ->
      if meth <> "GET" then
        respond fd ~status:405 ~headers:[ ("Allow", "GET") ]
          ~content_type:"text/plain"
          (error_body 405 "only GET is supported")
      else begin
        let path = strip_query target in
        match List.assoc_opt path routes with
        | None ->
          respond fd ~status:404 ~content_type:"text/plain"
            (error_body 404 "no such endpoint")
        | Some handler -> begin
          match handler () with
          | content_type, body -> respond fd ~status:200 ~content_type body
          | exception _ ->
            respond fd ~status:500 ~content_type:"text/plain"
              (error_body 500 "handler failed")
        end
      end
    | _ ->
      respond fd ~status:400 ~content_type:"text/plain"
        (error_body 400 "malformed request line")
  end

(* ------------------------------------------------------------------ *)
(* Listener                                                            *)

let default_max_request_bytes = 8192

let default_read_timeout_s = 5.0

let accept_loop ~sock ~stop ~served ~routes ~max_request_bytes
    ~read_timeout_s =
  let live = ref true in
  while !live do
    match Unix.accept sock with
    | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
      if Atomic.get stop then live := false
    | exception Unix.Unix_error _ ->
      (* [stop] closed the listening socket (EBADF/EINVAL), or the
         socket is otherwise unusable — either way the listener is
         done. *)
      live := false
    | conn, _peer ->
      (* Serve the accepted connection even when a stop raced in: it
         is in flight, and graceful shutdown flushes in-flight
         responses. *)
      Fun.protect
        ~finally:(fun () -> try Unix.close conn with Unix.Unix_error _ -> ())
        (fun () ->
          try
            Unix.setsockopt_float conn Unix.SO_RCVTIMEO read_timeout_s;
            handle_connection routes ~max_request_bytes conn;
            Atomic.incr served
          with Unix.Unix_error _ | Sys_error _ ->
            (* Client went away mid-read or mid-write; never the
               listener's problem. *)
            ());
      if Atomic.get stop then live := false
  done

let start ?(addr = "127.0.0.1") ?(max_request_bytes = default_max_request_bytes)
    ?(read_timeout_s = default_read_timeout_s)
    ~port () =
  if max_request_bytes < 64 then
    invalid_arg "Serve.start: max_request_bytes < 64";
  if not (Float.is_finite read_timeout_s) || read_timeout_s <= 0. then
    invalid_arg "Serve.start: read timeout must be positive";
  let routes = routes () in
  let inet =
    try Unix.inet_addr_of_string addr
    with Failure _ -> invalid_arg ("Serve.start: bad address " ^ addr)
  in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (match
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (inet, port));
     Unix.listen sock 16
   with
  | () -> ()
  | exception e ->
    (try Unix.close sock with Unix.Unix_error _ -> ());
    raise e);
  let bound_port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  let stop = Atomic.make false in
  let served = Atomic.make 0 in
  let domain =
    Domain.spawn (fun () ->
        accept_loop ~sock ~stop ~served ~routes ~max_request_bytes
          ~read_timeout_s)
  in
  {
    sv_addr = addr;
    sv_port = bound_port;
    sv_sock = sock;
    sv_stop = stop;
    sv_served = served;
    sv_domain = domain;
    sv_stopped = Atomic.make false;
  }

let port t = t.sv_port

let addr t = t.sv_addr

let requests_served t = Atomic.get t.sv_served

let stop t =
  if Atomic.compare_and_set t.sv_stopped false true then begin
    Atomic.set t.sv_stop true;
    (* Waking a blocked accept: [close] alone does not interrupt an
       accept(2) already blocked on the fd, but [shutdown] does (the
       accept returns EINVAL); a best-effort self-connect covers
       platforms where it does not. The fd itself is closed only after
       the join so its number cannot be reused under the listener. An
       in-flight connection finishes its response first — only
       queued-but-unaccepted connections are dropped. *)
    (try Unix.shutdown t.sv_sock Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    (try
       let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       Fun.protect
         ~finally:(fun () -> try Unix.close s with Unix.Unix_error _ -> ())
         (fun () ->
           Unix.connect s
             (Unix.ADDR_INET (Unix.inet_addr_of_string t.sv_addr, t.sv_port)))
     with Unix.Unix_error _ | Invalid_argument _ | Failure _ -> ());
    Domain.join t.sv_domain;
    (try Unix.close t.sv_sock with Unix.Unix_error _ -> ())
  end

(* Live-telemetry HTTP server (Obs.Serve): endpoint correctness, hostile
   clients (oversized, malformed, stalled), and result-neutrality while
   a solve is being scraped. Every test binds an ephemeral port. *)

open T_helpers
module Sv = Obs.Serve
module Rt = Obs.Runtime
module Mx = Obs.Metrics
module Flow = Emflow.Em_flow

(* ---------------------------------------------------------------- *)
(* Minimal blocking HTTP client                                      *)

let connect port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (match Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
  | () -> ()
  | exception e ->
    (try Unix.close sock with Unix.Unix_error _ -> ());
    raise e);
  sock

let recv_all sock =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  (try
     let rec go () =
       let n = Unix.read sock chunk 0 4096 in
       if n > 0 then begin
         Buffer.add_subbytes buf chunk 0 n;
         go ()
       end
     in
     go ()
   with Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ());
  Buffer.contents buf

type response = {
  status : int;
  headers : (string * string) list; (* keys lowercased *)
  body : string;
}

let parse_response raw =
  let n = String.length raw in
  let sep =
    let rec find i =
      if i + 3 >= n then
        Alcotest.failf "no header/body separator in %S" raw
      else if
        raw.[i] = '\r' && raw.[i + 1] = '\n' && raw.[i + 2] = '\r'
        && raw.[i + 3] = '\n'
      then i
      else find (i + 1)
    in
    find 0
  in
  let head_lines =
    String.sub raw 0 sep |> String.split_on_char '\n'
    |> List.map (fun l ->
           if l <> "" && l.[String.length l - 1] = '\r' then
             String.sub l 0 (String.length l - 1)
           else l)
  in
  match head_lines with
  | [] -> Alcotest.failf "empty response head in %S" raw
  | status_line :: header_lines ->
    let status =
      match String.split_on_char ' ' status_line with
      | "HTTP/1.1" :: code :: _ -> begin
        match int_of_string_opt code with
        | Some c -> c
        | None -> Alcotest.failf "bad status code in %S" status_line
      end
      | _ -> Alcotest.failf "bad status line %S" status_line
    in
    let headers =
      List.filter_map
        (fun l ->
          match String.index_opt l ':' with
          | None -> None
          | Some i ->
            Some
              ( String.lowercase_ascii (String.sub l 0 i),
                String.trim (String.sub l (i + 1) (String.length l - i - 1)) ))
        header_lines
    in
    { status; headers; body = String.sub raw (sep + 4) (n - sep - 4) }

let http_raw ~port raw =
  let sock = connect port in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      ignore (Unix.write_substring sock raw 0 (String.length raw));
      parse_response (recv_all sock))

let http_get ?(meth = "GET") ~port path =
  http_raw ~port (Printf.sprintf "%s %s HTTP/1.1\r\nHost: t\r\n\r\n" meth path)

let with_server ?max_request_bytes ?read_timeout_s f =
  let server = Sv.start ?max_request_bytes ?read_timeout_s ~port:0 () in
  Fun.protect ~finally:(fun () -> Sv.stop server) (fun () -> f server)

(* ---------------------------------------------------------------- *)
(* Endpoints                                                         *)

let test_metrics_endpoint () =
  with_server (fun server ->
      let port = Sv.port server in
      Alcotest.(check bool) "ephemeral port resolved" true (port > 0);
      Alcotest.(check string) "bound address" "127.0.0.1" (Sv.addr server);
      let c = Mx.counter ~help:"serve test probe" "t_serve_probe_total" in
      Mx.with_enabled true (fun () ->
          Mx.inc c;
          Rt.sample_now ();
          let r = http_get ~port "/metrics" in
          Alcotest.(check int) "status" 200 r.status;
          Alcotest.(check (option string))
            "prometheus content type"
            (Some "text/plain; version=0.0.4")
            (List.assoc_opt "content-type" r.headers);
          Alcotest.(check (option string)) "closes the connection"
            (Some "close")
            (List.assoc_opt "connection" r.headers);
          Alcotest.(check (option string)) "content length matches"
            (Some (string_of_int (String.length r.body)))
            (List.assoc_opt "content-length" r.headers);
          List.iter
            (fun needle ->
              Alcotest.(check bool) ("exposition has " ^ needle) true
                (T_obs.contains r.body needle))
            [
              "t_serve_probe_total 1"; "process_uptime_seconds";
              "ocaml_gc_heap_words"; "em_run_structures_total";
            ];
          (* Query strings are stripped, as Prometheus sends them. *)
          Alcotest.(check int) "query string accepted" 200
            (http_get ~port "/metrics?format=text").status);
      Alcotest.(check bool) "requests counted" true
        (Sv.requests_served server >= 2))

let test_healthz_endpoint () =
  with_server (fun server ->
      let port = Sv.port server in
      Rt.reset ();
      Rt.with_enabled true (fun () ->
          Rt.set_phase "analyze";
          Rt.set_structures_total 5;
          Rt.structure_done ();
          Rt.structure_done ();
          let r = http_get ~port "/healthz" in
          Alcotest.(check int) "status" 200 r.status;
          Alcotest.(check (option string))
            "json content type" (Some "application/json")
            (List.assoc_opt "content-type" r.headers);
          Alcotest.(check bool) "body is valid JSON" true
            (T_obs.json_accepts (String.trim r.body));
          List.iter
            (fun needle ->
              Alcotest.(check bool) ("healthz has " ^ needle) true
                (T_obs.contains r.body needle))
            [
              {|"status":"ok"|}; {|"phase":"analyze"|};
              {|"structures_done":2|}; {|"structures_total":5|};
              {|"uptime_s":|}; {|"run_id":null|}; {|"audit_enabled":false|};
            ];
          (* A recording in progress surfaces its ledger run id. *)
          Rt.set_run_id (Some "ledger-run-1");
          Alcotest.(check bool) "healthz carries the live run id" true
            (T_obs.contains (http_get ~port "/healthz").body
               {|"run_id":"ledger-run-1"|});
          (* An installed audit provider flips the healthz flag. *)
          Rt.set_audit_provider (Some (fun () -> "{}"));
          Fun.protect
            ~finally:(fun () -> Rt.set_audit_provider None)
            (fun () ->
              Alcotest.(check bool) "healthz reflects a live audit" true
                (T_obs.contains (http_get ~port "/healthz").body
                   {|"audit_enabled":true|})));
      Rt.reset ())

let test_snapshot_endpoints () =
  (* /trace, /profile and /flight must answer valid documents even with
     nothing recording — the scrape-anytime contract — and /profile
     must profile a live trace. *)
  with_server (fun server ->
      let port = Sv.port server in
      let tr = http_get ~port "/trace" in
      Alcotest.(check int) "trace status" 200 tr.status;
      Alcotest.(check bool) "trace is valid JSON" true
        (T_obs.json_accepts (String.trim tr.body));
      Alcotest.(check bool) "trace shape" true
        (T_obs.contains tr.body {|"traceEvents"|});
      let pr = http_get ~port "/profile" in
      Alcotest.(check int) "profile status" 200 pr.status;
      ignore (T_profile.validate_speedscope (String.trim pr.body));
      (* With a live trace, /profile is the exact profile of the spans
         completed so far. *)
      let live =
        Obs.Trace.with_enabled (Obs.Trace.create ()) (fun () ->
            Obs.Trace.with_span "serve.done" (fun () -> ());
            Obs.Trace.with_span "serve.open" (fun () ->
                http_get ~port "/profile"))
      in
      Alcotest.(check int) "live profile status" 200 live.status;
      ignore (T_profile.validate_speedscope (String.trim live.body));
      Alcotest.(check bool) "completed span profiled" true
        (T_obs.contains live.body {|"serve.done"|});
      Alcotest.(check bool) "open span not yet profiled" false
        (T_obs.contains live.body {|"serve.open"|});
      let fl = http_get ~port "/flight" in
      Alcotest.(check int) "flight status" 200 fl.status;
      Alcotest.(check (option string))
        "flight content type" (Some "application/x-ndjson")
        (List.assoc_opt "content-type" fl.headers))

let test_audit_endpoint () =
  with_server (fun server ->
      let port = Sv.port server in
      (* No provider installed: a valid "disabled" document, not a 404 —
         the scrape-anytime contract. *)
      Rt.set_audit_provider None;
      let r = http_get ~port "/audit" in
      Alcotest.(check int) "status without provider" 200 r.status;
      Alcotest.(check (option string))
        "json content type" (Some "application/json")
        (List.assoc_opt "content-type" r.headers);
      Alcotest.(check string) "disabled document" {|{"enabled":false}|}
        (String.trim r.body);
      (* An installed provider's document is served verbatim... *)
      Rt.set_audit_provider (Some (fun () -> {|{"enabled":true,"probe":42}|}));
      Fun.protect
        ~finally:(fun () -> Rt.set_audit_provider None)
        (fun () ->
          let r = http_get ~port "/audit" in
          Alcotest.(check int) "status with provider" 200 r.status;
          Alcotest.(check string) "provider document"
            {|{"enabled":true,"probe":42}|}
            (String.trim r.body));
      (* ...and clearing it restores the disabled document. *)
      Alcotest.(check string) "cleared provider" {|{"enabled":false}|}
        (String.trim (http_get ~port "/audit").body);
      (* The real aggregate renders valid JSON through the endpoint. *)
      Em_core.Audit.Live.reset ~tol:1e-9;
      Rt.set_audit_provider (Some Em_core.Audit.Live.to_json);
      Fun.protect
        ~finally:(fun () -> Rt.set_audit_provider None)
        (fun () ->
          let r = http_get ~port "/audit" in
          Alcotest.(check bool) "live aggregate is valid JSON" true
            (T_obs.json_accepts (String.trim r.body));
          List.iter
            (fun needle ->
              Alcotest.(check bool) ("live aggregate has " ^ needle) true
                (T_obs.contains r.body needle))
            [
              {|"enabled":true|}; {|"structures_audited":0|}; {|"violations":0|};
            ]))

let test_runs_endpoint () =
  with_server (fun server ->
      let port = Sv.port server in
      (* Same provider contract as /audit: a valid "disabled" document
         until --record-run installs a renderer. *)
      Rt.set_runs_provider None;
      let r = http_get ~port "/runs" in
      Alcotest.(check int) "status without provider" 200 r.status;
      Alcotest.(check (option string))
        "json content type" (Some "application/json")
        (List.assoc_opt "content-type" r.headers);
      Alcotest.(check string) "disabled document" {|{"enabled":false}|}
        (String.trim r.body);
      Rt.set_runs_provider
        (Some (fun () -> {|{"enabled":true,"runs":3,"run_id":"abc"}|}));
      Fun.protect
        ~finally:(fun () -> Rt.set_runs_provider None)
        (fun () ->
          Alcotest.(check string) "provider document served verbatim"
            {|{"enabled":true,"runs":3,"run_id":"abc"}|}
            (String.trim (http_get ~port "/runs").body));
      Alcotest.(check string) "cleared provider" {|{"enabled":false}|}
        (String.trim (http_get ~port "/runs").body))

(* ---------------------------------------------------------------- *)
(* Hostile clients                                                   *)

let test_not_found_and_bad_method () =
  with_server (fun server ->
      let port = Sv.port server in
      let r = http_get ~port "/nope" in
      Alcotest.(check int) "unknown path" 404 r.status;
      let r = http_get ~meth:"POST" ~port "/metrics" in
      Alcotest.(check int) "non-GET" 405 r.status;
      Alcotest.(check (option string)) "Allow advertises GET" (Some "GET")
        (List.assoc_opt "allow" r.headers);
      let r = http_raw ~port "complete garbage\r\n\r\n" in
      Alcotest.(check int) "malformed request line" 400 r.status;
      (* The listener survived all of it. *)
      Alcotest.(check int) "still serving" 200
        (http_get ~port "/healthz").status)

let test_oversized_request_line () =
  with_server ~max_request_bytes:64 (fun server ->
      let port = Sv.port server in
      let r = http_get ~port ("/" ^ String.make 200 'a') in
      Alcotest.(check int) "oversized request line" 400 r.status;
      (* Oversized *headers* after a complete request line are forgiven:
         the bound protects the parser, not well-behaved clients with
         chatty proxies. *)
      let r =
        http_raw ~port
          (Printf.sprintf "GET /healthz HTTP/1.1\r\nX-Padding: %s\r\n\r\n"
             (String.make 300 'p'))
      in
      Alcotest.(check int) "oversized headers forgiven" 200 r.status;
      Alcotest.(check int) "still serving" 200
        (http_get ~port "/healthz").status)

let test_slow_client_times_out () =
  with_server ~read_timeout_s:0.2 (fun server ->
      let port = Sv.port server in
      (* Send a partial request line and stall: the receive timeout must
         answer 408 rather than wedge the sequential listener. *)
      let sock = connect port in
      let r =
        Fun.protect
          ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
          (fun () ->
            ignore (Unix.write_substring sock "GET /met" 0 8);
            parse_response (recv_all sock))
      in
      Alcotest.(check int) "stalled client gets 408" 408 r.status;
      (* A connection that sends nothing at all gets the same. *)
      let sock = connect port in
      let raw =
        Fun.protect
          ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
          (fun () -> recv_all sock)
      in
      Alcotest.(check bool) "silent client answered or dropped" true
        (raw = "" || (parse_response raw).status = 408);
      Alcotest.(check int) "listener not wedged" 200
        (http_get ~port "/metrics").status)

let test_stop_idempotent () =
  let server = Sv.start ~port:0 () in
  let port = Sv.port server in
  Alcotest.(check int) "serves before stop" 200
    (http_get ~port "/healthz").status;
  Sv.stop server;
  Sv.stop server;
  (* The port is released: a connect must be refused, not serviced. *)
  match connect port with
  | sock ->
    (try Unix.close sock with Unix.Unix_error _ -> ());
    (* A TCP self-connect artifact can accept; what matters is nobody
       answers HTTP. Binding the port again must succeed either way. *)
    let server2 = Sv.start ~port () in
    Sv.stop server2
  | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) ->
    let server2 = Sv.start ~port () in
    Sv.stop server2

(* ---------------------------------------------------------------- *)
(* Scraping a live solve                                             *)

let test_concurrent_scrapes_during_solve () =
  let compacts, clean = Lazy.force T_obs.equiv_fixture in
  with_server (fun server ->
      let port = Sv.port server in
      let solving = Atomic.make true in
      let worker =
        Domain.spawn (fun () ->
            Fun.protect
              ~finally:(fun () -> Atomic.set solving false)
              (fun () ->
                Rt.with_enabled true (fun () ->
                    Mx.with_enabled true (fun () ->
                        Flow.run_on_compact ~jobs:2 compacts))))
      in
      (* Hammer the endpoints while the worker solves; at least one
         scrape of each, more while the solve lasts. *)
      let scrapes = ref 0 in
      let scrape_round () =
        List.iter
          (fun path ->
            let r = http_get ~port path in
            Alcotest.(check int) (path ^ " mid-solve") 200 r.status;
            incr scrapes)
          [ "/metrics"; "/healthz" ]
      in
      scrape_round ();
      while Atomic.get solving do
        scrape_round ()
      done;
      let scraped = Domain.join worker in
      Alcotest.(check bool) "scraped at least twice" true (!scrapes >= 2);
      Alcotest.(check bool) "confusion counts identical" true
        (clean.Flow.counts = scraped.Flow.counts);
      T_obs.check_segments_bit_identical clean.Flow.segments
        scraped.Flow.segments)

(* The process monitor is the gauge sample every /metrics scrape takes
   on the listener domain. *)
let test_scrape_equivalence =
  qcheck ~count:4
    "serving + monitor + scrapes leave analysis results bit-identical"
    QCheck2.Gen.(int_range 1 4)
    (fun jobs ->
      let compacts, clean = Lazy.force T_obs.equiv_fixture in
      let server = Sv.start ~port:0 () in
      let result =
        Fun.protect
          ~finally:(fun () ->
            Sv.stop server;
            Rt.reset ())
          (fun () ->
            Rt.with_enabled true (fun () ->
                Mx.with_enabled true (fun () ->
                    let r = Flow.run_on_compact ~jobs compacts in
                    let port = Sv.port server in
                    Alcotest.(check int) "post-run scrape" 200
                      (http_get ~port "/metrics").status;
                    Alcotest.(check int) "post-run health" 200
                      (http_get ~port "/healthz").status;
                    r)))
      in
      Alcotest.(check bool) "confusion counts identical" true
        (clean.Flow.counts = result.Flow.counts);
      T_obs.check_segments_bit_identical clean.Flow.segments
        result.Flow.segments;
      true)

let suites =
  [
    ( "serve.endpoints",
      [
        case "/metrics exposition and headers" test_metrics_endpoint;
        case "/healthz live run state" test_healthz_endpoint;
        case "/trace /profile /flight snapshots" test_snapshot_endpoints;
        case "/audit provider contract" test_audit_endpoint;
        case "/runs provider contract" test_runs_endpoint;
      ] );
    ( "serve.hostile",
      [
        case "404, 405 and malformed lines" test_not_found_and_bad_method;
        case "oversized request line bounded" test_oversized_request_line;
        case "stalled client times out" test_slow_client_times_out;
        case "stop is graceful and idempotent" test_stop_idempotent;
      ] );
    ( "serve.equivalence",
      [
        case "concurrent scrapes during a solve"
          test_concurrent_scrapes_during_solve;
        test_scrape_equivalence;
      ] );
  ]

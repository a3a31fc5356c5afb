(** Embedded live-telemetry HTTP server.

    A dependency-free HTTP/1.1 server (Unix sockets + one dedicated
    listener domain, the same no-extra-deps posture as the rest of
    [lib/obs]) exposing the observability surfaces of a {e running}
    process:

    {ul
    {- [GET /metrics] — Prometheus text exposition
       ({!Metrics.to_prometheus}, [Content-Type: text/plain;
       version=0.0.4]) of the default registry, after one
       {!Runtime.sample_now} so the process gauges are current;}
    {- [GET /healthz] — JSON liveness: status, uptime, current pipeline
       phase, structures done/total, the ledger [run_id] being recorded
       ([null] unless [--record-run] is active) and [audit_enabled]
       (from {!Runtime});}
    {- [GET /trace] — Chrome-trace JSON snapshot of the spans completed
       so far ({!Trace.to_chrome_json} of the installed sink; an empty
       trace document when tracing is off);}
    {- [GET /profile] — speedscope JSON of the exact self-times of
       the spans completed so far ({!Profile.stacks} of the installed
       sink; an empty speedscope document when tracing is off);}
    {- [GET /flight] — the flight-recorder rings as JSON lines
       ({!Flight.to_json_lines});}
    {- [GET /audit] — the live numerical-audit aggregate
       ({!Runtime.audit_json}; [{"enabled":false}] until a provider is
       installed);}
    {- [GET /runs] — the run-ledger snapshot ({!Runtime.runs_json};
       [{"enabled":false}] until [--record-run] installs a provider).}}

    Every snapshot read goes through the same mutex- or atomic-guarded
    paths the post-mortem exporters use, so scraping never blocks or
    races the analysis domains beyond what those exporters already do.

    The listener serves connections {e sequentially} (scrape traffic is
    one Prometheus poll every few seconds, not user traffic — the
    request-handling daemon is ROADMAP item 1). Request parsing is
    hostile-input safe: the request head is read with a receive timeout
    and a size bound, oversized or malformed requests get [400], unknown
    paths [404], non-GET methods [405] (with [Allow: GET]), stalled
    clients [408]; every response closes the connection
    ([Connection: close]). A connection failing mid-write or raising
    never takes the listener down.

    {!stop} is graceful: the in-flight response (if any) finishes
    flushing before the listener domain exits; only the accept queue is
    abandoned. *)

type t

val start :
  ?addr:string ->
  ?max_request_bytes:int ->
  ?read_timeout_s:float ->
  port:int ->
  unit ->
  t
(** Bind [addr:port] (default address ["127.0.0.1"]; port [0] picks an
    ephemeral port — read it back with {!port}) and spawn the listener
    domain serving the seven endpoints above. [max_request_bytes]
    (default 8192) bounds the request head; [read_timeout_s] (default
    5 s) bounds how long a client may dawdle sending it. Raises
    [Unix.Unix_error] if the address cannot be bound (e.g. port in
    use) — before any domain is spawned. *)

val port : t -> int
(** The actually bound port (resolves port [0]). *)

val addr : t -> string

val stop : t -> unit
(** Close the listening socket (waking a blocked accept), let an
    in-flight response finish, and join the listener domain.
    Idempotent. *)

val requests_served : t -> int
(** Connections fully answered so far (any status), for tests and the
    shutdown log line. *)

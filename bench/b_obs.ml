(* Telemetry overhead guard: the obs subsystem must be effectively free
   when disabled (<2% on the analysis flow) and cheap enough to leave on
   for profiling runs. Three flow timings on the largest synthetic grid
   (telemetry off / metrics on / metrics+trace on) plus micro-benchmarks
   of the disabled fast paths, written to BENCH_obs.json so CI can watch
   the ratios drift. *)

module Gg = Pdn.Grid_gen
module Flow = Emflow.Em_flow
module J = Emflow.Json_out
module Tr = Obs.Trace
module Mx = Obs.Metrics

let best_of reps f =
  let result = ref None in
  let best = ref infinity in
  for _ = 1 to reps do
    let r, t = B_util.wall f in
    result := Some r;
    if t < !best then best := t
  done;
  (Option.get !result, !best)

let ns_per_op iters f =
  let (), t = B_util.wall (fun () -> for _ = 1 to iters do f () done) in
  t /. float_of_int iters *. 1e9

(* Minimal blocking HTTP GET against the local live-telemetry server:
   one request, read to EOF (the server always closes). *)
let http_get port path =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf "GET %s HTTP/1.1\r\nHost: localhost\r\n\r\n" path
      in
      ignore (Unix.write_substring sock req 0 (String.length req));
      let total = ref 0 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        let n = Unix.read sock chunk 0 4096 in
        if n > 0 then begin
          total := !total + n;
          drain ()
        end
      in
      drain ();
      !total)

let run cfg =
  B_util.heading "Obs: telemetry overhead guard";
  let size = if cfg.B_util.full then Gg.Pg6 else Gg.Pg2 in
  let scale = B_util.ibm_scale cfg size in
  let grid = Gg.generate (Gg.ibm_preset ~scale size) in
  let sol = Spice.Mna.solve grid.Gg.netlist in
  let compacts = Emflow.Extract.extract_compact ~tech:grid.Gg.tech sol in
  let n_structures = List.length compacts in
  let n_segments = Emflow.Extract.total_compact_segments compacts in
  B_util.note "%s x%.2f: %d structures, %d segments" (Gg.ibm_size_name size)
    scale n_structures n_segments;
  let reps = 3 in
  let _, t_off = best_of reps (fun () -> Flow.run_on_compact compacts) in
  let _, t_metrics =
    best_of reps (fun () ->
        Mx.with_enabled true (fun () -> Flow.run_on_compact compacts))
  in
  let last_trace = ref 0 in
  let _, t_trace =
    best_of reps (fun () ->
        let t = Tr.create () in
        let r =
          Mx.with_enabled true (fun () ->
              Tr.with_enabled t (fun () -> Flow.run_on_compact compacts))
        in
        last_trace := Tr.num_events t;
        r)
  in
  B_util.note "flow, telemetry off:        %.3fs (best of %d)" t_off reps;
  B_util.note "flow, metrics on:           %.3fs (%.2fx)" t_metrics
    (t_metrics /. t_off);
  B_util.note "flow, metrics + trace on:   %.3fs (%.2fx, %d spans)" t_trace
    (t_trace /. t_off) !last_trace;
  (* Numerical-audit overhead: disabled, the flow executes no audit code
     at all (the option is [None] — one match per structure), so the
     paired disabled run re-measures the plain flow and any drift from
     1.0 is timer noise. Enabled, every structure's solver output is
     replayed expression-by-expression (Blech sums, norms, telescoping,
     flux/mass balances) — roughly a second pass over the CSR. The
     repetitions interleave off/on so both best-of timings sample the
     same machine conditions, and the on/off ratio is what bench-history
     gates. *)
  let t_audit_off = ref infinity in
  let t_audit_on = ref infinity in
  for _ = 1 to reps do
    let _, toff = B_util.wall (fun () -> Flow.run_on_compact compacts) in
    if toff < !t_audit_off then t_audit_off := toff;
    let _, ton =
      B_util.wall (fun () ->
          Flow.run_on_compact ~audit:Flow.default_audit_config compacts)
    in
    if ton < !t_audit_on then t_audit_on := ton
  done;
  let t_audit_off = !t_audit_off and t_audit_on = !t_audit_on in
  let audit_overhead_ratio = t_audit_on /. t_audit_off in
  let audit_disabled_ratio = t_audit_off /. t_off in
  B_util.note "flow, audit off (paired):   %.3fs (%.2fx vs off — noise floor)"
    t_audit_off audit_disabled_ratio;
  B_util.note "flow, audit on:             %.3fs (%.2fx vs paired off)"
    t_audit_on audit_overhead_ratio;
  (* Scrape-under-load: the flow with metrics on, the live endpoint
     server up, and a scraper domain hitting /metrics (each scrape
     samples the process gauges first) at ~20 Hz — ~300x a real
     Prometheus poll (one per 15 s). Two paired timings with an
     *identical* domain topology (listener + scraper both up) differing
     only in whether the scraper actually scrapes: on a single-core host
     the mere existence of extra domains taxes the flow with
     stop-the-world rendezvous latency (a runtime property), and pairing
     cancels that tax so serve_scrape_ratio isolates what serving the
     scrapes costs — the <= 2% design target, gated through
     bench-history. The infrastructure tax itself is recorded as
     serve_infra_ratio for visibility, not gated against the 2%. *)
  let server = Obs.Serve.start ~port:0 () in
  let srv_port = Obs.Serve.port server in
  let scrape_stop = Atomic.make false in
  let scrape_go = Atomic.make false in
  let scrapes = Atomic.make 0 in
  let scraper =
    Domain.spawn (fun () ->
        while not (Atomic.get scrape_stop) do
          if Atomic.get scrape_go then begin
            (try ignore (http_get srv_port "/metrics")
             with Unix.Unix_error _ -> ());
            Atomic.incr scrapes
          end;
          Unix.sleepf 0.05
        done)
  in
  let timed_flow () =
    Obs.Runtime.with_enabled true (fun () ->
        B_util.wall (fun () ->
            Mx.with_enabled true (fun () -> Flow.run_on_compact compacts)))
  in
  (* Interleave idle and scraped repetitions so both best-of timings
     sample the same machine conditions (rendezvous jitter dominates
     short flows on few-core hosts). *)
  let t_serve_idle = ref infinity in
  let t_serve = ref infinity in
  for _ = 1 to 2 * reps do
    Atomic.set scrape_go false;
    let _, ti = timed_flow () in
    if ti < !t_serve_idle then t_serve_idle := ti;
    Atomic.set scrape_go true;
    let _, ts = timed_flow () in
    if ts < !t_serve then t_serve := ts
  done;
  let t_serve_idle = !t_serve_idle and t_serve = !t_serve in
  Atomic.set scrape_stop true;
  Domain.join scraper;
  Obs.Serve.stop server;
  let serve_scrapes = Atomic.get scrapes in
  let serve_ratio = t_serve /. t_serve_idle in
  let infra_ratio = t_serve_idle /. t_metrics in
  B_util.note "flow, server up (idle):     %.3fs (%.2fx vs metrics on — \
               domain-topology tax)"
    t_serve_idle infra_ratio;
  B_util.note "flow, /metrics scraped:     %.3fs (%.2fx vs idle server, %d \
               scrapes; <=1.02x target)"
    t_serve serve_ratio serve_scrapes;
  (* The disabled fast paths, measured directly: one flag load + branch. *)
  let c = Mx.counter ~help:"bench guard probe" "bench_obs_probe_total" in
  let sink = ref 0 in
  let inc_ns = ns_per_op 10_000_000 (fun () -> Mx.inc c) in
  let span_ns =
    ns_per_op 1_000_000 (fun () -> Tr.with_span "probe" (fun () -> incr sink))
  in
  B_util.note "disabled Counter.inc:       %.1f ns/op" inc_ns;
  B_util.note "disabled with_span:         %.1f ns/op" span_ns;
  (* Per structure the disabled run pays roughly one span guard and a
     couple of counter guards; anything else is shared per run. This
     estimates the guard cost as a fraction of the real flow — the <2%
     target the design promises. *)
  let estimated_pct =
    float_of_int n_structures *. ((span_ns +. (2. *. inc_ns)) *. 1e-9)
    /. t_off *. 100.
  in
  B_util.note "estimated disabled overhead: %.4f%% of the flow (<2%% target)"
    estimated_pct;
  B_util.ensure_out_dir cfg;
  let json_path = B_util.out_path cfg "BENCH_obs.json" in
  let oc = open_out json_path in
  J.to_channel oc
    (J.Obj
       [
         ("bench", J.String "obs");
         ("full", J.Bool cfg.B_util.full);
         ("grid", J.String (Gg.ibm_size_name size));
         ("scale", J.Float scale);
         ("edges", J.Int (grid.Gg.num_wires + grid.Gg.num_vias));
         ("structures", J.Int n_structures);
         ("segments", J.Int n_segments);
         ("off_s", J.Float t_off);
         ("metrics_on_s", J.Float t_metrics);
         ("trace_on_s", J.Float t_trace);
         ("metrics_on_ratio", J.Float (t_metrics /. t_off));
         ("trace_on_ratio", J.Float (t_trace /. t_off));
         ("trace_spans", J.Int !last_trace);
         ("audit_off_s", J.Float t_audit_off);
         ("audit_on_s", J.Float t_audit_on);
         ("audit_overhead_ratio", J.Float audit_overhead_ratio);
         ("audit_disabled_ratio", J.Float audit_disabled_ratio);
         ("serve_idle_s", J.Float t_serve_idle);
         ("serve_on_s", J.Float t_serve);
         ("serve_infra_ratio", J.Float infra_ratio);
         ("serve_scrape_ratio", J.Float serve_ratio);
         ("serve_scrapes", J.Int serve_scrapes);
         ("disabled_counter_inc_ns", J.Float inc_ns);
         ("disabled_span_ns", J.Float span_ns);
         ("estimated_disabled_overhead_pct", J.Float estimated_pct);
       ]);
  close_out oc;
  B_util.note "wrote %s" json_path

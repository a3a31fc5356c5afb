(* Live run state + the process gauges feeding /metrics and /healthz
   (Serve).

   Run-state publication is a handful of atomics written by the flow
   (Pipeline stage starts, Em_flow per-structure completion) and read
   by whoever asks — the HTTP listener domain, the CLI. Like every obs
   subsystem it is gated by one global flag, off by default: a disabled
   call is one atomic load and a branch.

   The process gauges are sampled when they are read ([sample_now]
   before a /metrics scrape or a metrics export), so no domain runs
   just to refresh them. A sample reads atomics and a [Gc.quick_stat]
   on the reading domain — the worked-on domains are never touched. *)

let enabled_flag = Atomic.make false

let set_enabled b = Atomic.set enabled_flag b

let with_enabled b f =
  let prev = Atomic.get enabled_flag in
  Atomic.set enabled_flag b;
  Fun.protect ~finally:(fun () -> Atomic.set enabled_flag prev) f

(* ------------------------------------------------------------------ *)
(* Run state                                                           *)

let t0_us = Clock.now_us ()

let uptime_s () = (Clock.now_us () -. t0_us) /. 1e6

let phase_state : string Atomic.t = Atomic.make ""

let structures_done = Atomic.make 0

let structures_total = Atomic.make 0

let set_phase name =
  if Atomic.get enabled_flag then Atomic.set phase_state name

let phase () = Atomic.get phase_state

let set_structures_total n =
  if Atomic.get enabled_flag then begin
    (* Reset done first so a concurrent reader never sees done > total
       from a previous batch against the new total. *)
    Atomic.set structures_done 0;
    Atomic.set structures_total (max 0 n)
  end

let structure_done () =
  if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add structures_done 1)

let structures () = (Atomic.get structures_done, Atomic.get structures_total)

(* Ledger correlation: the id of the run being recorded (--record-run),
   surfaced in /healthz so a scraper can join live telemetry with the
   archived record. Not gated by the enabled flag — installing it is
   the opt-in, like the providers below. *)
let run_id_state : string option Atomic.t = Atomic.make None

let set_run_id id = Atomic.set run_id_state id

let run_id () = Atomic.get run_id_state

let reset () =
  Atomic.set phase_state "";
  Atomic.set structures_done 0;
  Atomic.set structures_total 0;
  Atomic.set run_id_state None

(* ------------------------------------------------------------------ *)
(* Audit snapshot provider

   The numerical-audit aggregate lives in em_core, which this library
   cannot depend on; the flow (or CLI) registers a snapshot renderer
   here and the HTTP listener serves whatever it returns. Unlike the
   run-state atomics this is not gated by the enabled flag: the
   provider is only installed when auditing was explicitly requested. *)

let audit_provider : (unit -> string) option Atomic.t = Atomic.make None

let set_audit_provider p = Atomic.set audit_provider p

let audit_json () =
  match Atomic.get audit_provider with
  | Some render -> render ()
  | None -> "{\"enabled\":false}"

let audit_enabled () = Option.is_some (Atomic.get audit_provider)

(* Run-ledger snapshot provider — same pattern as the audit one: the
   ledger lives in lib/flow, which this library cannot depend on, so
   the CLI installs a renderer while --record-run is active. *)
let runs_provider : (unit -> string) option Atomic.t = Atomic.make None

let set_runs_provider p = Atomic.set runs_provider p

let runs_json () =
  match Atomic.get runs_provider with
  | Some render -> render ()
  | None -> "{\"enabled\":false}"

(* ------------------------------------------------------------------ *)
(* Process and run gauges, sampled on read                             *)

let g_uptime =
  Metrics.gauge ~help:"Seconds since process start" "process_uptime_seconds"

let g_heap_words =
  Metrics.gauge ~help:"Major heap size in words" "ocaml_gc_heap_words"

let g_major_words =
  Metrics.gauge
    ~help:"Cumulative words allocated in (or promoted to) the major heap"
    "ocaml_gc_major_words"

let g_minor_collections =
  Metrics.gauge ~help:"Cumulative minor collections"
    "ocaml_gc_minor_collections"

let g_major_collections =
  Metrics.gauge ~help:"Cumulative major collection cycles"
    "ocaml_gc_major_collections"

let g_structs_done =
  Metrics.gauge ~help:"Structures analyzed so far in the current batch"
    "em_run_structures_done"

let g_structs_total =
  Metrics.gauge ~help:"Structures the current batch will analyze"
    "em_run_structures_total"

(* Per-phase gauges are created on first sight (gauge registration is
   idempotent and mutex-protected; at scrape rate the cost is
   irrelevant). The
   table remembers what exists so stale entries can be zeroed — a phase
   gauge behaves like a Prometheus "info" metric: the current phase
   reads 1, every previously seen phase reads 0. *)
let phase_gauges : (string, Metrics.gauge) Hashtbl.t = Hashtbl.create 8

let phase_mu = Mutex.create ()

let phase_gauge name =
  match Hashtbl.find_opt phase_gauges name with
  | Some g -> g
  | None ->
    let g =
      Metrics.gauge
        ~labels:[ ("phase", name) ]
        ~help:"1 when this pipeline phase is the current one, else 0"
        "em_run_phase"
    in
    Hashtbl.replace phase_gauges name g;
    g

let sample_now () =
  let stat = Gc.quick_stat () in
  Metrics.set_gauge g_uptime (uptime_s ());
  Metrics.set_gauge g_heap_words (float_of_int stat.Gc.heap_words);
  Metrics.set_gauge g_major_words stat.Gc.major_words;
  Metrics.set_gauge g_minor_collections
    (float_of_int stat.Gc.minor_collections);
  Metrics.set_gauge g_major_collections
    (float_of_int stat.Gc.major_collections);
  let sdone, stotal = structures () in
  let cur_phase = phase () in
  (* The gauge table is only touched here, but the listener domain and
     the CLI may sample at once, so keep it consistent under a lock. *)
  Mutex.lock phase_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock phase_mu)
    (fun () ->
      if cur_phase <> "" then
        Metrics.set_gauge (phase_gauge cur_phase) 1.;
      Hashtbl.iter
        (fun name g -> if name <> cur_phase then Metrics.set_gauge g 0.)
        phase_gauges);
  Metrics.set_gauge g_structs_done (float_of_int sdone);
  Metrics.set_gauge g_structs_total (float_of_int stotal)

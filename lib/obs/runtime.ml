(* Live run state + the 1 Hz process monitor feeding /metrics and
   /healthz (Serve).

   Run-state publication is a handful of atomics written by the flow
   (Pipeline stage starts, Em_flow per-structure completion) and read
   by whoever asks — the monitor domain, the HTTP listener domain, the
   CLI. Like every obs subsystem it is gated by one global flag, off by
   default: a disabled call is one atomic load and a branch.

   The monitor is a dedicated domain behind a CAS singleton flag that
   always takes at least one sample, plus a final sample on stop so
   even sub-period runs publish. Everything a sample reads is an atomic
   or a [Gc.quick_stat] in the monitor's own domain — the worked-on
   domains are never touched. *)

let enabled_flag = Atomic.make false

let set_enabled b = Atomic.set enabled_flag b

let is_enabled () = Atomic.get enabled_flag

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
(* Monitor gauges                                                      *)

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
   idempotent and mutex-protected; at 1 Hz the cost is irrelevant). The
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
  (* The gauge table is only touched here and the monitor is a CAS
     singleton, but [sample_now] is also public (tests, pre-scrape
     refresh), so keep it consistent under a lock. *)
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

(* ------------------------------------------------------------------ *)
(* The monitor domain                                                  *)

type monitor = { m_stop : bool Atomic.t; m_domain : unit Domain.t }

let default_period_s = 1.0

let running_flag = Atomic.make false

let is_running () = Atomic.get running_flag

let start ?(period_s = default_period_s) () =
  if not (Float.is_finite period_s) || period_s <= 0. then
    invalid_arg "Runtime.start: period must be a positive finite duration";
  if not (Atomic.compare_and_set running_flag false true) then
    invalid_arg "Runtime.start: a monitor is already running";
  let stop = Atomic.make false in
  let domain =
    Domain.spawn (fun () ->
        let live = ref true in
        (* Always sample at least once, and exit without sleeping when
           stopped so [stop] latency is one sample, not one period. *)
        while !live do
          sample_now ();
          if Atomic.get stop then live := false else Unix.sleepf period_s
        done)
  in
  { m_stop = stop; m_domain = domain }

let stop m =
  Atomic.set m.m_stop true;
  Domain.join m.m_domain;
  (* One final sample so gauges reflect the end state (e.g. structures
     done = total) even when the run finished mid-period. *)
  sample_now ();
  Atomic.set running_flag false

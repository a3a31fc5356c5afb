type stage = {
  name : string;
  wall_s : float;
  cpu_s : float;
  minor_words : float;
  major_words : float;
  promoted_words : float;
  error : bool;
}

let allocated_words st =
  (* Words promoted out of the minor heap would otherwise be counted
     twice: once as minor allocation, once as major. *)
  st.minor_words +. st.major_words -. st.promoted_words

type t = { mutable rev_stages : stage list }

let create () = { rev_stages = [] }

let run p name f =
  (* Exact per-domain counters plus the Parallel workers the stage
     waits for: one source, so every delta is >= 0 (Obs.Alloc). *)
  let a0 = Obs.Alloc.process () in
  let wall0 = Unix.gettimeofday () in
  let cpu0 = Sys.time () in
  let finish error =
    let cpu1 = Sys.time () in
    let wall1 = Unix.gettimeofday () in
    let a1 = Obs.Alloc.process () in
    let stage =
      {
        name;
        wall_s = wall1 -. wall0;
        cpu_s = cpu1 -. cpu0;
        minor_words = a1.Obs.Alloc.minor -. a0.Obs.Alloc.minor;
        major_words = a1.Obs.Alloc.major -. a0.Obs.Alloc.major;
        promoted_words = a1.Obs.Alloc.promoted -. a0.Obs.Alloc.promoted;
        error;
      }
    in
    p.rev_stages <- stage :: p.rev_stages;
    let level = if error then Obs.Log.Error else Obs.Log.Info in
    Obs.Log.log level (fun () ->
        ( (if error then "stage failed" else "stage done"),
          [
            ("stage", Obs.Trace.String name);
            ("wall_s", Obs.Trace.Float stage.wall_s);
            ("cpu_s", Obs.Trace.Float stage.cpu_s);
            ("alloc_words", Obs.Trace.Float (allocated_words stage));
          ] ))
  in
  Obs.Log.debug (fun () ->
      ("stage start", [ ("stage", Obs.Trace.String name) ]));
  (* Publish the stage as the live run phase (/healthz, the
     em_run_phase gauge); one atomic store, gated off by default. *)
  Obs.Runtime.set_phase name;
  (* The stage doubles as a telemetry span on the calling domain's
     track (the root lane of the trace): the timing reported here and
     the span in the exported trace are the same interval, not two
     parallel instrumentation mechanisms. A raising stage is recorded
     too, flagged [error] both here and on the span. *)
  match
    Obs.Trace.with_span ~attrs:[ ("kind", Obs.Trace.String "stage") ] name f
  with
  | result ->
    finish false;
    result
  | exception e ->
    finish true;
    raise e

let stages p = List.rev p.rev_stages

let pp_words ppf w =
  if w >= 1e9 then Fmt.pf ppf "%.2fGw" (w /. 1e9)
  else if w >= 1e6 then Fmt.pf ppf "%.2fMw" (w /. 1e6)
  else if w >= 1e3 then Fmt.pf ppf "%.1fkw" (w /. 1e3)
  else Fmt.pf ppf "%.0fw" w

let pp_stage ppf s =
  Fmt.pf ppf "%-10s %8.3fs wall  %8.3fs cpu  %a alloc" s.name s.wall_s s.cpu_s
    pp_words (allocated_words s);
  if s.error then Fmt.pf ppf "  FAILED"

let pp ppf p =
  Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut pp_stage) (stages p)

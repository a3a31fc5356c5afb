let recommended_jobs () = max 1 (Domain.recommended_domain_count ())

let clamp_jobs ~who ~n jobs =
  match jobs with
  | Some j when j < 1 -> invalid_arg (who ^ ": jobs < 1")
  | Some j -> min j n
  | None -> min (recommended_jobs ()) n

(* Items per hand-out: about eight batches per worker, so a worker that
   drew the expensive items leaves the rest to the others, while one
   [fetch_and_add] still covers many cheap items. *)
let batch_size ~n ~jobs = max 1 (n / (8 * jobs))

(* Shared driver: every slot is written exactly once with either the
   value or the exception (plus its backtrace) raised while computing
   it, so one poisoned item never aborts the rest of its batch and no
   synchronization beyond the shared cursor and the join is needed.
   Workers claim contiguous batches from the cursor until it passes
   [n]; which worker computes which item depends on timing, but every
   slot's value depends only on its item and the worker's state. *)
let run_slots ~jobs ~local f xs =
  let n = Array.length xs in
  let out =
    Array.make n
      (Error (Failure "Parallel: slot not written", Printexc.get_callstack 0))
  in
  let body state i =
    out.(i) <-
      (match f state xs.(i) with
      | v -> Ok v
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        (* Only the failure path logs: the per-item fast path must stay
           free of telemetry beyond the caller's own instrumentation. *)
        Obs.Log.warn (fun () ->
            ( "parallel slot raised; captured",
              [
                ("slot", Obs.Trace.Int i);
                ("error", Obs.Trace.String (Printexc.to_string e));
              ] ));
        Error (e, bt))
  in
  if jobs <= 1 then begin
    let state = local () in
    for i = 0 to n - 1 do
      body state i
    done
  end
  else begin
    let batch = batch_size ~n ~jobs in
    let cursor = Atomic.make 0 in
    let worker w () =
      (* One state per worker domain, created inside the domain so any
         mutable buffers it holds are never shared. *)
      let state = local () in
      let run_batches () =
        Obs.Log.debug (fun () ->
            ( "parallel worker start",
              [ ("worker", Obs.Trace.Int w); ("batch", Obs.Trace.Int batch) ] ));
        let rec claim () =
          let lo = Atomic.fetch_and_add cursor batch in
          if lo < n then begin
            for i = lo to min n (lo + batch) - 1 do
              body state i
            done;
            claim ()
          end
        in
        claim ()
      in
      if Obs.Trace.enabled () then begin
        (* Label the lane so the trace viewer shows worker-N rather than a
           bare number; worker 0 is the caller's own lane ("main"). *)
        if w > 0 then Obs.Trace.name_track (Printf.sprintf "worker-%d" w);
        Obs.Trace.with_span
          ~attrs:[ ("worker", Obs.Trace.Int w); ("batch", Obs.Trace.Int batch) ]
          "parallel.chunk" run_batches
      end
      else run_batches ()
    in
    let spawned w () =
      Obs.Trace.set_worker_lane w;
      (* Stages count allocation across domains (Obs.Alloc.process). *)
      let since = Obs.Alloc.domain () in
      Fun.protect ~finally:(fun () -> Obs.Alloc.record_worker ~since) (worker w)
    in
    let domains =
      List.init (jobs - 1) (fun w -> Domain.spawn (spawned (w + 1)))
    in
    worker 0 ();
    List.iter Domain.join domains
  end;
  out

let failures slots =
  Array.fold_left
    (fun acc -> function Error _ -> acc + 1 | Ok _ -> acc)
    0 slots

(* Re-raise the lowest-indexed failure with its original backtrace
   (deterministic, unlike first-to-fail racing across domains). *)
let reraise_first slots =
  Array.iter
    (function
      | Error (e, bt) -> Printexc.raise_with_backtrace e bt
      | Ok _ -> ())
    slots

let unwrap_slots slots =
  reraise_first slots;
  Array.map (function Ok v -> v | Error _ -> assert false) slots

let map_local_result ?jobs ~local f xs =
  let jobs = clamp_jobs ~who:"Parallel.map_local_result" ~n:(Array.length xs) jobs in
  run_slots ~jobs ~local f xs

let map ?jobs f xs =
  let jobs = clamp_jobs ~who:"Parallel.map" ~n:(Array.length xs) jobs in
  unwrap_slots (run_slots ~jobs ~local:(fun () -> ()) (fun () x -> f x) xs)

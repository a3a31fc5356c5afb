(* Child processes measured from outside: wall time, CPU time and peak
   resident set, the way a user's shell would see one `emcheck` run. *)

type status = Exited of int | Signaled of int | Timed_out

type outcome = {
  status : status;
  wall_s : float;
  cpu_s : float;     (* child user + sys, from [Unix.times] deltas *)
  peak_rss_kb : int; (* highest VmHWM polled while the child ran *)
}

let status_to_string = function
  | Exited c -> Printf.sprintf "exit %d" c
  | Signaled s -> Printf.sprintf "signal %d" s
  | Timed_out -> "timeout"

(* The "VmHWM:  123456 kB" line of a /proc/<pid>/status text. The line
   is absent once the process has released its memory (a zombie). *)
let vmhwm_kb status_text =
  String.split_on_char '\n' status_text
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i when String.sub line 0 i = "VmHWM" -> (
           let rest = String.sub line (i + 1) (String.length line - i - 1) in
           match
             String.split_on_char ' ' (String.trim rest)
             |> List.filter (fun s -> s <> "")
           with
           | [ kb; "kB" ] -> int_of_string_opt kb
           | _ -> None)
         | _ -> None)

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

let self_hwm_kb () =
  Option.value ~default:0 (Option.bind (read_file "/proc/self/status") vmhwm_kb)

let rec restart_on_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart_on_eintr f

let poll_interval_s = 0.005

(* Run [prog args] with stdout and stderr sent to [log], polling its
   VmHWM every 5 ms. A child still running after [timeout] seconds is
   killed; either way it has been reaped when this returns. *)
let run ~timeout ~log prog args =
  let fd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let times0 = Unix.times () in
  let t0 = Unix.gettimeofday () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin fd
          fd)
  in
  let status_path = Printf.sprintf "/proc/%d/status" pid in
  let peak = ref 0 in
  let reap () = snd (restart_on_eintr (fun () -> Unix.waitpid [] pid)) in
  let rec poll () =
    match restart_on_eintr (fun () -> Unix.waitpid [ Unix.WNOHANG ] pid) with
    | 0, _ ->
      Option.iter
        (fun kb -> peak := max !peak kb)
        (Option.bind (read_file status_path) vmhwm_kb);
      if Unix.gettimeofday () -. t0 > timeout then begin
        Unix.kill pid Sys.sigkill;
        ignore (reap ());
        Timed_out
      end
      else begin
        restart_on_eintr (fun () -> Unix.sleepf poll_interval_s);
        poll ()
      end
    | _, Unix.WEXITED c -> Exited c
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> Signaled s
  in
  let status =
    try poll ()
    with e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (reap ()) with Unix.Unix_error _ -> ());
      raise e
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let times1 = Unix.times () in
  {
    status;
    wall_s;
    cpu_s =
      times1.Unix.tms_cutime -. times0.Unix.tms_cutime
      +. (times1.Unix.tms_cstime -. times0.Unix.tms_cstime);
    peak_rss_kb = !peak;
  }

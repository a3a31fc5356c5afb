type level = Debug | Info | Warn | Error

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let log level make =
  if Flight.is_enabled () then begin
    let msg, fields = make () in
    Flight.record ~track:(Trace.track ()) ~kind:"log"
      ~level:(level_to_string level) ~name:msg
      (List.map (fun (k, v) -> (k, Trace.value_to_string v)) fields)
  end

let debug make = log Debug make

let info make = log Info make

let warn make = log Warn make

let error make = log Error make

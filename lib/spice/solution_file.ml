type t = (string * float) list

let of_solution ?(include_ground = false) (sol : Mna.solution) =
  let net = sol.Mna.netlist in
  let out = ref [] in
  for i = Netlist.num_nodes net - 1 downto 0 do
    let name = Netlist.node_name net i in
    if include_ground || not (Ibm_format.is_ground name) then
      out := (name, sol.Mna.voltages.(i)) :: !out
  done;
  !out

let to_string t =
  let buf = Buffer.create (List.length t * 24) in
  List.iter
    (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "%s %.12g\n" name v))
    t;
  Buffer.contents buf

let write path t = Out_channel.with_open_text path (fun oc -> output_string oc (to_string t))

let parse_string text =
  let out = ref [] in
  List.iteri
    (fun lineno line ->
      let line = String.trim line in
      if line <> "" && line.[0] <> '*' then begin
        match
          String.split_on_char ' ' line
          |> List.concat_map (String.split_on_char '\t')
          |> List.filter (fun f -> f <> "")
        with
        | [ name; value ] -> begin
          match float_of_string_opt value with
          | Some v -> out := (name, v) :: !out
          | None ->
            failwith
              (Printf.sprintf "solution file line %d: bad voltage %S"
                 (lineno + 1) value)
        end
        | _ ->
          failwith
            (Printf.sprintf "solution file line %d: expected 'node voltage'"
               (lineno + 1))
      end)
    (String.split_on_char '\n' text);
  List.rev !out

let parse_file path = parse_string (In_channel.with_open_text path In_channel.input_all)

type comparison = {
  common : int;
  missing : string list;
  max_abs_error : float;
  worst_node : string option;
}

let compare_solutions ~reference solution =
  let table = Hashtbl.create (List.length solution) in
  List.iter (fun (name, v) -> Hashtbl.replace table name v) solution;
  let common = ref 0 in
  let missing = ref [] in
  let worst = ref 0. in
  let worst_node = ref None in
  List.iter
    (fun (name, v_ref) ->
      match Hashtbl.find_opt table name with
      | None -> missing := name :: !missing
      | Some v ->
        incr common;
        let err = Float.abs (v -. v_ref) in
        if err > !worst then begin
          worst := err;
          worst_node := Some name
        end)
    reference;
  {
    common = !common;
    missing = List.rev !missing;
    max_abs_error = !worst;
    worst_node = !worst_node;
  }

let check ?(tol = 1e-6) ~reference sol =
  let ours = of_solution ~include_ground:true sol in
  let cmp = compare_solutions ~reference ours in
  if cmp.missing <> [] then
    Error
      (Printf.sprintf "%d reference nodes missing (first: %s)"
         (List.length cmp.missing)
         (List.hd cmp.missing))
  else if cmp.max_abs_error > tol then
    Error
      (Printf.sprintf "max error %.3g V at %s exceeds %.3g V" cmp.max_abs_error
         (Option.value cmp.worst_node ~default:"?")
         tol)
  else Ok ()

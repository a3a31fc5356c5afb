(* The verdict fields a run is checked on: the Blech-vs-exact confusion
   counts, structure and segment totals, failed structures and, under
   Monte-Carlo variation, each structure's mortality probability.

   [to_json] writes a subset of the `emcheck analyze --json` layout, so
   [of_json] reads CLI reports, replay reports and reference.json
   entries alike. *)

module J = Emflow.Json_out
module Ji = Emflow.Json_in

type t = {
  tp : int;
  tn : int;
  fp : int;
  fn : int;
  structures : int;
  segments : int;
  failed_structures : int;
  mortality : (int * float) list; (* structure index, probability *)
}

let to_json v =
  J.Obj
    ([
       ( "flow",
         J.Obj
           [
             ("structures", J.Int v.structures);
             ("failed_structures", J.Int v.failed_structures);
             ("segments", J.Int v.segments);
             ( "blech_vs_exact",
               J.Obj
                 [ ("tp", J.Int v.tp); ("tn", J.Int v.tn); ("fp", J.Int v.fp);
                   ("fn", J.Int v.fn) ] );
           ] );
     ]
    @
    if v.mortality = [] then []
    else
      [
        ( "variation",
          J.Obj
            [
              ( "structures",
                J.List
                  (List.map
                     (fun (i, p) ->
                       J.Obj
                         [ ("index", J.Int i);
                           ("mortality_probability", J.Float p) ])
                     v.mortality) );
            ] );
      ])

let of_json doc =
  let ( let* ) = Result.bind in
  let field path =
    List.fold_left (fun acc k -> Option.bind acc (Ji.member k)) (Some doc) path
  in
  let int path =
    match Option.bind (field path) Ji.number with
    | Some x when Float.is_integer x -> Ok (int_of_float x)
    | _ -> Error ("missing integer " ^ String.concat "." path)
  in
  let count k = int [ "flow"; "blech_vs_exact"; k ] in
  let* tp = count "tp" in
  let* tn = count "tn" in
  let* fp = count "fp" in
  let* fn = count "fn" in
  let* structures = int [ "flow"; "structures" ] in
  let* segments = int [ "flow"; "segments" ] in
  let* failed_structures = int [ "flow"; "failed_structures" ] in
  let* mortality =
    match field [ "variation"; "structures" ] with
    | None -> Ok []
    | Some l -> (
      let entry item =
        (* A probability over zero usable samples is written as null. *)
        let p =
          Option.bind (Ji.member "mortality_probability" item) Ji.number
        in
        Option.map
          (fun i -> (int_of_float i, Option.value p ~default:Float.nan))
          (Option.bind (Ji.member "index" item) Ji.number)
      in
      match Ji.list_value l with
      | Some items when List.for_all (fun i -> entry i <> None) items ->
        Ok (List.filter_map entry items)
      | _ -> Error "malformed variation.structures")
  in
  Ok { tp; tn; fp; fn; structures; segments; failed_structures; mortality }

let of_file path = Result.bind (Ji.of_file path) of_json

(* Differences of [actual] from [expected], one line each. Mortality
   probabilities may differ by less than one sample in [samples]. *)
let diff ~samples ~expected actual =
  let ints =
    [
      ("tp", expected.tp, actual.tp); ("tn", expected.tn, actual.tn);
      ("fp", expected.fp, actual.fp); ("fn", expected.fn, actual.fn);
      ("structures", expected.structures, actual.structures);
      ("segments", expected.segments, actual.segments);
      ( "failed_structures", expected.failed_structures,
        actual.failed_structures );
    ]
    |> List.filter_map (fun (k, e, a) ->
           if e = a then None else Some (Printf.sprintf "%s %d, expected %d" k a e))
  in
  let tol = 1. /. float_of_int (max 1 samples) in
  let close e a =
    (Float.is_nan e && Float.is_nan a) || Float.abs (e -. a) <= tol
  in
  let mortality =
    if List.length expected.mortality <> List.length actual.mortality then
      [
        Printf.sprintf "%d mortality probabilities, expected %d"
          (List.length actual.mortality)
          (List.length expected.mortality);
      ]
    else
      List.concat
        (List.map2
           (fun (ie, pe) (ia, pa) ->
             if ie <> ia then
               [ Printf.sprintf "variation structure %d, expected %d" ia ie ]
             else if not (close pe pa) then
               [
                 Printf.sprintf "structure %d mortality %g, expected %g" ia pa
                   pe;
               ]
             else [])
           expected.mortality actual.mortality)
  in
  ints @ mortality

type coords = { layer : int; x : int; y : int }

let encode { layer; x; y } = Printf.sprintf "n%d_%d_%d" layer x y

(* The general parse: any part [int_of_string_opt] accepts (signs,
   [0x] prefixes, ...). *)
let decode_general name =
  let n = String.length name in
  match String.split_on_char '_' (String.sub name 1 (n - 1)) with
  | [ l; x; y ] -> begin
    match (int_of_string_opt l, int_of_string_opt x, int_of_string_opt y) with
    | Some layer, Some x, Some y -> Some { layer; x; y }
    | _ -> None
  end
  | _ -> None

(* Up to 18 decimal digits always fit an int, and read as
   [int_of_string_opt] reads them. *)
let max_digits = 18

(* The part [k] (0 layer, 1 x, 2 y) starting at [start], read in place
   from [i] on with the value so far in [acc]; [l] and [x] hold the
   parts already read. A part that is not 1 to [max_digits] plain digits
   sends the whole name to [decode_general], so the coords are the same
   either way. *)
let rec decode_digits name n i start acc k l x =
  if i = n || String.unsafe_get name i = '_' then begin
    let len = i - start in
    if len = 0 || len > max_digits then decode_general name
    else if k = 2 then
      if i = n then Some { layer = l; x; y = acc } else decode_general name
    else if i = n then None
    else if k = 0 then decode_digits name n (i + 1) (i + 1) 0 1 acc 0
    else decode_digits name n (i + 1) (i + 1) 0 2 l acc
  end
  else
    match String.unsafe_get name i with
    | '0' .. '9' as c ->
      decode_digits name n (i + 1) start ((10 * acc) + Char.code c - 48) k l x
    | _ -> decode_general name

let decode name =
  let n = String.length name in
  if n < 6 || name.[0] <> 'n' then None
  else decode_digits name n 1 1 0 0 0 0

let is_ground name = String.equal name "0"

let layer_of name = Option.map (fun c -> c.layer) (decode name)

let same_layer a b =
  match (layer_of a, layer_of b) with
  | Some la, Some lb -> la = lb
  | _ -> false

let manhattan_distance a b = abs (a.x - b.x) + abs (a.y - b.y)

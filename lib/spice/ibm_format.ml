type coords = { layer : int; x : int; y : int }

(* Up to 18 decimal digits always fit an int. *)
let max_digits = 18

let canonical s off len parts =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Ibm_format.canonical: slice out of bounds";
  let stop = off + len and i = ref (off + 1) and k = ref 0 in
  len >= 6 && String.unsafe_get s off = 'n' && begin
    (* Part [k] (0 layer, 1 x, 2 y) from [!i]: its digits, then ['_']
       before the next part or the end after the last. *)
    while
      !k < 3
      && begin
        let first = !i and acc = ref 0 in
        while !i < stop && String.unsafe_get s !i >= '0' && String.unsafe_get s !i <= '9' do
          acc := (10 * !acc) + Char.code (String.unsafe_get s !i) - 48;
          incr i
        done;
        let digits = !i - first in
        digits > 0 && digits <= max_digits
        && (digits = 1 || String.unsafe_get s first <> '0')
        && (if !k < 2 then !i < stop && String.unsafe_get s !i = '_' else !i = stop)
        && (parts.(!k) <- !acc; incr i; incr k; true)
      end
    do () done;
    !k = 3
  end

(* Other parts read as [int_of_string_opt] reads them (signs, leading
   zeros, [0x] prefixes, ...). *)
let decode name =
  let p = [| 0; 0; 0 |] and n = String.length name in
  if canonical name 0 n p then Some { layer = p.(0); x = p.(1); y = p.(2) }
  else if n < 6 || name.[0] <> 'n' then None
  else
    match String.split_on_char '_' (String.sub name 1 (n - 1)) with
    | [ l; x; y ] -> (
      match (int_of_string_opt l, int_of_string_opt x, int_of_string_opt y) with
      | Some layer, Some x, Some y -> Some { layer; x; y }
      | _ -> None)
    | _ -> None

let is_ground name = String.equal name "0"

type t = { minor : float; promoted : float; major : float }

external promoted_words : unit -> (int[@untagged])
  = "obs_alloc_promoted_words_byte" "obs_alloc_promoted_words"
[@@noalloc]

external major_words : unit -> (int[@untagged])
  = "obs_alloc_major_words_byte" "obs_alloc_major_words"
[@@noalloc]

let domain () =
  (* Read before allocating the record, so its words are not counted. *)
  let minor = Gc.minor_words () in
  let promoted = promoted_words () and major = major_words () in
  { minor; promoted = float_of_int promoted; major = float_of_int major }

(* Promoted words would otherwise count twice: as minor allocation and
   again as major. *)
let words ~since t =
  t.minor -. since.minor +. (t.major -. since.major)
  -. (t.promoted -. since.promoted)

let worker_minor = Atomic.make 0
let worker_promoted = Atomic.make 0
let worker_major = Atomic.make 0

(* Major words are added before promoted words and read after them, so
   a reader racing a worker never sees more promoted words than major
   words have covered. *)
let record_worker ~since =
  let now = domain () in
  let add a d = ignore (Atomic.fetch_and_add a (int_of_float d)) in
  add worker_minor (now.minor -. since.minor);
  add worker_major (now.major -. since.major);
  add worker_promoted (now.promoted -. since.promoted)

let process () =
  let d = domain () in
  let get a = float_of_int (Atomic.get a) in
  let minor = get worker_minor in
  let promoted = get worker_promoted in
  let major = get worker_major in
  {
    minor = d.minor +. minor;
    promoted = d.promoted +. promoted;
    major = d.major +. major;
  }

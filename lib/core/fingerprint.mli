(** Content-addressed structure fingerprints.

    A fingerprint is a canonical 128-bit content hash of a columnar
    structure: the CSR topology, canonicalized so node numbering and
    segment order do not matter, combined with the quantized geometry
    and current columns (and, optionally, run context such as the metal
    layer and the material model). Two extractions of the same physical
    structure — across runs, extraction routes (reference or
    streaming), node orderings and worker counts — produce the same
    fingerprint, which is what lets the
    run ledger track a structure's verdict and margin over time, and
    what a result cache can key on.

    {2 Stability contract (version [emfp1])}

    The fingerprint is a pure function of:
    {ul
    {- the multiset of segments, each represented by its quantized
       [length]/[width]/[height] and signed current density [j]
       ({!quantize}: 12 significant decimal digits, sign-normalized
       zero), attached to canonical endpoint labels;}
    {- canonical node labels from 4 rounds of Weisfeiler–Leman
       refinement seeded with node degree and the sorted multiset of
       incident (geometry, outflow) tokens — never from node ids;}
    {- [num_nodes], [num_segments], and the optional [layer] /
       [material] context.}}

    It is therefore invariant under:
    {ul
    {- node relabeling ({!Compact.permute} / {!Compact.reorder}) —
       labels are structural, every multiset is sorted;}
    {- segment (extraction) order — the final digest hashes a sorted
       multiset of segment tokens;}
    {- reference-direction flips (swapping [tail]/[head] and negating
       [j] is the same physical segment): per-node tokens use the signed
       {e outflow} from that node, and each segment token is the
       lexicographic minimum over both orientations;}
    {- anything that does not change the structure's content: the
       extraction route (reference or streaming), worker count, solver
       route, telemetry flags.}

    Any change to a single quantized field — one segment's length,
    width, height or current — changes the fingerprint (up to MD5
    collision). Changing the fourth significant digit of one column
    value is a different structure; jitter below the 12th significant
    digit is not.

    The algorithm version is folded into the digest ([emfp1]); a future
    algorithm change yields disjoint fingerprints rather than silent
    mismatches. *)

type t = string
(** 32 lowercase hex characters (an MD5 digest). *)

val of_compact : ?layer:int -> ?material:Material.t -> Compact.t -> t
(** Fingerprint one structure. [layer] and [material] fold run context
    into the digest: the ledger uses both, so the same geometry on a
    different metal layer (or analyzed under a different material model)
    is a different identity. Material context hashes the quantized
    EM-relevant derived constants ([beta], effective critical stress)
    rather than the record fields, so two parameterizations that imply
    the same analysis hash alike. Cost is O((V + E) log V) with small
    constants; it is paid only by callers that ask (ledger recording,
    caching), never on the analysis hot path. *)

val short : t -> string
(** First 12 hex characters — the human-readable handle used in tables
    and diffs (collision-safe for any realistic run count). *)

val quantize : float -> string
(** The canonical rendering hashed for every float field: 12 significant
    decimal digits ([%.12g]), with [-0.] normalized to ["0"]. Exposed so
    tests can pin the quantization contract. *)

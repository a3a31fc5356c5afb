(** Persistent run ledger: an append-only JSONL archive of analysis
    runs, keyed by content-addressed structure fingerprints.

    Every metric and trace sees exactly one process; the ledger is the
    cross-run half of the observability story. `emcheck analyze
    --record-run [DIR]` appends one {!run} record — deck hash, tech,
    worker count, and one {!entry} per analyzed structure
    (fingerprint, verdict, signed immortality margin, solve time,
    diagnostic codes, audit worst-residual) — to [DIR/ledger.jsonl].
    `emcheck diff` and `emcheck history` read the archive back and
    match structures across runs by {!Em_core.Fingerprint}, so node
    renumbering, extraction order and worker count never produce
    spurious drift.

    {2 Format}

    One JSON object per line (schema tag ["emledger1"]), written with
    {!Json_out} and read back with {!Json_in}; {!run_to_json} ∘
    {!run_of_json} round-trips byte-identically. Non-finite floats
    (margins of fault-isolated structures) are {e omitted}, never
    emitted, since JSON has no NaN. The active file is size-capped:
    when an append would push [ledger.jsonl] past the cap it is rotated
    to [ledger.1.jsonl] (shifting older rotations up, dropping the
    oldest beyond [keep_rotated]); {!load} reads rotated files
    oldest-first so history spans rotations. *)

(** One analyzed structure within a run. *)
type entry = {
  en_fp : string;  (** {!Em_core.Fingerprint.t}, layer+material context *)
  en_occ : int;
      (** occurrence index among same-fingerprint entries of the run
          (0-based, batch order) — repeated identical structures stay
          distinct when diffing *)
  en_layer : int;
  en_nodes : int;
  en_segments : int;
  en_ok : bool;       (** [false] iff the structure fault-isolated *)
  en_immortal : bool;
  en_margin_pa : float;
      (** signed immortality margin (threshold - peak stress), Pa;
          [nan] when [en_ok = false] (omitted from JSON) *)
  en_solve_s : float;
  en_worst_residual : float option;
      (** {!Em_core.Audit.worst_residual} when the run was audited *)
  en_diags : string list;  (** diagnostic codes sourced at this structure *)
}

(** One recorded run. *)
type run = {
  rn_id : string;  (** unique id; first 12 chars are the short handle *)
  rn_timestamp : string;  (** ISO-8601 UTC *)
  rn_deck : string;       (** deck path as given on the command line *)
  rn_deck_hash : string;  (** MD5 of the deck file, hex *)
  rn_tech : string;
  rn_jobs : int;
  rn_audited : bool;
  rn_sigma_th_pa : float; (** effective critical stress analyzed against *)
  rn_structures : int;
  rn_segments : int;
  rn_immortal : int;      (** structures, not segments *)
  rn_mortal : int;
  rn_failed : int;
  rn_analysis_s : float;
  rn_entries : entry list;  (** batch order *)
}

val fresh_run_id : deck_hash:string -> timestamp:string -> string
(** Content-derived id: MD5 over deck hash, timestamp and a process
    nonce, so two recordings in the same second get distinct ids. *)

val entries_of_result :
  ?material:Em_core.Material.t ->
  Extract.compact_structure list ->
  Em_flow.result ->
  entry list
(** Fingerprint each structure (layer + material context; [material]
    defaults to {!Em_core.Material.cu_dac21} and must match the one
    analyzed with) and join it with the result's per-structure stats,
    audits and diagnostics. *)

(** {1 Serialization} *)

val run_to_json : run -> Json_out.t

val run_of_json : Json_out.t -> (run, string) result
(** Rejects missing/mistyped required fields and unknown schema tags
    with a descriptive message. Unknown keys are ignored, so records
    that still carry the retired ["engine"] key load unchanged. *)

(** {1 Archive} *)

val default_dir : string
(** ["emcheck_runs"] — the [--record-run] default, relative to the
    working directory. *)

val ledger_path : string -> string
(** [dir/ledger.jsonl]. *)

val default_max_bytes : int
(** Rotation cap for the active file: 8 MiB. *)

val default_keep_rotated : int
(** Rotated generations kept: 4. *)

val append :
  ?max_bytes:int -> ?keep_rotated:int -> dir:string -> run -> (unit, string) result
(** Create [dir] if needed, rotate if the active file would exceed
    [max_bytes], append one line, and bump
    [em_ledger_runs_recorded_total]. *)

val load : dir:string -> (run list, string) result
(** All runs, oldest first, across rotated generations. A missing
    directory or ledger is an empty archive, not an error; a malformed
    line is an [Error] naming file and line. *)

val resolve : run list -> string -> (run, string) result
(** Find a run by selector: ["latest"], ["prev"] (second newest), a
    full id, or a unique id prefix (>= 4 chars). Ambiguous or unknown
    selectors are [Error]s listing what was tried. *)

(** {1 Diff} *)

(** A structure present in both runs (same fingerprint and occurrence). *)
type matched = {
  dm_fp : string;
  dm_layer : int;
  dm_flip : [ `None | `To_mortal | `To_immortal | `To_failed | `To_ok ];
      (** verdict movement from A to B; [`To_mortal] and [`To_failed]
          are regressions *)
  dm_margin_a : float;  (** [nan] when that side fault-isolated *)
  dm_margin_b : float;
  dm_margin_delta : float;  (** B - A; [nan] if either side is [nan] *)
  dm_solve_a : float;
  dm_solve_b : float;
}

(** A removed/added pair re-identified as the {e same} structure edited:
    any geometry change changes the fingerprint, so exact matching alone
    would report an edit as remove+add. Unmatched removed and added
    entries are paired greedily by [(layer, nodes, segments)] — a
    documented heuristic, precise for sparse edits (the CI gate edits
    one wire), approximate when many same-shape structures change at
    once. *)
type changed = {
  dc_layer : int;
  dc_nodes : int;
  dc_segments : int;
  dc_fp_a : string;
  dc_fp_b : string;
  dc_immortal_a : bool;
  dc_immortal_b : bool;
  dc_margin_a : float;
  dc_margin_b : float;
}

type diff = {
  df_run_a : string;   (** run id *)
  df_run_b : string;
  df_matched : matched list;  (** fingerprint-identical structures *)
  df_changed : changed list;
  df_added : entry list;    (** in B only, not re-identified *)
  df_removed : entry list;  (** in A only, not re-identified *)
  df_verdict_flips : int;   (** matched entries with [dm_flip <> `None] *)
  df_regressions : int;
      (** matched flips to mortal/failed + changed pairs whose verdict
          went immortal -> mortal — what [--fail-on-regression] gates *)
  df_max_abs_margin_drift : float;
      (** over matched pairs with finite deltas; [0.] when none *)
  df_total_solve_a : float;
  df_total_solve_b : float;
}

val diff : run -> run -> diff
(** [diff a b] compares A (baseline) to B, and bumps the
    [em_ledger_structures_matched_total] /
    [em_ledger_structures_changed_total] metrics (changed = verdict
    flips + re-identified edits). *)

val top_movers : ?k:int -> diff -> matched list
(** Matched pairs with the largest [|dm_margin_delta|], descending;
    [k] defaults to 10. Excludes zero and non-finite deltas. *)

val diff_to_json : diff -> Json_out.t

(** {1 History} *)

type trend = {
  tr_fp : string;
  tr_layer : int;
  tr_points : (string * float) list;
      (** (run id, value), oldest first; runs where the structure is
          absent or the value non-finite contribute no point *)
}

val history : metric:[ `Margin | `Time ] -> run list -> trend list
(** Per-fingerprint trend of the margin (Pa) or solve time (s) over the
    archive, for occurrence 0 of each fingerprint; ordered by first
    appearance. *)

val history_to_json : metric:[ `Margin | `Time ] -> trend list -> Json_out.t

(* Run-ledger contract: byte-identical JSON round-trips, the archive's
   append/rotate/load lifecycle, run resolution, fingerprint-keyed diff
   semantics and cross-run history — plus entries_of_result against a
   real flow run. *)

open T_helpers
module Lg = Emflow.Ledger
module Fp = Em_core.Fingerprint
module Jo = Emflow.Json_out
module Ji = Emflow.Json_in
module Ex = Emflow.Extract
module Flow = Emflow.Em_flow
module Gg = Pdn.Grid_gen
module Cc = Em_core.Compact
module M = Em_core.Material

(* ---------------------------------------------------------------- *)
(* Synthetic fixtures                                                *)

let fp_of c = String.make 32 c

let mk_entry ?(fp = fp_of 'a') ?(occ = 0) ?(layer = 1) ?(nodes = 5)
    ?(segments = 4) ?(ok = true) ?(immortal = true) ?(margin = 2.5e8)
    ?(solve = 1.25e-4) ?(residual = None) ?(diags = []) () =
  {
    Lg.en_fp = fp;
    en_occ = occ;
    en_layer = layer;
    en_nodes = nodes;
    en_segments = segments;
    en_ok = ok;
    en_immortal = immortal;
    en_margin_pa = margin;
    en_solve_s = solve;
    en_worst_residual = residual;
    en_diags = diags;
  }

let mk_run ?(id = fp_of '0') ?(timestamp = "2026-08-09T00:00:00Z")
    ?(entries = []) () =
  let count p = List.length (List.filter p entries) in
  {
    Lg.rn_id = id;
    rn_timestamp = timestamp;
    rn_deck = "deck.sp";
    rn_deck_hash = fp_of 'd';
    rn_tech = "ibm-like";
    rn_jobs = 1;
    rn_audited = false;
    rn_sigma_th_pa = 4.1e7;
    rn_structures = List.length entries;
    rn_segments =
      List.fold_left (fun acc (e : Lg.entry) -> acc + e.Lg.en_segments) 0 entries;
    rn_immortal = count (fun (e : Lg.entry) -> e.Lg.en_ok && e.Lg.en_immortal);
    rn_mortal = count (fun (e : Lg.entry) -> e.Lg.en_ok && not e.Lg.en_immortal);
    rn_failed = count (fun (e : Lg.entry) -> not e.Lg.en_ok);
    rn_analysis_s = 0.125;
    rn_entries = entries;
  }

let tmp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "t_ledger-%d-%d" (Unix.getpid ()) !n)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

let with_tmp_dir f =
  let dir = tmp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let ok_or_fail = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

(* ---------------------------------------------------------------- *)
(* Serialization                                                     *)

let test_roundtrip_byte_identical () =
  let entries =
    [
      (* A value whose shortest round-trip rendering is non-trivial. *)
      mk_entry ~solve:(0.1 +. 0.2) ();
      mk_entry ~fp:(fp_of 'b') ~immortal:false ~margin:(-3.75e7)
        ~residual:(Some 1.5e-12) ~diags:[ "audit-residual" ] ();
      (* Fault-isolated: nan margin must be omitted, not nulled. *)
      mk_entry ~fp:(fp_of 'c') ~ok:false ~immortal:false ~margin:Float.nan
        ~solve:0. ~diags:[ "degenerate-structure" ] ();
    ]
  in
  let r = mk_run ~entries () in
  let s1 = Jo.to_string (Lg.run_to_json r) in
  Alcotest.(check bool) "no nulls in the record" false
    (let rec has i =
       i + 4 <= String.length s1 && (String.sub s1 i 4 = "null" || has (i + 1))
     in
     has 0);
  let r2 = ok_or_fail (Result.bind (Ji.parse s1) Lg.run_of_json) in
  Alcotest.(check string) "byte-identical re-serialization" s1
    (Jo.to_string (Lg.run_to_json r2));
  let e3 = List.nth r2.Lg.rn_entries 2 in
  Alcotest.(check bool) "nan margin reads back as nan" true
    (Float.is_nan e3.Lg.en_margin_pa);
  Alcotest.(check bool) "residual round-trips" true
    ((List.nth r2.Lg.rn_entries 1).Lg.en_worst_residual = Some 1.5e-12)

let test_readback_rejects () =
  (match Lg.run_of_json (Jo.Obj [ ("schema", Jo.String "not-a-ledger") ]) with
  | Ok _ -> Alcotest.fail "unknown schema accepted"
  | Error msg ->
    Alcotest.(check bool) "error names the schema" true
      (T_obs.contains msg "not-a-ledger"));
  match Lg.run_of_json (Jo.Obj [ ("schema", Jo.String "emledger1") ]) with
  | Ok _ -> Alcotest.fail "missing fields accepted"
  | Error msg ->
    Alcotest.(check bool) "error names the missing field" true
      (T_obs.contains msg "missing field")

(* Records written before the extraction-engine switch was retired
   carry an ["engine"] key; the archive must keep loading them. *)
let test_readback_ignores_engine () =
  let line =
    Printf.sprintf
      {|{"schema":"emledger1","id":"%s","timestamp":"2026-08-09T00:00:00Z","deck":"deck.sp","deck_hash":"%s","tech":"ibm-like","engine":"fused","jobs":1,"audited":false,"sigma_th_pa":41000000,"structures":1,"segments":4,"immortal":1,"mortal":0,"failed":0,"analysis_s":0.125,"entries":[{"fp":"%s","occ":0,"layer":1,"nodes":5,"segments":4,"ok":true,"immortal":true,"margin_pa":250000000,"solve_s":0.000125}]}|}
      (fp_of '0') (fp_of 'd') (fp_of 'a')
  in
  let r = ok_or_fail (Result.bind (Ji.parse line) Lg.run_of_json) in
  Alcotest.(check bool) "fields read back" true
    (r = mk_run ~entries:[ mk_entry () ] ());
  Alcotest.(check bool) "re-serialization drops the engine key" false
    (T_obs.contains (Jo.to_string (Lg.run_to_json r)) {|"engine"|})

(* ---------------------------------------------------------------- *)
(* Archive                                                           *)

let test_append_load_resolve () =
  with_tmp_dir (fun dir ->
      Alcotest.(check bool) "missing dir is an empty archive" true
        (ok_or_fail (Lg.load ~dir) = []);
      let ids = [ fp_of '1'; fp_of '2'; fp_of '3' ] in
      List.iter
        (fun id -> ok_or_fail (Lg.append ~dir (mk_run ~id ())))
        ids;
      let runs = ok_or_fail (Lg.load ~dir) in
      Alcotest.(check (list string)) "oldest first" ids
        (List.map (fun r -> r.Lg.rn_id) runs);
      let id_of sel = (ok_or_fail (Lg.resolve runs sel)).Lg.rn_id in
      Alcotest.(check string) "latest" (fp_of '3') (id_of "latest");
      Alcotest.(check string) "prev" (fp_of '2') (id_of "prev");
      Alcotest.(check string) "full id" (fp_of '1') (id_of (fp_of '1'));
      Alcotest.(check string) "unique prefix" (fp_of '2')
        (id_of (String.make 6 '2'));
      (match Lg.resolve runs "zzzz" with
      | Ok _ -> Alcotest.fail "unknown selector resolved"
      | Error _ -> ());
      (match Lg.resolve runs "1" with
      | Ok _ -> Alcotest.fail "1-char prefix resolved"
      | Error msg ->
        Alcotest.(check bool) "error explains the prefix rule" true
          (T_obs.contains msg "at least 4 characters"));
      (* Two ids sharing a >= 4 char prefix are ambiguous. *)
      ok_or_fail
        (Lg.append ~dir (mk_run ~id:(String.make 4 '1' ^ String.make 28 'e') ()));
      let runs = ok_or_fail (Lg.load ~dir) in
      match Lg.resolve runs (String.make 4 '1') with
      | Ok _ -> Alcotest.fail "ambiguous prefix resolved"
      | Error msg ->
        Alcotest.(check bool) "ambiguity error lists candidates" true
          (T_obs.contains msg "ambiguous"))

let test_rotation () =
  with_tmp_dir (fun dir ->
      (* Every record is far larger than the cap, so each append after
         the first rotates; keep_rotated 2 drops the oldest runs. *)
      let ids = List.map (fun c -> fp_of c) [ '1'; '2'; '3'; '4'; '5' ] in
      List.iter
        (fun id ->
          ok_or_fail
            (Lg.append ~max_bytes:64 ~keep_rotated:2 ~dir (mk_run ~id ())))
        ids;
      Alcotest.(check bool) "active file present" true
        (Sys.file_exists (Lg.ledger_path dir));
      Alcotest.(check bool) "first rotation present" true
        (Sys.file_exists (Filename.concat dir "ledger.1.jsonl"));
      Alcotest.(check bool) "second rotation present" true
        (Sys.file_exists (Filename.concat dir "ledger.2.jsonl"));
      Alcotest.(check bool) "beyond keep_rotated dropped" false
        (Sys.file_exists (Filename.concat dir "ledger.3.jsonl"));
      let runs = ok_or_fail (Lg.load ~dir) in
      Alcotest.(check (list string)) "load spans rotations, oldest first"
        [ fp_of '3'; fp_of '4'; fp_of '5' ]
        (List.map (fun r -> r.Lg.rn_id) runs))

let test_load_rejects_malformed () =
  with_tmp_dir (fun dir ->
      ok_or_fail (Lg.append ~dir (mk_run ()));
      let oc =
        open_out_gen [ Open_append ] 0o644 (Lg.ledger_path dir)
      in
      output_string oc "{ this is not json\n";
      close_out oc;
      match Lg.load ~dir with
      | Ok _ -> Alcotest.fail "malformed line accepted"
      | Error msg ->
        Alcotest.(check bool) "error names file and line" true
          (T_obs.contains msg "ledger.jsonl:2"))

(* Hostile archives: every byte-prefix of a recorded ledger (a write cut
   short) and every single-byte corruption of it. [Ledger.load] and
   [Json_in.parse] answer [Ok] or [Error]; neither may raise. *)
let recorded_ledger =
  lazy
    (with_tmp_dir (fun dir ->
         let entries =
           [
             mk_entry ~solve:(0.1 +. 0.2) ();
             mk_entry ~fp:(fp_of 'b') ~immortal:false ~margin:(-3.75e7)
               ~residual:(Some 1.5e-12) ~diags:[ "audit-residual" ] ();
             mk_entry ~fp:(fp_of 'c') ~ok:false ~immortal:false ~margin:Float.nan
               ~solve:0. ~diags:[ "degenerate-structure" ] ();
           ]
         in
         ok_or_fail (Lg.append ~dir (mk_run ~id:(fp_of '1') ~entries ()));
         ok_or_fail (Lg.append ~dir (mk_run ~id:(fp_of '2') ()));
         In_channel.with_open_bin (Lg.ledger_path dir) In_channel.input_all))

let gen_hostile_ledger =
  let open QCheck2.Gen in
  let text = Lazy.force recorded_ledger in
  let n = String.length text in
  oneof
    [
      map (fun k -> String.sub text 0 k) (int_bound n);
      map2
        (fun at byte ->
          String.mapi (fun i c -> if i = at then Char.chr byte else c) text)
        (int_bound (n - 1)) (int_bound 255);
    ]

let prop_hostile_ledger text =
  let answers f = match f () with Ok _ | Error _ -> true | exception _ -> false in
  with_tmp_dir (fun dir ->
      Unix.mkdir dir 0o755;
      Out_channel.with_open_bin (Lg.ledger_path dir) (fun oc ->
          output_string oc text);
      answers (fun () -> Lg.load ~dir))
  && answers (fun () -> Ji.parse text)
  && List.for_all
       (fun line -> answers (fun () -> Ji.parse line))
       (String.split_on_char '\n' text)

let test_every_prefix_loads_or_errs () =
  let text = Lazy.force recorded_ledger in
  for k = 0 to String.length text do
    if not (prop_hostile_ledger (String.sub text 0 k)) then
      Alcotest.failf "the %d-byte prefix raised" k
  done

(* ---------------------------------------------------------------- *)
(* Diff                                                              *)

let diff_fixture () =
  let a =
    mk_run ~id:(fp_of 'A')
      ~entries:
        [
          mk_entry ~fp:(fp_of '1') ~layer:1 ~nodes:5 ~segments:4 ~margin:2.0e8
            ~solve:1e-4 ();
          mk_entry ~fp:(fp_of '2') ~layer:2 ~nodes:6 ~segments:5 ~margin:1.0e8 ();
          mk_entry ~fp:(fp_of '3') ~layer:3 ~nodes:7 ~segments:6 ~ok:false
            ~immortal:false ~margin:Float.nan ();
          mk_entry ~fp:(fp_of '4') ~layer:4 ~nodes:8 ~segments:7 ~margin:1.0e8 ();
          mk_entry ~fp:(fp_of '6') ~occ:0 ~layer:5 ~nodes:3 ~segments:2
            ~margin:5e7 ();
          mk_entry ~fp:(fp_of '6') ~occ:1 ~layer:5 ~nodes:3 ~segments:2
            ~margin:5e7 ();
          mk_entry ~fp:(fp_of '7') ~layer:6 ~nodes:9 ~segments:8 ~margin:1.0e8 ();
        ]
      ()
  in
  let b =
    mk_run ~id:(fp_of 'B')
      ~entries:
        [
          mk_entry ~fp:(fp_of '1') ~layer:1 ~nodes:5 ~segments:4 ~margin:2.3e8
            ~solve:2e-4 ();
          mk_entry ~fp:(fp_of '2') ~layer:2 ~nodes:6 ~segments:5 ~immortal:false
            ~margin:(-5.0e7) ();
          mk_entry ~fp:(fp_of '3') ~layer:3 ~nodes:7 ~segments:6 ~margin:9e7 ();
          (* fp '4' edited: same (layer, nodes, segments) shape, new
             fingerprint, verdict went immortal -> mortal. *)
          mk_entry ~fp:(fp_of 'e') ~layer:4 ~nodes:8 ~segments:7 ~immortal:false
            ~margin:(-1e7) ();
          mk_entry ~fp:(fp_of '6') ~occ:0 ~layer:5 ~nodes:3 ~segments:2
            ~margin:5e7 ();
          mk_entry ~fp:(fp_of '6') ~occ:1 ~layer:5 ~nodes:3 ~segments:2
            ~margin:5e7 ();
          mk_entry ~fp:(fp_of '8') ~layer:7 ~nodes:11 ~segments:10 ~margin:2e8 ();
        ]
      ()
  in
  (a, b)

let test_diff_semantics () =
  let a, b = diff_fixture () in
  let d = Lg.diff a b in
  Alcotest.(check int) "matched by (fp, occ)" 5 (List.length d.Lg.df_matched);
  Alcotest.(check int) "verdict flips" 2 d.Lg.df_verdict_flips;
  Alcotest.(check int) "regressions: one flip + one edited immortal->mortal" 2
    d.Lg.df_regressions;
  Alcotest.(check int) "changed re-identified by shape" 1
    (List.length d.Lg.df_changed);
  (match d.Lg.df_changed with
  | [ c ] ->
    Alcotest.(check string) "changed pairs old fp" (fp_of '4') c.Lg.dc_fp_a;
    Alcotest.(check string) "changed pairs new fp" (fp_of 'e') c.Lg.dc_fp_b;
    Alcotest.(check bool) "edit went immortal -> mortal" true
      (c.Lg.dc_immortal_a && not c.Lg.dc_immortal_b)
  | _ -> Alcotest.fail "expected exactly one changed pair");
  Alcotest.(check (list string)) "added" [ fp_of '8' ]
    (List.map (fun (e : Lg.entry) -> e.Lg.en_fp) d.Lg.df_added);
  Alcotest.(check (list string)) "removed" [ fp_of '7' ]
    (List.map (fun (e : Lg.entry) -> e.Lg.en_fp) d.Lg.df_removed);
  check_close "max |margin drift|" 1.5e8 d.Lg.df_max_abs_margin_drift;
  (let flips =
     List.filter (fun m -> m.Lg.dm_flip <> `None) d.Lg.df_matched
   in
   Alcotest.(check bool) "flip kinds" true
     (List.exists (fun m -> m.Lg.dm_flip = `To_mortal) flips
     && List.exists (fun m -> m.Lg.dm_flip = `To_ok) flips));
  (* Movers exclude zero and non-finite deltas, largest first. *)
  (match Lg.top_movers d with
  | [ m1; m2 ] ->
    Alcotest.(check string) "largest mover" (fp_of '2') m1.Lg.dm_fp;
    Alcotest.(check string) "second mover" (fp_of '1') m2.Lg.dm_fp;
    check_close "mover delta" (-1.5e8) m1.Lg.dm_margin_delta
  | ms -> Alcotest.failf "expected 2 movers, got %d" (List.length ms));
  (match Lg.top_movers ~k:1 d with
  | [ m ] -> Alcotest.(check string) "k bounds movers" (fp_of '2') m.Lg.dm_fp
  | ms -> Alcotest.failf "expected 1 mover, got %d" (List.length ms));
  (* The JSON summary mirrors the record. *)
  let j = Lg.diff_to_json d in
  let summary = Option.get (Ji.member "summary" j) in
  let get name =
    int_of_float (Option.get (Ji.number (Option.get (Ji.member name summary))))
  in
  Alcotest.(check int) "json matched" 5 (get "matched");
  Alcotest.(check int) "json regressions" 2 (get "regressions");
  Alcotest.(check int) "json changed" 1 (get "changed")

let test_diff_identical_runs () =
  let a, _ = diff_fixture () in
  let d = Lg.diff a { a with Lg.rn_id = fp_of 'C' } in
  Alcotest.(check int) "all matched" (List.length a.Lg.rn_entries)
    (List.length d.Lg.df_matched);
  Alcotest.(check int) "no flips" 0 d.Lg.df_verdict_flips;
  Alcotest.(check int) "no regressions" 0 d.Lg.df_regressions;
  Alcotest.(check int) "nothing changed" 0 (List.length d.Lg.df_changed);
  Alcotest.(check int) "nothing added" 0 (List.length d.Lg.df_added);
  Alcotest.(check int) "nothing removed" 0 (List.length d.Lg.df_removed);
  Alcotest.(check (float 0.)) "zero drift" 0. d.Lg.df_max_abs_margin_drift;
  Alcotest.(check int) "no movers" 0 (List.length (Lg.top_movers d))

(* ---------------------------------------------------------------- *)
(* History                                                           *)

let test_history () =
  let e_x margin = mk_entry ~fp:(fp_of 'x') ~layer:2 ~margin ~solve:1e-3 () in
  let e_y = mk_entry ~fp:(fp_of 'y') ~layer:3 ~ok:false ~immortal:false
      ~margin:Float.nan ()
  in
  let e_z = mk_entry ~fp:(fp_of 'z') ~layer:4 ~margin:7e7 () in
  let r1 = mk_run ~id:(fp_of '1') ~entries:[ e_x 1e8; e_y ] () in
  let r2 = mk_run ~id:(fp_of '2') ~entries:[ e_x 2e8; e_z ] () in
  let r3 = mk_run ~id:(fp_of '3') ~entries:[ e_x 3e8 ] () in
  let trends = Lg.history ~metric:`Margin [ r1; r2; r3 ] in
  Alcotest.(check (list string)) "first-appearance order"
    [ fp_of 'x'; fp_of 'y'; fp_of 'z' ]
    (List.map (fun t -> t.Lg.tr_fp) trends);
  (match trends with
  | [ tx; ty; tz ] ->
    Alcotest.(check (list string)) "points span the archive, oldest first"
      [ fp_of '1'; fp_of '2'; fp_of '3' ]
      (List.map fst tx.Lg.tr_points);
    check_close "margin values tracked" 2e8 (snd (List.nth tx.Lg.tr_points 1));
    Alcotest.(check int) "nan margins contribute no point" 0
      (List.length ty.Lg.tr_points);
    Alcotest.(check int) "late appearance tracked" 1
      (List.length tz.Lg.tr_points)
  | _ -> Alcotest.fail "expected three trends");
  match Lg.history ~metric:`Time [ r1; r2; r3 ] with
  | tx :: _ -> check_close "time metric reads solve_s" 1e-3
      (snd (List.hd tx.Lg.tr_points))
  | [] -> Alcotest.fail "expected trends"

(* ---------------------------------------------------------------- *)
(* entries_of_result against a real flow run                         *)

let small_grid () =
  Gg.generate
    {
      Gg.tech = Pdn.Tech.ibm_like;
      die_width = 2e-3;
      die_height = 2e-3;
      stripe_counts = [| 20; 16; 8; 4 |];
      pad_every = 4;
      load_fraction = 0.4;
      current_per_net = 1.0;
      bottom_tap_pitch = None;
      voltage_domains = 1;
      seed = 11L;
    }

let test_entries_of_result () =
  let g = small_grid () in
  let sol = Spice.Mna.solve g.Gg.netlist in
  let compacts = Ex.extract_compact ~tech:g.Gg.tech sol in
  let r = Flow.run_on_compact compacts in
  let entries = Lg.entries_of_result compacts r in
  Alcotest.(check int) "one entry per structure" (List.length compacts)
    (List.length entries);
  List.iteri
    (fun i (e : Lg.entry) ->
      let cs = List.nth compacts i in
      Alcotest.(check string) "fingerprint matches direct computation"
        (Fp.of_compact ~layer:cs.Ex.cs_layer_level ~material:M.cu_dac21
           cs.Ex.compact)
        e.Lg.en_fp;
      Alcotest.(check int) "layer" cs.Ex.cs_layer_level e.Lg.en_layer;
      Alcotest.(check int) "nodes" (Cc.num_nodes cs.Ex.compact) e.Lg.en_nodes;
      Alcotest.(check int) "segments" (Cc.num_segments cs.Ex.compact)
        e.Lg.en_segments;
      Alcotest.(check bool) "clean run analyzes every structure" true
        e.Lg.en_ok;
      Alcotest.(check bool) "finite margin" true
        (Float.is_finite e.Lg.en_margin_pa);
      Alcotest.(check bool) "margin sign agrees with the verdict" true
        (e.Lg.en_immortal = (e.Lg.en_margin_pa > 0.));
      Alcotest.(check bool) "unaudited run carries no residual" true
        (e.Lg.en_worst_residual = None))
    entries;
  check_raises_invalid "length mismatch rejected" (fun () ->
      Lg.entries_of_result (List.tl compacts) r)

(* ---------------------------------------------------------------- *)
(* Metrics                                                           *)

let test_metrics_registered () =
  let exposition = Obs.Metrics.to_prometheus () in
  List.iter
    (fun name ->
      Alcotest.(check bool) ("registry has " ^ name) true
        (T_obs.contains exposition name))
    [
      "em_ledger_runs_recorded_total"; "em_ledger_structures_matched_total";
      "em_ledger_structures_changed_total";
    ]

let suites =
  [
    ( "ledger.serialization",
      [
        case "run record round-trips byte-identically"
          test_roundtrip_byte_identical;
        case "readback rejects bad schema and missing fields"
          test_readback_rejects;
        case "records with a retired engine key still load"
          test_readback_ignores_engine;
      ] );
    ( "ledger.archive",
      [
        case "append, load and resolve" test_append_load_resolve;
        case "size-capped rotation" test_rotation;
        case "malformed lines are named errors" test_load_rejects_malformed;
        case "every byte-prefix of a ledger loads or errs"
          test_every_prefix_loads_or_errs;
        qcheck ~count:2000 "hostile ledgers: Ok or Error, never a raise"
          gen_hostile_ledger prop_hostile_ledger;
      ] );
    ( "ledger.diff",
      [
        case "flips, regressions, shape-paired edits" test_diff_semantics;
        case "identical runs report zero drift" test_diff_identical_runs;
        case "per-fingerprint history trends" test_history;
      ] );
    ( "ledger.flow",
      [
        case "entries_of_result joins stats and fingerprints"
          test_entries_of_result;
        case "em_ledger_* metrics registered" test_metrics_registered;
      ] );
  ]

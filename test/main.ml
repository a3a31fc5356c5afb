(* Test entry point: every T_* module contributes a list of alcotest
   suites; keep the registration here flat so `dune runtest` runs all. *)

let () =
  Alcotest.run "blech"
    (List.concat
       [
         T_numerics.suites;
         T_graph.suites;
         T_core.suites;
         T_pde.suites;
         T_spice.suites;
         T_pdn.suites;
         T_flow.suites;
         T_obs.suites;
         T_jsonx.suites;
         T_profile.suites;
         T_history.suites;
         T_fingerprint.suites;
         T_ledger.suites;
         T_cli.suites;
       ])

(* Test entry point: every T_* module contributes a list of alcotest
   suites; keep the registration here flat so `dune runtest` runs all.
   Alcotest sizes its name column by the longest suite name (today the
   24 characters of "cli.subcommand_inventory") and cuts test names to
   fit 80 columns, so a longer or shorter longest name changes how every
   test name prints. *)

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
         T_cli.suites;
       ])

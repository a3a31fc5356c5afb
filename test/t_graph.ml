open T_helpers

(* A small labelled test graph used across cases:

       0 --a-- 1 --b-- 2
               |       |
               c       d
               |       |
               3 --e-- 4      5 (isolated)
*)
let sample () =
  Ugraph.create ~num_nodes:6
    [| (0, 1, "a"); (1, 2, "b"); (1, 3, "c"); (2, 4, "d"); (3, 4, "e") |]

let test_construction () =
  let g = sample () in
  Alcotest.(check int) "nodes" 6 (Ugraph.num_nodes g);
  Alcotest.(check int) "edges" 5 (Ugraph.num_edges g);
  let e = Ugraph.edge g 3 in
  Alcotest.(check int) "tail" 2 e.Ugraph.tail;
  Alcotest.(check int) "head" 4 e.Ugraph.head;
  Alcotest.(check string) "attr" "d" (Ugraph.attr g 3)

let test_construction_errors () =
  check_raises_invalid "self loop" (fun () ->
      Ugraph.create ~num_nodes:2 [| (0, 0, ()) |]);
  check_raises_invalid "bad endpoint" (fun () ->
      Ugraph.create ~num_nodes:2 [| (0, 2, ()) |]);
  check_raises_invalid "negative nodes" (fun () ->
      Ugraph.create ~num_nodes:(-1) [||])

let test_degrees_and_termini () =
  let g = sample () in
  Alcotest.(check int) "deg 0" 1 (Ugraph.degree g 0);
  Alcotest.(check int) "deg 1" 3 (Ugraph.degree g 1);
  Alcotest.(check int) "deg 5" 0 (Ugraph.degree g 5);
  Alcotest.(check (list int)) "termini" [ 0 ] (Ugraph.termini g)

let test_other_endpoint () =
  let g = sample () in
  Alcotest.(check int) "other of tail" 1 (Ugraph.other_endpoint g ~edge_id:0 0);
  Alcotest.(check int) "other of head" 0 (Ugraph.other_endpoint g ~edge_id:0 1);
  check_raises_invalid "not an endpoint" (fun () ->
      Ugraph.other_endpoint g ~edge_id:0 2)

let test_parallel_edges_allowed () =
  let g = Ugraph.create ~num_nodes:2 [| (0, 1, "x"); (1, 0, "y") |] in
  Alcotest.(check int) "deg with parallel" 2 (Ugraph.degree g 0)

let test_map_attr () =
  let g = sample () in
  let g' = Ugraph.map_attr String.uppercase_ascii g in
  Alcotest.(check string) "mapped" "C" (Ugraph.attr g' 2);
  let g'' = Ugraph.mapi_attr (fun e a -> Printf.sprintf "%s%d" a e.Ugraph.id) g in
  Alcotest.(check string) "mapi" "b1" (Ugraph.attr g'' 1)

let test_is_connected () =
  Alcotest.(check bool) "sample disconnected" false (Ugraph.is_connected (sample ()));
  let g = Ugraph.create ~num_nodes:3 [| (0, 1, ()); (1, 2, ()) |] in
  Alcotest.(check bool) "path connected" true (Ugraph.is_connected g);
  let single = Ugraph.create ~num_nodes:1 [||] in
  Alcotest.(check bool) "singleton" true (Ugraph.is_connected single)

(* ---------------------------------------------------------------- *)
(* Traversal                                                         *)

let test_bfs_order_and_parents () =
  let g = sample () in
  let t = Traversal.bfs g ~root:0 in
  Alcotest.(check int) "root first" 0 t.Traversal.order.(0);
  Alcotest.(check int) "reaches component" 5 (Array.length t.Traversal.order);
  Alcotest.(check int) "parent of 1" 0 t.Traversal.parent_node.(1);
  Alcotest.(check int) "parent edge of 1" 0 t.Traversal.parent_edge.(1);
  Alcotest.(check int) "unreached parent" (-1) t.Traversal.parent_node.(5);
  Alcotest.(check bool) "unreached flag" false t.Traversal.reached.(5);
  (* BFS from 0 reaches 4 through 2 or 3, both at distance 3. *)
  Alcotest.(check bool) "bfs parent of 4" true
    (List.mem t.Traversal.parent_node.(4) [ 2; 3 ])

let test_dfs_reaches_same_set () =
  let g = sample () in
  let bfs = Traversal.bfs g ~root:1 and dfs = Traversal.dfs g ~root:1 in
  let set t = List.sort compare (Array.to_list t.Traversal.order) in
  Alcotest.(check (list int)) "same reach" (set bfs) (set dfs)

let test_fold_tree_edges_prefix () =
  let g = sample () in
  let t = Traversal.bfs g ~root:0 in
  (* Parents must appear before children in the fold. *)
  let seen = Hashtbl.create 8 in
  Hashtbl.add seen 0 ();
  Traversal.fold_tree_edges t ~init:() ~f:(fun () ~node ~parent ~edge_id:_ ->
      Alcotest.(check bool) "parent seen first" true (Hashtbl.mem seen parent);
      Hashtbl.add seen node ())

let test_component_of () =
  let g = sample () in
  Alcotest.(check (list int)) "component of 0" [ 0; 1; 2; 3; 4 ]
    (Traversal.component_of g ~root:0);
  Alcotest.(check (list int)) "component of 5" [ 5 ] (Traversal.component_of g ~root:5)

let test_dfs_long_path_no_overflow () =
  let n = 200_000 in
  let g =
    Ugraph.create ~num_nodes:n (Array.init (n - 1) (fun i -> (i, i + 1, ())))
  in
  let t = Traversal.dfs g ~root:0 in
  Alcotest.(check int) "all reached" n (Array.length t.Traversal.order)

let test_csr_matches_incident () =
  let g = sample () in
  let offsets = Ugraph.csr_offsets g in
  Alcotest.(check int) "offsets length" (Ugraph.num_nodes g + 1)
    (Array.length offsets);
  Alcotest.(check int) "2m slots" (2 * Ugraph.num_edges g)
    offsets.(Ugraph.num_nodes g);
  for v = 0 to Ugraph.num_nodes g - 1 do
    (* iter_incident walks the CSR row; it must agree with the boxed
       incident list, in the same order. *)
    let via_iter = ref [] in
    Ugraph.iter_incident g v (fun ~edge_id ~neighbor ->
        via_iter := (edge_id, neighbor) :: !via_iter);
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "incident %d" v)
      (Array.to_list (Ugraph.incident g v))
      (List.rev !via_iter)
  done

let same_tree (a : Traversal.tree) (b : Traversal.tree) n =
  Alcotest.(check int) "root" a.Traversal.root b.Traversal.root;
  Alcotest.(check (list int)) "order"
    (Array.to_list a.Traversal.order)
    (Array.to_list b.Traversal.order);
  for v = 0 to n - 1 do
    Alcotest.(check int) "parent node" a.Traversal.parent_node.(v)
      b.Traversal.parent_node.(v);
    Alcotest.(check int) "parent edge" a.Traversal.parent_edge.(v)
      b.Traversal.parent_edge.(v);
    Alcotest.(check bool) "reached" a.Traversal.reached.(v) b.Traversal.reached.(v)
  done

let test_workspace_traversals_match () =
  let g = sample () in
  let n = Ugraph.num_nodes g in
  let ws = Traversal.workspace () in
  (* Repeat from several roots through one workspace: results must match
     the allocating path every time (the workspace is dirty after the
     first call, exercising the reset). *)
  List.iter
    (fun root ->
      same_tree (Traversal.bfs g ~root) (Traversal.bfs ~ws g ~root) n;
      same_tree (Traversal.dfs g ~root) (Traversal.dfs ~ws g ~root) n)
    [ 0; 1; 5; 4 ]

let test_workspace_spanning_matches () =
  let g = sample () in
  let ws = Spanning.workspace () in
  List.iter
    (fun root ->
      let plain = Spanning.of_bfs g ~root in
      let reused = Spanning.of_bfs ~ws g ~root in
      Alcotest.(check (list int)) "chords"
        (Array.to_list plain.Spanning.chords)
        (Array.to_list reused.Spanning.chords);
      for e = 0 to Ugraph.num_edges g - 1 do
        Alcotest.(check bool) "tree flag" plain.Spanning.is_tree_edge.(e)
          reused.Spanning.is_tree_edge.(e)
      done)
    [ 0; 3; 5 ]

(* ---------------------------------------------------------------- *)
(* Spanning                                                          *)

let test_spanning_tree_counts () =
  let g = sample () in
  let s = Spanning.of_bfs g ~root:0 in
  let tree_edges =
    Array.fold_left (fun n b -> if b then n + 1 else n) 0 s.Spanning.is_tree_edge
  in
  (* Component of 0 has 5 nodes -> 4 tree edges, and 5 - 4 = 1 chord. *)
  Alcotest.(check int) "tree edges" 4 tree_edges;
  Alcotest.(check int) "chords" 1 (Array.length s.Spanning.chords);
  Alcotest.(check int) "cycles" 1 (Spanning.num_independent_cycles g ~root:0)

let test_spanning_tree_acyclic_graph () =
  let g = Ugraph.create ~num_nodes:4 [| (0, 1, ()); (1, 2, ()); (1, 3, ()) |] in
  let s = Spanning.of_dfs g ~root:0 in
  Alcotest.(check int) "no chords in tree" 0 (Array.length s.Spanning.chords)

let test_spanning_chord_not_tree_edge () =
  let g = sample () in
  let s = Spanning.of_bfs g ~root:0 in
  Array.iter
    (fun chord ->
      Alcotest.(check bool) "chord flag" false s.Spanning.is_tree_edge.(chord))
    s.Spanning.chords

(* ---------------------------------------------------------------- *)
(* Components                                                        *)

let test_components () =
  let g = sample () in
  let c = Components.compute g in
  Alcotest.(check int) "count" 2 c.Components.count;
  Alcotest.(check (list int)) "component 0 nodes" [ 0; 1; 2; 3; 4 ]
    (Components.nodes_of c 0);
  Alcotest.(check (list int)) "component 1 nodes" [ 5 ] (Components.nodes_of c 1);
  Alcotest.(check (list int)) "component 0 edges" [ 0; 1; 2; 3; 4 ]
    (Components.edges_of c 0);
  Alcotest.(check int) "largest" 0 (Components.largest c)

let test_components_all_isolated () =
  let g = Ugraph.create ~num_nodes:3 [||] in
  let c = Components.compute g in
  Alcotest.(check int) "three singletons" 3 c.Components.count

(* ---------------------------------------------------------------- *)
(* Reorder                                                           *)

let csr g = (Ugraph.csr_offsets g, Ugraph.csr_neighbors g)

let test_reorder_bfs_path_identity () =
  (* On a path already labeled in walk order, BFS discovery from node 0
     is the identity permutation. *)
  let g = Ugraph.create ~num_nodes:5 (Array.init 4 (fun i -> (i, i + 1, ()))) in
  let offsets, neighbors = csr g in
  let order = Reorder.bfs_order ~num_nodes:5 ~offsets ~neighbors ~root:0 in
  Alcotest.(check (list int)) "identity" [ 0; 1; 2; 3; 4 ] (Array.to_list order)

let test_reorder_bfs_discovery_order () =
  let g = sample () in
  let offsets, neighbors = csr g in
  (* From 3 the CSR rows give 1 then 4 (edge-id order), then 0, 2 from
     1's row; the isolated 5 arrives via the disconnected restart. *)
  let order = Reorder.bfs_order ~num_nodes:6 ~offsets ~neighbors ~root:3 in
  Alcotest.(check (list int)) "order" [ 3; 1; 4; 0; 2; 5 ] (Array.to_list order)

let test_reorder_permutations_and_inverse () =
  let g = sample () in
  let offsets, neighbors = csr g in
  List.iter
    (fun root ->
      let order = Reorder.bfs_order ~num_nodes:6 ~offsets ~neighbors ~root in
      Alcotest.(check bool) "permutation" true (Reorder.is_permutation order);
      let inv = Reorder.inverse order in
      Array.iteri (fun nw old -> Alcotest.(check int) "inverse" nw inv.(old)) order)
    [ 0; 3; 5 ]

let test_reorder_inverse_rejects_non_permutation () =
  check_raises_invalid "duplicate image" (fun () ->
      ignore (Reorder.inverse [| 0; 0 |]));
  check_raises_invalid "out of range" (fun () ->
      ignore (Reorder.inverse [| 1; 2 |]))

(* ---------------------------------------------------------------- *)
(* Unionfind                                                         *)

let test_unionfind () =
  let u = Unionfind.create 5 in
  Alcotest.(check int) "initial count" 5 (Unionfind.count u);
  Alcotest.(check bool) "union 0 1" true (Unionfind.union u 0 1);
  Alcotest.(check bool) "union 1 2" true (Unionfind.union u 1 2);
  Alcotest.(check bool) "redundant union" false (Unionfind.union u 0 2);
  Alcotest.(check bool) "same 0 2" true (Unionfind.same u 0 2);
  Alcotest.(check bool) "diff 0 3" false (Unionfind.same u 0 3);
  Alcotest.(check int) "count after unions" 3 (Unionfind.count u)

let suites =
  [
    ( "graph.ugraph",
      [
        case "construction" test_construction;
        case "construction errors" test_construction_errors;
        case "degrees and termini" test_degrees_and_termini;
        case "other_endpoint" test_other_endpoint;
        case "parallel edges" test_parallel_edges_allowed;
        case "map_attr / mapi_attr" test_map_attr;
        case "is_connected" test_is_connected;
        case "CSR adjacency matches incident" test_csr_matches_incident;
      ] );
    ( "graph.traversal",
      [
        case "bfs order and parents" test_bfs_order_and_parents;
        case "dfs reaches same set" test_dfs_reaches_same_set;
        case "fold_tree_edges prefix property" test_fold_tree_edges_prefix;
        case "component_of" test_component_of;
        case "dfs long path (no overflow)" test_dfs_long_path_no_overflow;
        case "workspace reuse matches allocating path"
          test_workspace_traversals_match;
      ] );
    ( "graph.spanning",
      [
        case "tree edge / chord counts" test_spanning_tree_counts;
        case "acyclic graph has no chords" test_spanning_tree_acyclic_graph;
        case "chords are not tree edges" test_spanning_chord_not_tree_edge;
        case "workspace reuse matches allocating path"
          test_workspace_spanning_matches;
      ] );
    ( "graph.components",
      [
        case "two components" test_components;
        case "isolated nodes" test_components_all_isolated;
      ] );
    ( "graph.reorder",
      [
        case "BFS on ordered path is identity" test_reorder_bfs_path_identity;
        case "BFS discovery order (CSR slot order)"
          test_reorder_bfs_discovery_order;
        case "orders are permutations with exact inverses"
          test_reorder_permutations_and_inverse;
        case "inverse rejects non-permutations"
          test_reorder_inverse_rejects_non_permutation;
      ] );
    ("graph.unionfind", [ case "union/find/count" test_unionfind ]);
  ]

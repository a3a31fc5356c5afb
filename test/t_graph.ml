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

(* Length of [v]'s incidence range. *)
let degree g v =
  let d = ref 0 in
  Ugraph.iter_incident g v (fun ~edge_id:_ ~neighbor:_ -> incr d);
  !d

let test_degrees_and_termini () =
  let g = sample () in
  Alcotest.(check int) "deg 0" 1 (degree g 0);
  Alcotest.(check int) "deg 1" 3 (degree g 1);
  Alcotest.(check int) "deg 5" 0 (degree g 5);
  Alcotest.(check (list int)) "termini" [ 0 ] (Ugraph.termini g)

let test_parallel_edges_allowed () =
  let g = Ugraph.create ~num_nodes:2 [| (0, 1, "x"); (1, 0, "y") |] in
  Alcotest.(check int) "deg with parallel" 2 (degree g 0)

let test_mapi_attr () =
  let g = sample () in
  let g' = Ugraph.mapi_attr (fun e a -> Printf.sprintf "%s%d" a e.Ugraph.id) g in
  Alcotest.(check string) "mapi" "b1" (Ugraph.attr g' 1);
  Alcotest.(check int) "endpoints kept" 4 (Ugraph.head g' 3)

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

let test_fold_tree_edges_prefix () =
  let g = sample () in
  let t = Traversal.bfs g ~root:0 in
  (* Parents must appear before children in the fold. *)
  let seen = Hashtbl.create 8 in
  Hashtbl.add seen 0 ();
  Traversal.fold_tree_edges t ~init:() ~f:(fun () ~node ~parent ~edge_id:_ ->
      Alcotest.(check bool) "parent seen first" true (Hashtbl.mem seen parent);
      Hashtbl.add seen node ())

let test_csr_matches_incident () =
  let g = sample () in
  let offsets = Ugraph.csr_offsets g in
  Alcotest.(check int) "offsets length" (Ugraph.num_nodes g + 1)
    (Array.length offsets);
  Alcotest.(check int) "2m slots" (2 * Ugraph.num_edges g)
    offsets.(Ugraph.num_nodes g);
  for v = 0 to Ugraph.num_nodes g - 1 do
    (* iter_incident walks the CSR row in slot order, and a row lists
       the node's edges in ascending id order, each towards its other
       endpoint. *)
    let via_iter = ref [] in
    Ugraph.iter_incident g v (fun ~edge_id ~neighbor ->
        via_iter := (edge_id, neighbor) :: !via_iter);
    let row =
      List.init (offsets.(v + 1) - offsets.(v)) (fun k ->
          let slot = offsets.(v) + k in
          ((Ugraph.csr_edges g).(slot), (Ugraph.csr_neighbors g).(slot)))
    in
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "incident %d" v) row (List.rev !via_iter);
    List.iter
      (fun (e, u) ->
        let { Ugraph.tail; head; _ } = Ugraph.edge g e in
        Alcotest.(check bool) "edge joins v and u" true
          ((tail = v && head = u) || (tail = u && head = v)))
      row;
    Alcotest.(check (list int)) "ascending ids"
      (List.sort compare (List.map fst row))
      (List.map fst row)
  done

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
        case "parallel edges" test_parallel_edges_allowed;
        case "mapi_attr" test_mapi_attr;
        case "is_connected" test_is_connected;
        case "CSR adjacency matches incident" test_csr_matches_incident;
      ] );
    ( "graph.traversal",
      [
        case "bfs order and parents" test_bfs_order_and_parents;
        case "fold_tree_edges prefix property" test_fold_tree_edges_prefix;
      ] );
    ("graph.unionfind", [ case "union/find/count" test_unionfind ]);
  ]

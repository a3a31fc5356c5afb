open T_helpers

module St = Em_core.Structure
module Traversal = Em_core.Traversal

(* A structure is an undirected multigraph on its CSR columns. A small
   test graph used across cases; segment k is (k + 1) um long, so the
   length column labels it:

       0 --0-- 1 --1-- 2
               |       |
               2       3
               |       |
               3 --4-- 4      5 (isolated)
*)
let um = 1e-6

let wire k = St.segment ~length:(float_of_int (k + 1) *. um) ~width:um ~j:0. ()

let of_edges ~num_nodes edges =
  St.of_segments ~num_nodes (Array.mapi (fun k (t, h) -> (t, h, wire k)) edges)

let sample () =
  of_edges ~num_nodes:6 [| (0, 1); (1, 2); (1, 3); (2, 4); (3, 4) |]

let test_construction () =
  let g = sample () in
  Alcotest.(check int) "nodes" 6 (St.num_nodes g);
  Alcotest.(check int) "edges" 5 (St.num_segments g);
  Alcotest.(check int) "tail" 2 g.St.tail.(3);
  Alcotest.(check int) "head" 4 g.St.head.(3);
  Alcotest.(check (float 0.)) "length column" (4. *. um) g.St.length.(3)

let test_construction_errors () =
  check_raises_invalid "self loop" (fun () -> of_edges ~num_nodes:2 [| (0, 0) |]);
  check_raises_invalid "bad endpoint" (fun () -> of_edges ~num_nodes:2 [| (0, 2) |]);
  check_raises_invalid "negative nodes" (fun () ->
      of_edges ~num_nodes:(-1) [| (0, 1) |]);
  check_raises_invalid "no segments" (fun () -> of_edges ~num_nodes:1 [||])

(* Length of [v]'s incidence range. *)
let degree g v = g.St.offsets.(v + 1) - g.St.offsets.(v)

let test_degrees_and_termini () =
  let g = sample () in
  Alcotest.(check int) "deg 0" 1 (degree g 0);
  Alcotest.(check int) "deg 1" 3 (degree g 1);
  Alcotest.(check int) "deg 5" 0 (degree g 5);
  Alcotest.(check int) "lowest terminus" 0 (St.default_reference g);
  let cycle = of_edges ~num_nodes:3 [| (0, 1); (1, 2); (2, 0) |] in
  Alcotest.(check int) "no terminus: node 0" 0 (St.default_reference cycle);
  let hooked = of_edges ~num_nodes:4 [| (0, 1); (1, 2); (2, 0); (2, 3) |] in
  Alcotest.(check int) "terminus past node 0" 3 (St.default_reference hooked)

let test_parallel_edges_allowed () =
  let g = of_edges ~num_nodes:2 [| (0, 1); (1, 0) |] in
  Alcotest.(check int) "deg with parallel" 2 (degree g 0)

let test_is_connected () =
  Alcotest.(check bool) "sample disconnected" false (St.is_connected (sample ()));
  let g = of_edges ~num_nodes:3 [| (0, 1); (1, 2) |] in
  Alcotest.(check bool) "path connected" true (St.is_connected g)

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
  let offsets = g.St.offsets in
  Alcotest.(check int) "offsets length" (St.num_nodes g + 1)
    (Array.length offsets);
  Alcotest.(check int) "2m slots" (2 * St.num_segments g)
    offsets.(St.num_nodes g);
  for v = 0 to St.num_nodes g - 1 do
    (* A row lists the node's segments in ascending id order, each
       towards its other endpoint. *)
    let row =
      List.init (degree g v) (fun k ->
          let slot = offsets.(v) + k in
          (g.St.adj_edge.(slot), g.St.adj_nbr.(slot)))
    in
    List.iter
      (fun (e, u) ->
        let tail = g.St.tail.(e) and head = g.St.head.(e) in
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
    (* A structure as an undirected multigraph ("ugraph"): construction,
       degrees, parallel segments, connectivity and the CSR rows. *)
    ( "graph.ugraph",
      [
        case "construction" test_construction;
        case "construction errors" test_construction_errors;
        case "degrees and termini" test_degrees_and_termini;
        case "parallel edges" test_parallel_edges_allowed;
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

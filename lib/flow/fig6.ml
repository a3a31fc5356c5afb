module St = Em_core.Structure

let um = 1e-6

let seg ~l ~j = St.segment ~height:(0.5 *. um) ~length:(l *. um) ~width:um ~j ()

(*          0
            | e1 (j1 = 6e10, into the junction)
            1
    e2 <-   / \  -> e3
   2 ------'   '------ 3
   (j2 = -4e10)  (j3 = 3e10)  *)
let t_structure =
  St.of_segments ~num_nodes:4
    [|
      (0, 1, seg ~l:20. ~j:6e10);
      (1, 2, seg ~l:10. ~j:(-4e10));
      (1, 3, seg ~l:15. ~j:3e10);
    |]

(* A seven-node tree:
     0 -e1- 1 -e2- 2
            |
            e3
            |
     4 -e4- 3 -e5- 5 -e6- 6 *)
let tree =
  St.of_segments ~num_nodes:7
    [|
      (0, 1, seg ~l:10. ~j:(-1e10));
      (1, 2, seg ~l:12. ~j:5e10);
      (1, 3, seg ~l:8. ~j:(-4e10));
      (3, 4, seg ~l:15. ~j:2e10);
      (3, 5, seg ~l:10. ~j:4e10);
      (5, 6, seg ~l:6. ~j:2e10);
    |]

(* A single square loop 0 -> 1 -> 2 -> 3 -> 0 with reference directions
   around the cycle; lengths satisfy sum(j l) = 0:
   1e10*20 + 1.5e10*16 - 2e10*10 - 3e10*8 = 0 (per um). *)
let mesh =
  St.of_segments ~num_nodes:4
    [|
      (0, 1, seg ~l:20. ~j:1e10);
      (1, 2, seg ~l:16. ~j:1.5e10);
      (2, 3, seg ~l:10. ~j:(-2e10));
      (3, 0, seg ~l:8. ~j:(-3e10));
    |]

let all = [ ("T", t_structure); ("tree", tree); ("mesh", mesh) ]

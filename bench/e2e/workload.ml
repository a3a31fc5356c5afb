(* The benchmark's workloads: which deck each synthesizes from the seed,
   the `emcheck analyze` flags it runs with, and why it is here. *)

module Gg = Pdn.Grid_gen
module Op = Pdn.Openpdn

type deck =
  | Ibm of Gg.ibm_size * float (* preset, stripe-count scale *)
  | Openroad of string * Op.node_kind (* Table III circuit *)

type t = {
  name : string;
  deck : deck;
  tech : string;        (* the `-t` value *)
  samples : int option; (* `--variation --samples N` when set *)
  reps : int;           (* runs per full default run *)
  why : string;
}

(* The IBM presets' own seed. *)
let default_seed = 424242

let all =
  [
    {
      name = "pg6-0.3";
      deck = Ibm (Gg.Pg6, 0.3);
      tech = "ibm";
      samples = None;
      reps = 11;
      why =
        "Reference IBM-like deck (134k nodes): the MNA solve dominates, \
         parse is next, the EM kernel is about 1%.";
    };
    {
      name = "pg6-0.42";
      deck = Ibm (Gg.Pg6, 0.42);
      tech = "ibm";
      samples = None;
      reps = 5;
      why =
        "Twice the nodes and peak RSS of pg6-0.3: solver and ordering \
         choices that scale worse than linearly show here first.";
    };
    {
      name = "jpeg-28nm";
      deck = Openroad ("jpeg", Op.N28);
      tech = "28nm";
      samples = None;
      reps = 7;
      why =
        "Region-templated OpenROAD-style grid: another sparsity pattern and \
         the worst conditioning (about 1800 CG iterations).";
    };
    {
      name = "pg2-variation";
      deck = Ibm (Gg.Pg2, 0.5);
      tech = "ibm";
      samples = Some 1000;
      reps = 5;
      why =
        "Monte-Carlo variation, 1000 samples: the one workload where the EM \
         core (about 85%) outweighs the MNA solve.";
    };
  ]

(* A deck small enough for the harness's own tests; not a benchmark
   workload. *)
let smoke =
  {
    name = "pg1-smoke";
    deck = Ibm (Gg.Pg1, 0.2);
    tech = "ibm";
    samples = Some 20;
    reps = 1;
    why = "harness self-test";
  }

let find name = List.find_opt (fun w -> w.name = name) (smoke :: all)

let tech w =
  match w.tech with
  | "ibm" -> Pdn.Tech.ibm_like
  | "28nm" -> Pdn.Tech.n28
  | t -> invalid_arg ("Workload.tech: " ^ t)

let synthesize w ~seed =
  match w.deck with
  | Ibm (size, scale) ->
    Gg.generate { (Gg.ibm_preset ~scale size) with Gg.seed = Int64.of_int seed }
  | Openroad (circuit, node) ->
    let c =
      List.find
        (fun c -> c.Op.circuit_name = circuit && c.Op.node = node)
        Op.table3_circuits
    in
    let spec = Op.circuit_spec c in
    (* The seed draws the loads only. The floorplan stays the circuit's
       own (the one [Op.synthesize] derives from the circuit's seed), so
       every seed gets the same region templates and hence the same
       sparsity pattern and CG iteration count; a seeded floorplan moves
       the iteration count by +-7%, more than the benchmark's bounds. *)
    let floorplan =
      Pdn.Floorplan.random
        (Numerics.Rng.split (Numerics.Rng.create spec.Op.seed))
        ~num_hotspots:5 ~uniform_fraction:0.08 ~radius_range:(0.02, 0.05)
        ~width:spec.Op.die_width ~height:spec.Op.die_height
        ~total_current:spec.Op.current_per_net ()
    in
    Op.synthesize ~floorplan { spec with Op.seed = Int64.of_int seed }

let write_deck path (g : Gg.generated) =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> Spice.Netlist.output oc g.Gg.netlist)

let emcheck_args w ~seed ~jobs ~deck ~json =
  [ "analyze"; deck; "-t"; w.tech; "-j"; string_of_int jobs; "--json"; json ]
  @
  match w.samples with
  | None -> []
  | Some n ->
    [ "--variation"; "--samples"; string_of_int n; "--mc-seed";
      string_of_int seed ]

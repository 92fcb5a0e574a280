(* Differential and schedule-exploration tests for the partitioned
   runtimes.

   Three layers of evidence that partitioning changes nothing observable:

   - randomized differential runs: seeded random meshes and loop chains
     executed on the distributed OP2 backend, each rank's range run by
     any rank engine, must agree with the sequential reference up to
     reduction reordering; likewise the Airfoil and CloverLeaf proxies,
     and the OPS chains on every decomposition, bitwise;
   - schedule exploration (the "dpor" group, also under `dune build
     @dpor`): the bounded DPOR explorer drives halo exchanges and
     reductions — and small partitioned OP2 and OPS programs — through
     every Mazurkiewicz-inequivalent delivery schedule, cross-checked
     against brute-force enumeration where that is small enough, and
     demands one bitwise outcome; a receive that can never complete must
     fail fast instead of hanging;
   - halo-freshness invariants: the eager and on-demand exchange policies
     are bitwise interchangeable on chains that interleave indirect reads,
     Inc accumulations and direct writes.

   Every randomized case derives its PRNG stream from one base seed;
   failures print the seed (rerun with AM_SEED=<n>).  Failing delivery
   schedules print a replay token (rerun with AM_SCHED=<token>). *)

module Op2 = Am_op2.Op2
module Ops = Am_ops.Ops
module Ops1 = Am_ops.Ops1
module Ops3 = Am_ops.Ops3
module Access = Am_core.Access
module Profile = Am_core.Profile
module Umesh = Am_mesh.Umesh
module Pool = Am_taskpool.Pool
module Prng = Am_util.Prng
module Fa = Am_util.Fa
module Comm = Am_simmpi.Comm
module Halo = Am_simmpi.Halo
module Schedcheck = Am_schedcheck.Schedcheck
module Airfoil = Am_airfoil.App
module Clover = Am_cloverleaf.App

let base_seed = Qcheck_util.base_seed
let failf_seed seed fmt = Qcheck_util.failf_seed seed fmt

(* ---- Result fingerprints ---- *)

type fingerprint = {
  dats : (string * float array) list;
  gbls : (string * float) list;
}

(* [tol = 0.0] demands bitwise agreement; a small tolerance absorbs
   reduction reordering across partitions. *)
let check_fingerprint ~seed ~tol ~what reference fp =
  List.iter2
    (fun (n, a) (n', b) ->
      if n <> n' then failf_seed seed "%s: dat list shape differs" what;
      if not (Fa.approx_equal ~tol a b) then
        failf_seed seed "%s: dat %s diverges (%g)" what n (Fa.rel_discrepancy a b))
    reference.dats fp.dats;
  List.iter2
    (fun (n, a) (_, b) ->
      if Float.abs (a -. b) /. (1.0 +. Float.abs a) > tol then
        failf_seed seed "%s: reduction %s diverges (%.17g vs %.17g)" what n a b)
    reference.gbls fp.gbls

(* ---- Random OP2 programs ---- *)

(* A loop chain drawn from a palette covering every communication shape the
   distributed runtime distinguishes: indirect reads (halo exchange),
   indirect Inc (halo zero + reduce), direct writes (dirtying), global
   reductions (order-insensitive Min/Max and order-sensitive Inc). *)
type step =
  | Flux of float (* edges: Read u x2, Inc du x2 *)
  | Edge_gather of float (* edges: Read u x2, direct Write ew *)
  | Edge_scatter of float (* edges: direct Read ew, Inc u x2 *)
  | Cell_update of float (* cells: Rw u, Rw du, gbl Inc *)
  | Cell_scale of float (* cells: Rw u *)
  | Minmax (* cells: Read u, gbl Min, gbl Max *)

type program = {
  nx : int;
  ny : int;
  scramble : int option;
  dim : int;
  steps : step list;
  reps : int;
}

let random_step rng =
  let c = Prng.float_range rng (-1.0) 1.0 in
  match Prng.int rng 6 with
  | 0 -> Flux c
  | 1 -> Edge_gather c
  | 2 -> Edge_scatter c
  | 3 -> Cell_update c
  | 4 -> Cell_scale c
  | _ -> Minmax

let random_program rng =
  let nx = 6 + Prng.int rng 7 and ny = 6 + Prng.int rng 7 in
  let scramble = if Prng.bool rng then Some (Prng.int rng 1000) else None in
  let dim = 1 + Prng.int rng 3 in
  let n_steps = 3 + Prng.int rng 4 in
  {
    nx;
    ny;
    scramble;
    dim;
    steps = List.init n_steps (fun _ -> random_step rng);
    reps = 2;
  }

type built = {
  ctx : Op2.ctx;
  cells : Op2.set;
  edges : Op2.set;
  e2c : Op2.map_t;
  coords : Op2.dat;
  u : Op2.dat;
  du : Op2.dat;
  ew : Op2.dat;
}

let build p =
  let mesh = Umesh.generate_square ~nx:p.nx ~ny:p.ny () in
  let mesh =
    match p.scramble with
    | Some s -> Umesh.scramble ~seed:s mesh
    | None -> mesh
  in
  let ctx = Op2.create () in
  let cells = Op2.decl_set ctx ~name:"cells" ~size:mesh.Umesh.n_cells in
  let edges = Op2.decl_set ctx ~name:"edges" ~size:mesh.Umesh.n_edges in
  let e2c =
    Op2.decl_map ctx ~name:"e2c" ~from_set:edges ~to_set:cells ~arity:2
      ~values:mesh.Umesh.edge_cells
  in
  let coords =
    Op2.decl_dat ctx ~name:"xc" ~set:cells ~dim:2 ~data:(Umesh.cell_centroids mesh)
  in
  let u =
    Op2.decl_dat ctx ~name:"u" ~set:cells ~dim:p.dim
      ~data:
        (Array.init (mesh.Umesh.n_cells * p.dim) (fun i ->
             sin (0.37 *. Float.of_int i)))
  in
  let du = Op2.decl_dat_zero ctx ~name:"du" ~set:cells ~dim:p.dim in
  let ew =
    Op2.decl_dat ctx ~name:"ew" ~set:edges ~dim:1
      ~data:(Array.init mesh.Umesh.n_edges (fun i -> cos (0.23 *. Float.of_int i)))
  in
  { ctx; cells; edges; e2c; coords; u; du; ew }

let run_program p configure =
  let b = build p in
  configure b;
  let gbls = ref [] in
  let record name v = gbls := (name, v) :: !gbls in
  for _rep = 1 to p.reps do
    List.iteri
      (fun i step ->
        let name k = Printf.sprintf "%s%d" k i in
        match step with
        | Flux c ->
          Op2.par_loop b.ctx ~name:(name "flux") b.edges
            [
              Op2.arg_dat_indirect b.u b.e2c 0 Access.Read;
              Op2.arg_dat_indirect b.u b.e2c 1 Access.Read;
              Op2.arg_dat_indirect b.du b.e2c 0 Access.Inc;
              Op2.arg_dat_indirect b.du b.e2c 1 Access.Inc;
            ]
            (fun a ->
              for d = 0 to p.dim - 1 do
                let f = c *. (a.(1).(d) -. a.(0).(d)) in
                a.(2).(d) <- a.(2).(d) +. f;
                a.(3).(d) <- a.(3).(d) -. f
              done)
        | Edge_gather c ->
          Op2.par_loop b.ctx ~name:(name "gather") b.edges
            [
              Op2.arg_dat_indirect b.u b.e2c 0 Access.Read;
              Op2.arg_dat_indirect b.u b.e2c 1 Access.Read;
              Op2.arg_dat b.ew Access.Write;
            ]
            (fun a ->
              let s = ref 0.0 in
              for d = 0 to p.dim - 1 do
                s := !s +. a.(0).(d) +. a.(1).(d)
              done;
              a.(2).(0) <- c *. !s)
        | Edge_scatter c ->
          Op2.par_loop b.ctx ~name:(name "scatter") b.edges
            [
              Op2.arg_dat b.ew Access.Read;
              Op2.arg_dat_indirect b.u b.e2c 0 Access.Inc;
              Op2.arg_dat_indirect b.u b.e2c 1 Access.Inc;
            ]
            (fun a ->
              for d = 0 to p.dim - 1 do
                a.(1).(d) <- a.(1).(d) +. (c *. a.(0).(0));
                a.(2).(d) <- a.(2).(d) -. (c *. a.(0).(0))
              done)
        | Cell_update c ->
          let tot = [| 0.0 |] in
          Op2.par_loop b.ctx ~name:(name "update") b.cells
            [
              Op2.arg_dat b.u Access.Rw;
              Op2.arg_dat b.du Access.Rw;
              Op2.arg_gbl ~name:"tot" tot Access.Inc;
            ]
            (fun a ->
              for d = 0 to p.dim - 1 do
                a.(0).(d) <- a.(0).(d) +. (c *. a.(1).(d));
                a.(2).(0) <- a.(2).(0) +. (a.(1).(d) *. a.(1).(d));
                a.(1).(d) <- 0.0
              done);
          record (name "tot") tot.(0)
        | Cell_scale c ->
          Op2.par_loop b.ctx ~name:(name "scale") b.cells
            [ Op2.arg_dat b.u Access.Rw ]
            (fun a ->
              for d = 0 to p.dim - 1 do
                a.(0).(d) <- (a.(0).(d) *. (1.0 +. (0.01 *. c))) +. (0.001 *. c)
              done)
        | Minmax ->
          let mn = [| Float.infinity |] and mx = [| Float.neg_infinity |] in
          Op2.par_loop b.ctx ~name:(name "minmax") b.cells
            [
              Op2.arg_dat b.u Access.Read;
              Op2.arg_gbl ~name:"mn" mn Access.Min;
              Op2.arg_gbl ~name:"mx" mx Access.Max;
            ]
            (fun a ->
              for d = 0 to p.dim - 1 do
                a.(1).(0) <- Float.min a.(1).(0) a.(0).(d);
                a.(2).(0) <- Float.max a.(2).(0) a.(0).(d)
              done);
          record (name "mn") mn.(0);
          record (name "mx") mx.(0))
      p.steps
  done;
  {
    dats =
      [
        ("u", Op2.fetch b.ctx b.u);
        ("du", Op2.fetch b.ctx b.du);
        ("ew", Op2.fetch b.ctx b.ew);
      ];
    gbls = List.rev !gbls;
  }

let strategies =
  [
    ("kway", fun b -> Op2.Kway_through b.e2c);
    ("rcb", fun b -> Op2.Rcb_on b.coords);
    ("block", fun b -> Op2.Block_on b.cells);
  ]

let rank_counts = Sched_util.rank_counts

let test_op2_random_differential () =
  for case = 0 to 3 do
    let seed = base_seed + case in
    let p = random_program (Prng.create seed) in
    let reference = run_program p ignore in
    List.iter
      (fun n_ranks ->
        List.iter
          (fun (sname, strat_of) ->
            let dist =
              run_program p (fun b -> Op2.partition b.ctx ~n_ranks ~strategy:(strat_of b))
            in
            check_fingerprint ~seed ~tol:1e-10
              ~what:(Printf.sprintf "case %d %s(%d) vs seq" case sname n_ranks)
              reference dist)
          strategies)
      rank_counts
  done

(* The same chains with each rank's owned range run by the shared-memory
   and the vectorised engines, the paper's hybrid modes. *)
let test_op2_random_hybrid () =
  Pool.with_pool ~size:2 (fun pool ->
      for case = 0 to 1 do
        let seed = base_seed + case in
        let p = random_program (Prng.create seed) in
        let reference = run_program p ignore in
        List.iter
          (fun (ename, exec) ->
            List.iter
              (fun n_ranks ->
                let dist =
                  run_program p (fun b ->
                      Op2.partition b.ctx ~n_ranks ~strategy:(Op2.Kway_through b.e2c);
                      Op2.set_rank_execution b.ctx exec)
                in
                check_fingerprint ~seed ~tol:1e-10
                  ~what:(Printf.sprintf "case %d kway(%d) %s ranks vs seq" case n_ranks ename)
                  reference dist)
              [ 2; 3 ])
          [
            ("shared", Op2.Rank_shared { pool; block_size = 16 });
            ("vec", Op2.Rank_vec { Am_op2.Exec_vec.width = 4 });
          ]
      done)

(* ---- Airfoil proxy ---- *)

let airfoil_mesh = Sched_util.airfoil_mesh

let run_airfoil configure =
  let t = Airfoil.create (Lazy.force airfoil_mesh) in
  configure t;
  let rms = Airfoil.run t ~iters:5 in
  (Airfoil.solution t, rms)

let airfoil_strategies =
  [
    ("kway", fun t -> Op2.Kway_through t.Airfoil.edge_cells);
    ("rcb", fun t -> Op2.Rcb_on t.Airfoil.x);
    ("block", fun t -> Op2.Block_on t.Airfoil.cells);
  ]

let test_airfoil_differential () =
  let ref_q, ref_rms = run_airfoil ignore in
  List.iter
    (fun n_ranks ->
      List.iter
        (fun (sname, strat_of) ->
          let q, rms =
            run_airfoil (fun t -> Op2.partition t.Airfoil.ctx ~n_ranks ~strategy:(strat_of t))
          in
          let what = Printf.sprintf "airfoil %s(%d)" sname n_ranks in
          if not (Fa.approx_equal ~tol:1e-10 ref_q q) then
            Alcotest.failf "%s: diverges from seq (%g)" what (Fa.rel_discrepancy ref_q q);
          if Float.abs (rms -. ref_rms) /. (1.0 +. ref_rms) > 1e-10 then
            Alcotest.failf "%s: rms diverges from seq" what)
        airfoil_strategies)
    [ 2; 3; 7 ]

(* ---- CloverLeaf proxy ---- *)

let run_clover configure =
  let t = Clover.create ~nx:12 ~ny:12 () in
  configure t.Clover.ctx;
  let s = Clover.run t ~steps:4 in
  (Clover.density t, Clover.energy t, s)

let clover_partitions ny =
  [
    ("rows(2)", fun ctx -> Ops.partition ctx ~n_ranks:2 ~ref_ysize:ny);
    ("rows(3)", fun ctx -> Ops.partition ctx ~n_ranks:3 ~ref_ysize:ny);
    ("rows(5)", fun ctx -> Ops.partition ctx ~n_ranks:5 ~ref_ysize:ny);
    ( "grid(2x2)",
      fun ctx -> Ops.partition_grid ctx ~px:2 ~py:2 ~ref_xsize:12 ~ref_ysize:ny );
    ( "grid(3x2)",
      fun ctx -> Ops.partition_grid ctx ~px:3 ~py:2 ~ref_xsize:12 ~ref_ysize:ny );
  ]

let test_cloverleaf_differential () =
  let ref_d, ref_e, ref_s = run_clover ignore in
  List.iter
    (fun (pname, part) ->
      let d, e, s = run_clover part in
      let what = Printf.sprintf "cloverleaf %s" pname in
      if not (Fa.approx_equal ~tol:1e-10 ref_d d) then
        Alcotest.failf "%s: density diverges from seq (%g)" what (Fa.rel_discrepancy ref_d d);
      if not (Fa.approx_equal ~tol:1e-10 ref_e e) then
        Alcotest.failf "%s: energy diverges from seq (%g)" what (Fa.rel_discrepancy ref_e e);
      if
        Float.abs (s.Clover.ke -. ref_s.Clover.ke) /. (1.0 +. ref_s.Clover.ke) > 1e-10
        || Float.abs (s.Clover.mass -. ref_s.Clover.mass) /. ref_s.Clover.mass > 1e-10
      then Alcotest.failf "%s: summary diverges from seq" what)
    (clover_partitions 12)

(* ---- Every decomposition: 1D cells, 3D slabs and pencils ---- *)

(* One chain, per facade: dirty u (centre Rw), spread it through a reach-2
   stencil with corners into w, then two reducing loops — "count" reads w
   and relaxes v under an Inc global whose increments are integers (so the
   sum is exact in any order), "lowest" reads v under a Min global.  Both
   read freshly written data, so both exchange. *)
let k_dirty (a : float array array) = a.(0).(0) <- (0.7 *. a.(0).(0)) +. 0.3

let k_spread (a : float array array) =
  let s = ref 0.0 in
  Array.iteri (fun i x -> s := !s +. (0.1 *. Float.of_int (i + 1) *. x)) a.(0);
  a.(1).(0) <- !s

let k_count (a : float array array) =
  let w = a.(0) in
  a.(1).(0) <- (0.5 *. a.(1).(0)) +. (0.25 *. (w.(0) +. w.(Array.length w - 1)));
  a.(2).(0) <- a.(2).(0) +. Float.round (4.0 *. a.(1).(0))

let k_lowest (a : float array array) =
  let v = a.(0) in
  a.(1).(0) <- Float.min a.(1).(0) (v.(0) -. v.(1) +. v.(Array.length v - 1))

type chain_loops = {
  dirty : unit -> unit;
  spread : unit -> unit;
  count : float array -> unit;
  lowest : float array -> unit;
  fields : unit -> (string * float array) list;
}

let run_chain loops =
  let gbls = ref [] in
  for rep = 1 to 2 do
    loops.dirty ();
    loops.spread ();
    let res = [| 0.0 |] and lo = [| Float.infinity |] in
    loops.count res;
    loops.lowest lo;
    gbls :=
      (Printf.sprintf "lowest%d" rep, lo.(0))
      :: (Printf.sprintf "count%d" rep, res.(0))
      :: !gbls
  done;
  { dats = loops.fields (); gbls = List.rev !gbls }

let chain_init x y z =
  sin ((0.3 *. Float.of_int x) +. (0.5 *. Float.of_int y) +. (0.7 *. Float.of_int z))

let chain1 configure =
  let ctx = Ops1.create () in
  let line = Ops1.decl_block ctx ~name:"line" in
  let decl name = Ops1.decl_dat ctx ~name ~block:line ~xsize:12 ~halo:2 () in
  let u = decl "u" and v = decl "v" and w = decl "w" in
  Ops1.init ctx u (fun x _ -> chain_init x 0 0);
  Ops1.init ctx v (fun x _ -> chain_init 0 x 1);
  configure ctx;
  let all = Ops1.interior u and loop = Ops1.par_loop ctx line in
  let point = Ops1.stencil_point and star = Ops1.stencil_3pt in
  run_chain
    {
      dirty =
        (fun () -> loop ~name:"dirty" all [ Ops1.arg_dat u point Access.Rw ] k_dirty);
      spread =
        (fun () ->
          loop ~name:"spread" all
            [
              Ops1.arg_dat u [| 0; -2; 1 |] Access.Read;
              Ops1.arg_dat w point Access.Write;
            ]
            k_spread);
      count =
        (fun res ->
          loop ~name:"count" all
            [
              Ops1.arg_dat w star Access.Read;
              Ops1.arg_dat v point Access.Rw;
              Ops1.arg_gbl ~name:"res" res Access.Inc;
            ]
            k_count);
      lowest =
        (fun lo ->
          loop ~name:"lowest" all
            [ Ops1.arg_dat v star Access.Read; Ops1.arg_gbl ~name:"lo" lo Access.Min ]
            k_lowest);
      fields =
        (fun () ->
          List.map
            (fun (n, d) -> (n, Ops1.fetch_interior ctx d))
            [ ("u", u); ("v", v); ("w", w) ]);
    }

let chain3 configure =
  let ctx = Ops3.create () in
  let cube = Ops3.decl_block ctx ~name:"cube" in
  let decl name =
    Ops3.decl_dat ctx ~name ~block:cube ~xsize:5 ~ysize:6 ~zsize:6 ~halo:2 ()
  in
  let u = decl "u" and v = decl "v" and w = decl "w" in
  Ops3.init ctx u (fun x y z _ -> chain_init x y z);
  Ops3.init ctx v (fun x y z _ -> chain_init z x y);
  configure ctx;
  let all = Ops3.interior u and loop = Ops3.par_loop ctx cube in
  let point = Ops3.stencil_point and star = Ops3.stencil_7pt in
  let spread =
    [| (0, 0, 0); (-2, 0, 0); (0, 2, 0); (0, 0, -2); (1, 1, 1); (-1, -1, 1); (0, -2, 2) |]
  in
  run_chain
    {
      dirty =
        (fun () -> loop ~name:"dirty" all [ Ops3.arg_dat u point Access.Rw ] k_dirty);
      spread =
        (fun () ->
          loop ~name:"spread" all
            [ Ops3.arg_dat u spread Access.Read; Ops3.arg_dat w point Access.Write ]
            k_spread);
      count =
        (fun res ->
          loop ~name:"count" all
            [
              Ops3.arg_dat w star Access.Read;
              Ops3.arg_dat v point Access.Rw;
              Ops3.arg_gbl ~name:"res" res Access.Inc;
            ]
            k_count);
      lowest =
        (fun lo ->
          loop ~name:"lowest" all
            [ Ops3.arg_dat v star Access.Read; Ops3.arg_gbl ~name:"lo" lo Access.Min ]
            k_lowest);
      fields =
        (fun () ->
          List.map
            (fun (n, d) -> (n, Ops3.fetch_interior ctx d))
            [ ("u", u); ("v", v); ("w", w) ]);
    }

(* Each shape runs unpartitioned ([false]) or partitioned ([true]). *)
let chain_shapes =
  let ops1 part partitioned = chain1 (if partitioned then part else ignore)
  and ops3 part partitioned = chain3 (if partitioned then part else ignore) in
  [
    ("cells(2)", ops1 (fun ctx -> Ops1.partition ctx ~n_ranks:2 ~ref_xsize:12));
    ("cells(3)", ops1 (fun ctx -> Ops1.partition ctx ~n_ranks:3 ~ref_xsize:12));
    ("slabs(2)", ops3 (fun ctx -> Ops3.partition ctx ~n_ranks:2 ~ref_zsize:6));
    ("slabs(3)", ops3 (fun ctx -> Ops3.partition ctx ~n_ranks:3 ~ref_zsize:6));
    ( "pencil(2x2)",
      ops3 (fun ctx -> Ops3.partition_pencil ctx ~py:2 ~pz:2 ~ref_ysize:6 ~ref_zsize:6) );
    ( "pencil(1x3)",
      ops3 (fun ctx -> Ops3.partition_pencil ctx ~py:1 ~pz:3 ~ref_ysize:6 ~ref_zsize:6) );
  ]

let test_ops_shapes_differential () =
  List.iter
    (fun (pname, run) ->
      check_fingerprint ~seed:base_seed ~tol:0.0 ~what:(pname ^ " vs seq") (run false)
        (run true))
    chain_shapes

(* ---- Schedule exploration (bounded DPOR) ---- *)

(* These used to be a hand-rolled exhaustive permutation sweep (720 orders
   at 3 ranks, silently out of reach beyond that) and a 64-trial random
   interleaving soak.  The DPOR explorer replaces both: it visits every
   Mazurkiewicz-inequivalent delivery schedule — cross-checked against
   brute-force enumeration where that is still enumerable — and each
   outcome class carries a replay token for AM_SCHED. *)

(* ---- Fresh globals per call ---- *)

(* Partitioned executors are cached per rank across calls, so each call
   must bind its own globals: read its fresh [Read] buffer and reduce into
   its fresh [Inc] one.  Integer-valued data keeps every sum exact, so
   the partitioned results equal Seq's bitwise. *)
let fresh_scales = [ 1.0; 2.0; -3.0 ]

let check_op2_sums seq dist =
  List.iteri
    (fun i (a, d) ->
      if a <> d then
        Alcotest.failf "kway(3), call %d: seq sum %.17g, partitioned %.17g" i a d)
    (List.combine seq dist)

let test_op2_fresh_globals () =
  let p = { nx = 9; ny = 8; scramble = Some 7; dim = 1; steps = []; reps = 1 } in
  let run configure =
    let b = build p in
    let n = Array.length (Op2.fetch b.ctx b.u) in
    Op2.update b.ctx b.u (Array.init n (fun i -> Float.of_int (1 + (i mod 7))));
    configure b;
    (* Two indirect reads: each partitioned call exchanges, then runs on
       each rank's cached executor. *)
    List.map
      (fun s ->
        let sum = [| 0.0 |] in
        Op2.par_loop b.ctx ~name:"edge_sum" b.edges
          [
            Op2.arg_dat_indirect b.u b.e2c 0 Access.Read;
            Op2.arg_dat_indirect b.u b.e2c 1 Access.Read;
            Op2.arg_gbl ~name:"s" [| s |] Access.Read;
            Op2.arg_gbl ~name:"sum" sum Access.Inc;
          ]
          (fun a -> a.(3).(0) <- a.(3).(0) +. (a.(2).(0) *. (a.(0).(0) +. a.(1).(0))));
        sum.(0))
      fresh_scales
  in
  check_op2_sums (run ignore)
    (run (fun b -> Op2.partition b.ctx ~n_ranks:3 ~strategy:(Op2.Kway_through b.e2c)))

(* One explicit handle serving three argument lists on 3 Kway ranks: the
   cell values through one slot of the map, then the other, then [du]
   through the first.  A partitioned call keeps its rank executors on its
   handle, so each call must find them rebuilt for its own arguments'
   shape. *)
let test_op2_handle_per_shape () =
  let p = { nx = 9; ny = 8; scramble = Some 7; dim = 1; steps = []; reps = 1 } in
  let run configure =
    let b = build p in
    let n = Array.length (Op2.fetch b.ctx b.u) in
    Op2.update b.ctx b.u (Array.init n (fun i -> Float.of_int (1 + (i mod 7))));
    Op2.update b.ctx b.du (Array.init n (fun i -> Float.of_int (2 + (i mod 5))));
    configure b;
    let handle = Op2.make_handle () in
    List.map
      (fun (d, slot) ->
        let sum = [| 0.0 |] in
        Op2.par_loop b.ctx ~name:"slot_sum" ~handle b.edges
          [ Op2.arg_dat_indirect d b.e2c slot Access.Read; Op2.arg_gbl ~name:"sum" sum Access.Inc ]
          (fun a -> a.(1).(0) <- a.(1).(0) +. a.(0).(0));
        sum.(0))
      [ (b.u, 0); (b.u, 1); (b.du, 0) ]
  in
  check_op2_sums (run ignore)
    (run (fun b -> Op2.partition b.ctx ~n_ranks:3 ~strategy:(Op2.Kway_through b.e2c)))

(* The OPS twin: Ops3 z-slabs and Ops rows, a stencil read, a fresh Read
   scale and a fresh Inc or Max reduction on every call. *)
let test_ops_fresh_globals () =
  let check what seq dist =
    List.iteri
      (fun i ((a_sum, a_max), (d_sum, d_max)) ->
        if a_sum <> d_sum || a_max <> d_max then
          Alcotest.failf "%s, call %d: seq (%.17g, %.17g), partitioned (%.17g, %.17g)" what i
            a_sum a_max d_sum d_max)
      (List.combine seq dist)
  in
  let run3 configure =
    let ctx = Ops3.create () in
    let grid = Ops3.decl_block ctx ~name:"g" in
    let u = Ops3.decl_dat ctx ~name:"u" ~block:grid ~xsize:5 ~ysize:4 ~zsize:9 ~halo:1 () in
    Ops3.init ctx u (fun x y z _ -> Float.of_int (((x + (3 * y) + (5 * z)) mod 11) - 3));
    configure ctx;
    List.map
      (fun s ->
        let sum = [| 0.0 |] and mx = [| Float.neg_infinity |] in
        let scaled name gbl access combine =
          Ops3.par_loop ctx ~name grid (Ops3.interior u)
            [
              Ops3.arg_dat u Ops3.stencil_7pt Access.Read;
              Ops3.arg_gbl ~name:"s" [| s |] Access.Read;
              Ops3.arg_gbl ~name gbl access;
            ]
            (fun a -> a.(2).(0) <- combine a.(2).(0) (a.(1).(0) *. (a.(0).(0) +. a.(0).(5) +. a.(0).(6))))
        in
        scaled "sum" sum Access.Inc ( +. );
        scaled "max" mx Access.Max Float.max;
        (sum.(0), mx.(0)))
      fresh_scales
  in
  let run2 configure =
    let ctx = Ops.create () in
    let grid = Ops.decl_block ctx ~name:"g" in
    let u = Ops.decl_dat ctx ~name:"u" ~block:grid ~xsize:6 ~ysize:9 ~halo:1 () in
    Ops.init ctx u (fun x y _ -> Float.of_int (((x + (3 * y)) mod 11) - 3));
    configure ctx;
    List.map
      (fun s ->
        let sum = [| 0.0 |] and mx = [| Float.neg_infinity |] in
        let scaled name gbl access combine =
          Ops.par_loop ctx ~name grid (Ops.interior u)
            [
              Ops.arg_dat u Ops.stencil_2d_5pt Access.Read;
              Ops.arg_gbl ~name:"s" [| s |] Access.Read;
              Ops.arg_gbl ~name gbl access;
            ]
            (fun a -> a.(2).(0) <- combine a.(2).(0) (a.(1).(0) *. (a.(0).(0) +. a.(0).(1) +. a.(0).(4))))
        in
        scaled "sum" sum Access.Inc ( +. );
        scaled "max" mx Access.Max Float.max;
        (sum.(0), mx.(0)))
      fresh_scales
  in
  check "ops3 slabs(3)" (run3 ignore)
    (run3 (fun ctx -> Ops3.partition ctx ~n_ranks:3 ~ref_zsize:9));
  check "ops rows(3)" (run2 ignore) (run2 (fun ctx -> Ops.partition ctx ~n_ranks:3 ~ref_ysize:9))

(* One explicit handle serving three argument lists on a partitioned
   context: each call must run on rank executors over its own datasets'
   windows, so the handle's per-rank executors are rechecked on every
   call. *)
let test_ops_handle_per_rank () =
  let run configure =
    let ctx = Ops.create () in
    let grid = Ops.decl_block ctx ~name:"g" in
    let decl name = Ops.decl_dat ctx ~name ~block:grid ~xsize:6 ~ysize:9 ~halo:1 () in
    let a = decl "a" and b = decl "b" and c = decl "c" in
    Ops.init ctx a (fun x y _ -> Float.of_int (x + (3 * y)));
    Ops.init ctx b (fun x y _ -> Float.of_int ((2 * x) - y));
    configure ctx;
    let handle = Ops.make_handle () in
    let shift src dst =
      Ops.par_loop ctx ~name:"shift" ~handle grid (Ops.interior a)
        [ Ops.arg_dat src Ops.stencil_2d_5pt Access.Read; Ops.arg_dat dst Ops.stencil_point Access.Write ]
        (fun x -> x.(1).(0) <- x.(0).(0) +. x.(0).(1))
    in
    shift a c;
    shift b a;
    shift c b;
    List.map (Ops.fetch_interior ctx) [ a; b; c ]
  in
  List.iter2
    (fun s d ->
      if not (Fa.approx_equal ~tol:0.0 s d) then
        Alcotest.failf "rows(3): a dataset diverges from seq (%g)" (Fa.rel_discrepancy s d))
    (run ignore)
    (run (fun ctx -> Ops.partition ctx ~n_ranks:3 ~ref_ysize:9))

let perms = Sched_util.perms

(* One halo-ring round per rank count, [ring ~n] run as a program: DPOR
   must cover exactly the classes brute force finds, in strictly fewer
   executions. *)
let dpor_vs_brute ~name ring =
  List.iter
    (fun n ->
      let what = Printf.sprintf "%s(%d)" name n in
      let prog () = ring ~n in
      let expected = prog () in
      let brute, classes = Schedcheck.brute_force ~max_executions:2000 prog in
      if brute.Schedcheck.rp_truncated then
        Alcotest.failf "%s: brute force truncated" what;
      let v, r = Sched_util.assert_uniform ~bound:6 ~what prog in
      if not (Fa.approx_equal ~tol:0.0 expected v) then
        Alcotest.failf "%s: explored schedules changed the result" what;
      if Sched_util.am_sched = None then begin
        Alcotest.(check int)
          (what ^ ": covers every inequivalent schedule")
          classes
          (Schedcheck.mazurkiewicz_classes ~dependent:Schedcheck.same_dst
             r.Schedcheck.rp_traces);
        if r.Schedcheck.rp_executions >= brute.Schedcheck.rp_executions then
          Alcotest.failf "%s: DPOR ran %d schedules, brute force only %d" what
            r.Schedcheck.rp_executions brute.Schedcheck.rp_executions
      end)
    [ 2; 3 ]

let test_dpor_ring_vs_brute () = dpor_vs_brute ~name:"ring" (Sched_util.ring_exchange 10.0)

(* The halo -> owner direction: every rank adds both neighbours'
   contributions into its owned slot, in posted order whatever the
   delivery order.  Contributions of opposite sign and 1e16 scale make a
   reordered sum visible in the bits. *)
let ring_reduce ~n =
  let comm = Comm.create ~n_ranks:n in
  let data =
    Array.init n (fun r ->
        let x = Float.of_int (r + 1) in
        [| x; 1e16 *. x; 0.5 -. (1e16 *. x) |])
  in
  Halo.reduce comm (Sched_util.ring_plan ~n) ~dim:1 data;
  if not (Comm.all_drained comm) then failwith "ring reduce left messages behind";
  Array.concat (Array.to_list data)

let test_dpor_ring_reduce_vs_brute () = dpor_vs_brute ~name:"ring reduce" ring_reduce

(* At 4 ranks the old sweep silently capped: 8 messages mean 8! = 40320
   interleavings.  Brute force is now skipped out loud, and DPOR covers
   the quotient — two conflicting messages per destination, 2^4 classes. *)
let test_dpor_ring4 () =
  print_endline
    "ring(4): brute-force cross-check skipped (8! = 40320 interleavings); \
     DPOR covers the 16-class quotient instead";
  let prog () = Sched_util.ring_exchange ~n:4 10.0 in
  let expected = prog () in
  let v, r =
    Sched_util.assert_uniform ~bound:8 ~max_executions:4000 ~what:"ring(4)" prog
  in
  if not (Fa.approx_equal ~tol:0.0 expected v) then
    Alcotest.fail "ring(4): explored schedules changed the result";
  if Sched_util.am_sched = None then
    Alcotest.(check int) "ring(4): 16 inequivalent schedules covered" 16
      (Schedcheck.mazurkiewicz_classes ~dependent:Schedcheck.same_dst
         r.Schedcheck.rp_traces)

(* Two rounds in flight on one ring (two datasets mid-exchange): every
   rank isends its slot 0 to both neighbours for [u], then for [v], posts
   the receives into its slots 1 (from the previous rank) and 2 (from the
   next) for each, and only then waits, [u]'s round first.  Every
   inequivalent interleaving within the delay bound must keep each round's
   payloads apart, because per-channel FIFO pairs messages with receives
   in posted order. *)
let test_dpor_two_rounds () =
  let n = 3 in
  let post comm data =
    for r = 0 to n - 1 do
      ignore (Comm.isend comm ~src:r ~dst:((r + 1) mod n) [| data.(r).(0) |]);
      ignore (Comm.isend comm ~src:r ~dst:((r + n - 1) mod n) [| data.(r).(0) |])
    done;
    List.concat_map
      (fun r ->
        let prev = Comm.irecv comm ~src:((r + n - 1) mod n) ~dst:r in
        let next = Comm.irecv comm ~src:((r + 1) mod n) ~dst:r in
        [ (r, 1, prev); (r, 2, next) ])
      (List.init n Fun.id)
  in
  let finish comm data =
    List.iter (fun (r, slot, req) -> data.(r).(slot) <- (Comm.wait comm req).(0))
  in
  let prog () =
    let comm = Comm.create ~n_ranks:n in
    let u = Sched_util.ring_data ~n 10.0 and v = Sched_util.ring_data ~n 100.0 in
    let u_recvs = post comm u in
    let v_recvs = post comm v in
    finish comm u u_recvs;
    finish comm v v_recvs;
    if not (Comm.all_drained comm) then failwith "messages left behind";
    Array.concat (Array.to_list u @ Array.to_list v)
  in
  let expected = prog () in
  let v, r =
    Sched_util.assert_uniform ~bound:2 ~max_executions:4000 ~what:"two rounds" prog
  in
  if not (Fa.approx_equal ~tol:0.0 expected v) then
    Alcotest.fail "two rounds: explored schedules changed the result";
  if Sched_util.am_sched = None then begin
    Alcotest.(check bool) "explored beyond the default schedule" true
      (r.Schedcheck.rp_executions > 1);
    (* every witness token replays to the same bits *)
    List.iter
      (fun (c : _ Schedcheck.cls) ->
        let replayed = Schedcheck.replay ~token:c.Schedcheck.cls_token prog in
        if not (Fa.approx_equal ~tol:0.0 expected replayed) then
          Alcotest.failf "token %s did not replay bitwise" c.Schedcheck.cls_token)
      r.Schedcheck.rp_classes
  end

(* A small partitioned OP2 program under DPOR: delivery order of the real
   runtime's halo and reduction messages must never leak into results. *)
let test_dpor_op2 () =
  let p =
    {
      nx = 6;
      ny = 6;
      scramble = None;
      dim = 1;
      steps = [ Flux 0.5; Cell_update 0.3; Minmax ];
      reps = 1;
    }
  in
  List.iter
    (fun n_ranks ->
      let what = Printf.sprintf "op2 kway(%d)" n_ranks in
      let prog () =
        run_program p (fun b -> Op2.partition b.ctx ~n_ranks ~strategy:(Op2.Kway_through b.e2c))
      in
      let baseline = prog () in
      let v, r =
        Sched_util.assert_uniform ~bound:2 ~max_executions:3000 ~what prog
      in
      check_fingerprint ~seed:base_seed ~tol:0.0 ~what baseline v;
      (* At 2 ranks every message pair targets distinct destinations, so a
         single schedule legitimately covers the quotient; at 3 ranks some
         rank receives from two peers and real alternatives must exist. *)
      if Sched_util.am_sched = None && n_ranks >= 3 then
        Alcotest.(check bool) (what ^ ": explored beyond the default") true
          (r.Schedcheck.rp_executions > 1))
    [ 2; 3 ]

(* Waiting requests in any cross-channel order assigns each its own
   channel's payload; waitall is just as deterministic. *)
let test_wait_order_across_channels () =
  let payload i = [| Float.of_int i; Float.of_int (i * i) |] in
  List.iter
    (fun order ->
      let comm = Comm.create ~n_ranks:4 in
      for src = 1 to 3 do
        ignore (Comm.isend comm ~src ~dst:0 (payload src))
      done;
      let reqs = Array.init 3 (fun i -> Comm.irecv comm ~src:(i + 1) ~dst:0) in
      List.iter
        (fun i ->
          let got = Comm.wait comm reqs.(i) in
          if not (Fa.approx_equal ~tol:0.0 (payload (i + 1)) got) then
            Alcotest.failf "wait order mixed up channels")
        order;
      if not (Comm.all_drained comm) then Alcotest.fail "messages left behind")
    (perms [ 0; 1; 2 ]);
  (* waitall over sends and receives together, then inspect payloads *)
  let comm = Comm.create ~n_ranks:4 in
  let sends =
    List.map (fun src -> Comm.isend comm ~src ~dst:0 (payload src)) [ 1; 2; 3 ]
  in
  let recvs = List.map (fun src -> Comm.irecv comm ~src ~dst:0) [ 1; 2; 3 ] in
  Comm.waitall comm (sends @ recvs);
  List.iteri
    (fun i r ->
      match Comm.request_payload r with
      | Some got ->
        if not (Fa.approx_equal ~tol:0.0 (payload (i + 1)) got) then
          Alcotest.fail "waitall mixed up channels"
      | None -> Alcotest.fail "waitall left a receive incomplete")
    recvs

(* A receive that can never complete must raise the simulated-deadlock
   [Failure] immediately — even when unrelated traffic is in flight. *)
let test_wait_deadlock_fails_fast () =
  let comm = Comm.create ~n_ranks:2 in
  let r = Comm.irecv comm ~src:1 ~dst:0 in
  (match Comm.wait comm r with
  | exception Failure msg ->
    Alcotest.(check bool) "mentions deadlock" true (Str_contains.contains msg "deadlock")
  | _ -> Alcotest.fail "expected Failure");
  let comm = Comm.create ~n_ranks:3 in
  ignore (Comm.isend comm ~src:2 ~dst:0 [| 1.0 |]);
  let r = Comm.irecv comm ~src:1 ~dst:0 in
  (match Comm.wait comm r with
  | exception Failure msg ->
    Alcotest.(check bool) "mentions deadlock" true (Str_contains.contains msg "deadlock")
  | _ -> Alcotest.fail "expected Failure");
  Comm.deliver_channel comm ~src:2 ~dst:0

(* A halo plan whose import lists don't match the peer's export lists is
   rejected at construction: deadlocking plans are unrepresentable. *)
let test_deadlocking_plan_unrepresentable () =
  let n = 2 in
  let exports = Array.init n (fun _ -> Array.make n [||]) in
  let imports = Array.init n (fun _ -> Array.make n [||]) in
  imports.(0).(1) <- [| 1 |];
  match Halo.create ~n_ranks:n ~exports ~imports with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* [Halo.exchange] and [Halo.reduce] post every message of their round
   before they wait on any: at the first delivery a wait asks for, every
   channel of the ring plan carries its message. *)
let test_post_before_wait () =
  let n = 3 in
  List.iter
    (fun (what, round) ->
      let first = ref None in
      let chooser ~needed ~enabled =
        if !first = None then first := Some (List.length enabled);
        needed
      in
      Comm.set_chooser (Some chooser);
      Fun.protect
        ~finally:(fun () -> Comm.set_chooser None)
        (fun () ->
          round (Comm.create ~n_ranks:n) (Sched_util.ring_plan ~n) (Sched_util.ring_data ~n 1.0));
      Alcotest.(check (option int)) (what ^ ": every message in flight at the first wait")
        (Some (2 * n)) !first)
    [
      ("exchange", fun comm plan data -> Halo.exchange comm plan ~dim:1 data);
      ("reduce", fun comm plan data -> Halo.reduce comm plan ~dim:1 data);
    ]

(* ---- Halo-freshness invariants ---- *)

(* The eager and on-demand policies must be bitwise interchangeable on
   chains interleaving indirect reads, Inc accumulations and direct
   writes, which exercise every dirty-bit transition. *)
let freshness_chain rng =
  let c () = Prng.float_range rng (-1.0) 1.0 in
  {
    nx = 8 + Prng.int rng 4;
    ny = 8 + Prng.int rng 4;
    scramble = None;
    dim = 1 + Prng.int rng 2;
    steps =
      [
        Flux (c ());
        Cell_update (c ());
        Cell_scale (c ());
        Edge_gather (c ());
        Flux (c ());
        Edge_scatter (c ());
        Minmax;
      ];
    reps = 2;
  }

let test_op2_halo_freshness () =
  for case = 0 to 2 do
    let seed = base_seed + 100 + case in
    let p = freshness_chain (Prng.create seed) in
    let run policy =
      run_program p (fun b ->
          Op2.partition b.ctx ~n_ranks:3 ~strategy:(Op2.Kway_through b.e2c);
          Op2.set_halo_policy b.ctx policy)
    in
    check_fingerprint ~seed ~tol:0.0
      ~what:(Printf.sprintf "case %d eager vs on-demand" case)
      (run Op2.On_demand) (run Op2.Eager)
  done

let ops_tri_stencil : Ops.stencil = [| (0, 0); (1, 0); (0, 1) |]

let run_ops_chain ?(reps = 3) configure =
  let nx = 14 and ny = 10 in
  let ctx = Ops.create () in
  let grid = Ops.decl_block ctx ~name:"grid" in
  let u = Ops.decl_dat ctx ~name:"u" ~block:grid ~xsize:nx ~ysize:ny ~halo:2 () in
  let w = Ops.decl_dat ctx ~name:"w" ~block:grid ~xsize:nx ~ysize:ny ~halo:2 () in
  Ops.init ctx u (fun x y _ -> sin (0.3 *. Float.of_int x) +. cos (0.2 *. Float.of_int y));
  Ops.init ctx w (fun _ _ _ -> 0.0);
  configure ctx;
  let interior = Ops.interior u in
  let total = ref 0.0 in
  for _ = 1 to reps do
    Ops.par_loop ctx ~name:"stencil" grid interior
      [
        Ops.arg_dat u Ops.stencil_2d_5pt Access.Read;
        Ops.arg_dat w Ops.stencil_point Access.Write;
      ]
      (fun a ->
        a.(1).(0) <-
          a.(0).(0)
          +. (0.1 *. (a.(0).(1) +. a.(0).(2) +. a.(0).(3) +. a.(0).(4) -. (4.0 *. a.(0).(0)))));
    (* direct write dirties u's ghost rows *)
    Ops.par_loop ctx ~name:"dirty" grid interior
      [ Ops.arg_dat u Ops.stencil_point Access.Rw ]
      (fun a -> a.(0).(0) <- (0.7 *. a.(0).(0)) +. 0.3);
    let res = [| 0.0 |] in
    Ops.par_loop ctx ~name:"relax" grid interior
      [
        Ops.arg_dat u ops_tri_stencil Access.Read;
        Ops.arg_dat w Ops.stencil_point Access.Rw;
        Ops.arg_gbl ~name:"res" res Access.Inc;
      ]
      (fun a ->
        a.(1).(0) <- a.(1).(0) +. (0.2 *. (a.(0).(1) +. a.(0).(2) -. (2.0 *. a.(0).(0))));
        res.(0) <- res.(0) +. (a.(1).(0) *. a.(1).(0)));
    total := !total +. res.(0)
  done;
  (Ops.fetch_interior ctx u, Ops.fetch_interior ctx w, !total)

let test_ops_halo_freshness () =
  let ref_u, ref_w, ref_t = run_ops_chain ignore in
  List.iter
    (fun (pname, part) ->
      let run policy =
        run_ops_chain (fun ctx ->
            part ctx;
            Ops.set_halo_policy ctx policy)
      in
      let bu, bw, bt = run Ops.On_demand and u, w, t = run Ops.Eager in
      if not (Fa.approx_equal ~tol:1e-10 ref_u bu && Fa.approx_equal ~tol:1e-10 ref_w bw) then
        Alcotest.failf "%s: fields diverge from seq" pname;
      if Float.abs (bt -. ref_t) /. (1.0 +. ref_t) > 1e-10 then
        Alcotest.failf "%s: reduction diverges from seq" pname;
      if not (Fa.approx_equal ~tol:0.0 bu u && Fa.approx_equal ~tol:0.0 bw w && bt = t) then
        Alcotest.failf "%s: eager not bitwise equal to on-demand" pname)
    [
      ("rows(3)", fun ctx -> Ops.partition ctx ~n_ranks:3 ~ref_ysize:10);
      ( "grid(2x2)",
        fun ctx -> Ops.partition_grid ctx ~px:2 ~py:2 ~ref_xsize:14 ~ref_ysize:10 );
    ]

(* The 1D facade's policy, on the cells chain above. *)
let test_ops1_halo_freshness () =
  let run policy =
    chain1 (fun ctx ->
        Ops1.partition ctx ~n_ranks:3 ~ref_xsize:12;
        Ops1.set_halo_policy ctx policy)
  in
  check_fingerprint ~seed:base_seed ~tol:0.0 ~what:"cells(3) eager vs on-demand"
    (run Ops1.On_demand) (run Ops1.Eager)

(* The chain above as a small partitioned OPS program under DPOR, on a
   3x2 process grid: each ghost exchange runs an x phase, in which a middle
   rank receives from both sides, then a y phase that carries the corners
   the x phase filled. *)
let test_dpor_ops_grid () =
  let what = "ops grid(3x2)" in
  let prog () =
    let u, w, total =
      run_ops_chain ~reps:1 (fun ctx ->
          Ops.partition_grid ctx ~px:3 ~py:2 ~ref_xsize:14 ~ref_ysize:10)
    in
    Array.concat [ u; w; [| total |] ]
  in
  let baseline = prog () in
  let v, r = Sched_util.assert_uniform ~bound:2 ~max_executions:3000 ~what prog in
  if not (Fa.approx_equal ~tol:0.0 baseline v) then
    Alcotest.failf "%s: explored schedules changed the result" what;
  if Sched_util.am_sched = None then
    Alcotest.(check bool) (what ^ ": explored beyond the default") true
      (r.Schedcheck.rp_executions > 1)

(* ---- Profile accounting ---- *)

(* A partitioned run profiles the time its loops spent on halos, and the
   report renders it. *)
let check_halo_profile what profile =
  Alcotest.(check bool) (what ^ ": records halo time") true
    (Profile.total_halo_seconds profile > 0.0);
  Alcotest.(check bool) (what ^ ": report renders the halo column") true
    (Str_contains.contains (Profile.report profile) "halo time")

let test_op2_halo_profile () =
  let t = Airfoil.create (Umesh.generate_airfoil ~nx:64 ~ny:48 ()) in
  Op2.partition t.Airfoil.ctx ~n_ranks:4 ~strategy:(Op2.Kway_through t.Airfoil.edge_cells);
  ignore (Airfoil.run t ~iters:5);
  check_halo_profile "airfoil kway(4)" (Op2.profile t.Airfoil.ctx)

let test_ops_halo_profile () =
  let t = Clover.create ~nx:32 ~ny:32 () in
  Ops.partition t.Clover.ctx ~n_ranks:4 ~ref_ysize:32;
  ignore (Clover.run t ~steps:3);
  check_halo_profile "cloverleaf rows(4)" (Ops.profile t.Clover.ctx)

(* A loop that reads no halo but increments one still moves data: zeroing
   the halo slots and reducing them onto their owners is its halo time. *)
let test_reduce_only_halo_time () =
  let p =
    { nx = 24; ny = 24; scramble = None; dim = 2; steps = [ Edge_scatter 0.5 ]; reps = 10 }
  in
  let ctx = ref None in
  ignore
    (run_program p (fun b ->
         Op2.partition b.ctx ~n_ranks:4 ~strategy:(Op2.Kway_through b.e2c);
         ctx := Some b.ctx));
  match Profile.find (Op2.profile (Option.get !ctx)) "scatter0" with
  | Some e ->
    Alcotest.(check bool) "scatter0 records halo time" true (e.Profile.halo_seconds > 0.0)
  | None -> Alcotest.fail "scatter0 was not profiled"

let () =
  Alcotest.run "dist"
    [
      ( "differential",
        [
          Alcotest.test_case "random OP2 chains: dist == seq" `Quick
            test_op2_random_differential;
          Alcotest.test_case "random OP2 chains: shared and vec ranks == seq" `Quick
            test_op2_random_hybrid;
          Alcotest.test_case "airfoil: 3 partitioners x 3 rank counts" `Quick
            test_airfoil_differential;
          Alcotest.test_case "cloverleaf: rows + grid decompositions" `Quick
            test_cloverleaf_differential;
          Alcotest.test_case "cells, slabs, pencils: dist == seq" `Quick
            test_ops_shapes_differential;
          Alcotest.test_case "OP2 fresh globals per call: kway(3) == seq" `Quick
            test_op2_fresh_globals;
          Alcotest.test_case "OPS fresh globals per call: slabs, rows == seq" `Quick
            test_ops_fresh_globals;
          Alcotest.test_case "OPS one handle, three argument lists: rows == seq" `Quick
            test_ops_handle_per_rank;
          Alcotest.test_case "OP2 one handle, three argument lists: kway(3) == seq" `Quick
            test_op2_handle_per_shape;
        ] );
      ( "dpor",
        [
          Alcotest.test_case "ring exchange vs brute force, ranks 2-3" `Quick
            test_dpor_ring_vs_brute;
          Alcotest.test_case "ring reduce vs brute force, ranks 2-3" `Quick
            test_dpor_ring_reduce_vs_brute;
          Alcotest.test_case "ring(4): quotient coverage, brute skipped" `Quick
            test_dpor_ring4;
          Alcotest.test_case "two rounds on one ring, replayable witnesses" `Quick
            test_dpor_two_rounds;
          Alcotest.test_case "OP2 program, ranks 2-3" `Quick test_dpor_op2;
          Alcotest.test_case "OPS program on a 3x2 grid" `Quick test_dpor_ops_grid;
        ] );
      ( "schedule exploration",
        [
          Alcotest.test_case "wait order across channels" `Quick
            test_wait_order_across_channels;
          Alcotest.test_case "deadlock fails fast" `Quick test_wait_deadlock_fails_fast;
          Alcotest.test_case "deadlocking plans unrepresentable" `Quick
            test_deadlocking_plan_unrepresentable;
          Alcotest.test_case "exchange and reduce post before they wait" `Quick
            test_post_before_wait;
        ] );
      ( "halo freshness",
        [
          Alcotest.test_case "OP2: eager == on-demand bitwise" `Quick test_op2_halo_freshness;
          Alcotest.test_case "OPS: eager == on-demand bitwise" `Quick test_ops_halo_freshness;
          Alcotest.test_case "Ops1: eager == on-demand bitwise" `Quick test_ops1_halo_freshness;
        ] );
      ( "profiling",
        [
          Alcotest.test_case "OP2 halo seconds recorded" `Quick test_op2_halo_profile;
          Alcotest.test_case "OPS halo seconds recorded" `Quick test_ops_halo_profile;
          Alcotest.test_case "a reduce-only loop records halo time" `Quick
            test_reduce_only_halo_time;
        ] );
    ]

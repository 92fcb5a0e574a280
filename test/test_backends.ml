(* Differential backend-equivalence tests.

   Every single-process backend must produce the same numbers as the
   sequential reference on identically seeded data: one Airfoil iteration
   through OP2 (Seq / Shared / Vec / Cuda_sim in all three memory
   strategies) and one CloverLeaf hydro step through OPS (Seq / Shared /
   Cuda_sim, both strategies).  Comparison is epsilon-relative, not
   bitwise: the parallel backends reassociate [Inc] reductions, so the
   last few ulps may legitimately differ.

   The accessor-kernel group holds both kernel forms to the same bits on
   every backend, Airfoil and Hydra, single-process and distributed; the
   OPS group does the same for CloverLeaf (Seq = Check, and every 2D
   backend, partitioning included) and for a synthetic loop set covering
   what CloverLeaf does not.  Seeded random OPS loop programs must match
   Seq on every 2D configuration.

   Also unit tests of the plan-handle executor cache: two call sites with
   the same loop signature share one plan entry and one compiled executor;
   a different block size or access descriptor resolves a distinct entry;
   invalidation and dataset replacement recompile. *)

module Op2 = Am_op2.Op2
module Plan = Am_op2.Plan
module Ops = Am_ops.Ops
module Access = Am_core.Access
module App = Am_airfoil.App
module CApp = Am_cloverleaf.App
module Umesh = Am_mesh.Umesh
module Fa = Am_util.Fa
module Pool = Am_taskpool.Pool

let eps = 1e-10

(* Deterministic "random" perturbation (no global RNG state): a cheap LCG
   so every backend sees byte-identical initial data. *)
let lcg_fill = Qcheck_util.lcg_fill

(* ---- Airfoil: one OP2 iteration per backend ------------------------------ *)

let airfoil_mesh = lazy (Umesh.generate_airfoil ~nx:24 ~ny:16 ())

(* Seed the conservative variables away from free stream so indirect
   increments are non-trivial, run exactly one iteration, return state. *)
let airfoil_state backend =
  let t = App.create (Lazy.force airfoil_mesh) in
  let q = Op2.fetch t.App.ctx t.App.q in
  lcg_fill 42 q ~scale:1e-3;
  Op2.update t.App.ctx t.App.q q;
  Op2.set_backend t.App.ctx backend;
  let rms = App.iteration t in
  (App.solution t, rms)

let airfoil_reference = lazy (airfoil_state Op2.Seq)

let check_airfoil name backend =
  let ref_sol, ref_rms = Lazy.force airfoil_reference in
  let sol, rms = airfoil_state backend in
  if not (Fa.approx_equal ~tol:eps ref_sol sol) then
    Alcotest.failf "%s: airfoil state diverges from seq (%g)" name
      (Fa.rel_discrepancy ref_sol sol);
  if Float.abs (rms -. ref_rms) /. (1.0 +. ref_rms) > eps then
    Alcotest.failf "%s: airfoil rms diverges (%.17g vs %.17g)" name rms ref_rms

let test_airfoil_shared () =
  Pool.with_pool ~size:4 (fun pool ->
      check_airfoil "shared" (Op2.Shared { pool; block_size = 48 }))

let test_airfoil_vec () =
  check_airfoil "vec" (Op2.Vec { Am_op2.Exec_vec.width = 4 })

let test_airfoil_cuda () =
  List.iter
    (fun strategy ->
      check_airfoil "cuda_sim"
        (Op2.Cuda_sim { Am_op2.Exec_cuda.block_size = 48; strategy }))
    [ Am_op2.Exec_cuda.Global_aos; Am_op2.Exec_cuda.Global_soa;
      Am_op2.Exec_cuda.Staged ]

(* ---- CloverLeaf: one OPS hydro step per backend -------------------------- *)

(* The standard energetic-corner state plus a deterministic interior
   perturbation so the step exercises asymmetric fluxes everywhere. *)
let seed_clover t =
  let bump dat seed =
    Ops.init t.CApp.ctx dat (fun x y _ ->
        let base = Ops.get dat ~x ~y ~c:0 in
        let h = ((x * 73) + (y * 179) + seed) land 0xFF in
        base *. (1.0 +. (1e-3 *. (Float.of_int h /. 255.0 -. 0.5))))
  in
  bump t.CApp.density0 7;
  bump t.CApp.energy0 13

let clover_state backend =
  let t = CApp.create ?backend ~nx:20 ~ny:20 () in
  seed_clover t;
  ignore (CApp.hydro_step t);
  (CApp.density t, CApp.energy t, CApp.xvel t, t.CApp.dt)

let clover_reference = lazy (clover_state None)

let check_clover name backend =
  let rd, re, rv, rdt = Lazy.force clover_reference in
  let d, e, v, dt = clover_state (Some backend) in
  if Float.abs (dt -. rdt) /. (1.0 +. rdt) > eps then
    Alcotest.failf "%s: clover dt diverges (%.17g vs %.17g)" name dt rdt;
  List.iter
    (fun (field, got, want) ->
      if not (Fa.approx_equal ~tol:eps want got) then
        Alcotest.failf "%s: clover %s diverges from seq (%g)" name field
          (Fa.rel_discrepancy want got))
    [ ("density", d, rd); ("energy", e, re); ("xvel", v, rv) ]

let test_clover_shared () =
  Pool.with_pool ~size:4 (fun pool -> check_clover "shared" (Ops.Shared { pool }))

let test_clover_cuda () =
  List.iter
    (fun strategy ->
      check_clover "cuda_sim"
        (Ops.Cuda_sim { Am_ops.Exec.tile_x = 8; tile_y = 4; strategy }))
    [ Am_ops.Exec.Cuda_global; Am_ops.Exec.Cuda_tiled ]

(* ---- Accessor kernels against staged kernels ----------------------------- *)

(* The same kernel arithmetic through the two entry points must agree to
   the bit on every backend: in-place addressing changes where a kernel
   reads and writes, never the order of operations, and Inc arguments keep
   their zeroed scratch under both.  Each configuration runs two seeded
   iterations with accessor kernels ([Op2.par_loop_acc], as the apps do)
   and with staged kernels, and compares the two bitwise ([check_forms]
   has the one exception); the accessor state must also match staged Seq
   within the reassociation tolerance. *)

module K = Am_airfoil.Kernels
module HApp = Am_hydra.App

type config =
  | On of Op2.backend
  | Soa_then_seq  (* a Cuda_sim Global_soa iteration, then Seq on the SoA dats *)
  | Dist of { ranks : int; overlap : bool }

let config_name = function
  | On Op2.Seq -> "seq"
  | On (Op2.Vec _) -> "vec"
  | On (Op2.Shared _) -> "shared"
  | On (Op2.Cuda_sim c) -> "cuda " ^ Am_op2.Exec_cuda.strategy_to_string c.Am_op2.Exec_cuda.strategy
  | On Op2.Check -> "check"
  | Soa_then_seq -> "cuda SOA then seq"
  | Dist { ranks; overlap } ->
    Printf.sprintf "dist %d ranks%s" ranks (if overlap then " overlap" else "")

let configs pool =
  let cuda strategy = On (Op2.Cuda_sim { Am_op2.Exec_cuda.block_size = 48; strategy }) in
  [
    On Op2.Seq;
    On (Op2.Vec { Am_op2.Exec_vec.width = 4 });
    On (Op2.Shared { pool; block_size = 48 });
    cuda Am_op2.Exec_cuda.Global_aos;
    cuda Am_op2.Exec_cuda.Global_soa;
    cuda Am_op2.Exec_cuda.Staged;
    Soa_then_seq;
    On Op2.Check;
  ]
  @ List.concat_map
      (fun ranks -> [ Dist { ranks; overlap = false }; Dist { ranks; overlap = true } ])
      [ 1; 2; 3; 7 ]

(* Put [ctx] on [cfg] before iteration [i] (1-based). *)
let enter_config ctx ~partition cfg i =
  match (cfg, i) with
  | On b, 1 -> Op2.set_backend ctx b
  | Soa_then_seq, 1 ->
    Op2.set_backend ctx
      (Op2.Cuda_sim { Am_op2.Exec_cuda.block_size = 48; strategy = Am_op2.Exec_cuda.Global_soa })
  | Soa_then_seq, 2 -> Op2.set_backend ctx Op2.Seq
  | Dist { ranks; overlap }, 1 ->
    partition ranks;
    if overlap then Op2.set_comm_mode ctx Op2.Overlap
  | (On _ | Soa_then_seq | Dist _), _ -> ()

let bitwise a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let close a b = Float.abs (a -. b) <= eps *. (1.0 +. Float.abs b)

(* Datasets must agree to the bit.  So must a global Inc reduction, except
   on Shared: there each worker's partial sum covers whichever chunks it
   took, so the merge reassociates from run to run under either form. *)
let check_forms ?(against = "staged kernels") ~app ~reference cfg ~acc ~staged =
  let name = Printf.sprintf "%s %s" app (config_name cfg) in
  let (state, rms), (state', rms') = (acc, staged) in
  let same_rms =
    match cfg with
    | On (Op2.Shared _) -> close rms rms'
    | On _ | Soa_then_seq | Dist _ -> bitwise [| rms |] [| rms' |]
  in
  if not (bitwise state state' && same_rms) then
    Alcotest.failf "%s: accessor kernels differ from %s (%g, rms %.17g vs %.17g)" name
      against (Fa.rel_discrepancy state' state) rms rms';
  let ref_state, ref_rms = reference in
  if not (Fa.approx_equal ~tol:eps ref_state state && close rms ref_rms) then
    Alcotest.failf "%s: diverges from staged seq (%g)" name
      (Fa.rel_discrepancy ref_state state)

(* Airfoil's iteration restated through the staged entry point with the
   kernels' staged adapters, on the app's own handles: one handle serves
   both entry points. *)
let airfoil_staged_iteration (t : App.t) =
  let loop name info handle set args kernel =
    Op2.par_loop t.App.ctx ~name ~info ~handle set args kernel
  in
  loop "save_soln" K.save_soln_info t.App.h_save_soln t.App.cells
    [ Op2.arg_dat t.App.q Access.Read; Op2.arg_dat t.App.qold Access.Write ]
    K.save_soln;
  for _ = 1 to 2 do
    loop "adt_calc" K.adt_calc_info t.App.h_adt_calc t.App.cells
      [
        Op2.arg_dat_indirect t.App.x t.App.cell_nodes 0 Access.Read;
        Op2.arg_dat_indirect t.App.x t.App.cell_nodes 1 Access.Read;
        Op2.arg_dat_indirect t.App.x t.App.cell_nodes 2 Access.Read;
        Op2.arg_dat_indirect t.App.x t.App.cell_nodes 3 Access.Read;
        Op2.arg_dat t.App.q Access.Read;
        Op2.arg_dat t.App.adt Access.Write;
      ]
      K.adt_calc;
    loop "res_calc" K.res_calc_info t.App.h_res_calc t.App.edges
      [
        Op2.arg_dat_indirect t.App.x t.App.edge_nodes 0 Access.Read;
        Op2.arg_dat_indirect t.App.x t.App.edge_nodes 1 Access.Read;
        Op2.arg_dat_indirect t.App.q t.App.edge_cells 0 Access.Read;
        Op2.arg_dat_indirect t.App.q t.App.edge_cells 1 Access.Read;
        Op2.arg_dat_indirect t.App.adt t.App.edge_cells 0 Access.Read;
        Op2.arg_dat_indirect t.App.adt t.App.edge_cells 1 Access.Read;
        Op2.arg_dat_indirect t.App.res t.App.edge_cells 0 Access.Inc;
        Op2.arg_dat_indirect t.App.res t.App.edge_cells 1 Access.Inc;
      ]
      K.res_calc;
    loop "bres_calc" K.bres_calc_info t.App.h_bres_calc t.App.bedges
      [
        Op2.arg_dat_indirect t.App.x t.App.bedge_nodes 0 Access.Read;
        Op2.arg_dat_indirect t.App.x t.App.bedge_nodes 1 Access.Read;
        Op2.arg_dat_indirect t.App.q t.App.bedge_cell 0 Access.Read;
        Op2.arg_dat_indirect t.App.adt t.App.bedge_cell 0 Access.Read;
        Op2.arg_dat_indirect t.App.res t.App.bedge_cell 0 Access.Inc;
        Op2.arg_dat t.App.bound Access.Read;
      ]
      K.bres_calc;
    t.App.rms_buf.(0) <- 0.0;
    loop "update" K.update_info t.App.h_update t.App.cells
      [
        Op2.arg_dat t.App.qold Access.Read;
        Op2.arg_dat t.App.q Access.Write;
        Op2.arg_dat t.App.res Access.Rw;
        Op2.arg_dat t.App.adt Access.Read;
        Op2.arg_gbl ~name:"rms" t.App.rms_buf Access.Inc;
      ]
      K.update
  done

(* Final q and rms of [iters] seeded Airfoil iterations on [cfg]. *)
let airfoil_forms ?(mesh = airfoil_mesh) ?(iters = 2) ~staged cfg =
  let t = App.create (Lazy.force mesh) in
  let q = Op2.fetch t.App.ctx t.App.q in
  lcg_fill 42 q ~scale:1e-3;
  Op2.update t.App.ctx t.App.q q;
  let partition n_ranks =
    Op2.partition t.App.ctx ~n_ranks ~strategy:(Op2.Kway_through t.App.edge_cells)
  in
  for i = 1 to iters do
    enter_config t.App.ctx ~partition cfg i;
    if staged then airfoil_staged_iteration t else ignore (App.iteration t)
  done;
  (App.solution t, t.App.rms_buf.(0))

let test_airfoil_forms () =
  Pool.with_pool ~size:2 (fun pool ->
      let reference = airfoil_forms ~staged:true (On Op2.Seq) in
      List.iter
        (fun cfg ->
          check_forms ~app:"airfoil" ~reference cfg
            ~acc:(airfoil_forms ~staged:false cfg)
            ~staged:(airfoil_forms ~staged:true cfg))
        (configs pool))

(* Final q and rms of two seeded Hydra iterations on [cfg].  Hydra has no staged
   twin of its loop list; its staged form is the same kernels with every
   argument staged, which SoA datasets force (each dat gathered into a
   buffer, the kernel run over base-0 accessors, results scattered back —
   exactly what [Op2.Acc.staged] does).  The distributed runtime takes
   only AoS datasets, so its staged run is the in-place one and the check
   reduces to agreement with staged Seq, plus blocking = overlap. *)
let hydra_forms ~staged cfg =
  let t = HApp.create ~nx:16 ~ny:12 () in
  if staged then List.iter (fun d -> Op2.convert_layout t.HApp.ctx d Op2.Soa) (Op2.dats t.HApp.ctx);
  let partition n_ranks =
    Op2.partition t.HApp.ctx ~n_ranks ~strategy:(Op2.Kway_through t.HApp.edge_cells)
  in
  let rms = ref 0.0 in
  for i = 1 to 2 do
    enter_config t.HApp.ctx ~partition cfg i;
    rms := HApp.iteration t
  done;
  (HApp.solution t, !rms)

let test_hydra_forms () =
  Pool.with_pool ~size:2 (fun pool ->
      let reference = hydra_forms ~staged:true (On Op2.Seq) in
      List.iter
        (fun cfg ->
          let acc = hydra_forms ~staged:false cfg in
          match cfg with
          | Dist d ->
            check_forms ~against:"the other comm mode" ~app:"hydra" ~reference cfg ~acc
              ~staged:(hydra_forms ~staged:false (Dist { d with overlap = not d.overlap }))
          | On _ | Soa_then_seq ->
            check_forms ~app:"hydra" ~reference cfg ~acc ~staged:(hydra_forms ~staged:true cfg))
        (configs pool))

(* Seq with accessor kernels against the Check sanitizer, to the bit:
   Airfoil on the benchmark mesh for 20 iterations, Hydra for two. *)
let test_seq_equals_check () =
  let mesh = lazy (Umesh.generate_airfoil ~nx:120 ~ny:80 ()) in
  List.iter
    (fun (app, run) ->
      let state, rms = run (On Op2.Seq) and state', rms' = run (On Op2.Check) in
      if not (bitwise (Array.append state [| rms |]) (Array.append state' [| rms' |])) then
        Alcotest.failf "%s: seq accessor kernels differ from check" app)
    [
      ("airfoil", airfoil_forms ~mesh ~iters:20 ~staged:false);
      ("hydra", hydra_forms ~staged:false);
    ]

(* A dataset both read (through an identity map) and written (directly) by
   one loop: in place, the kernel's first write would show through the Read
   accessor, so both arguments must stay staged and the accessor form must
   still compute old + 1. *)
let test_aliased_args_staged () =
  let run acc =
    let ctx = Op2.create () in
    let cells = Op2.decl_set ctx ~name:"cells" ~size:6 in
    let id =
      Op2.decl_map ctx ~name:"id" ~from_set:cells ~to_set:cells ~arity:1
        ~values:(Array.init 6 Fun.id)
    in
    let d = Op2.decl_dat ctx ~name:"d" ~set:cells ~dim:1 ~data:(Array.init 6 Float.of_int) in
    let args = [ Op2.arg_dat_indirect d id 0 Access.Read; Op2.arg_dat d Access.Write ] in
    (if acc then
       Op2.par_loop_acc ctx ~name:"bump" cells args
         (Op2.Acc.lift (fun a ->
              let r = a.(0) and w = a.(1) in
              w.Op2.Acc.data.(w.Op2.Acc.base) <- 0.0;
              w.Op2.Acc.data.(w.Op2.Acc.base) <- r.Op2.Acc.data.(r.Op2.Acc.base) +. 1.0))
     else
       Op2.par_loop ctx ~name:"bump" cells args (fun a ->
           a.(1).(0) <- 0.0;
           a.(1).(0) <- a.(0).(0) +. 1.0));
    Op2.fetch ctx d
  in
  Alcotest.(check (array (float 0.0))) "staged semantics" (run false) (run true);
  Alcotest.(check (array (float 0.0)))
    "old + 1" (Array.init 6 (fun i -> Float.of_int i +. 1.0)) (run true)

(* ---- The element-walker dispatch rule (OP2) ------------------------------- *)

(* A hand-built OP2 kernel value: generated kernel [k] with an element
   walker that counts its calls and the elements they cover before running
   [k]'s, so which walker runs, and over which ranges, is observable.  The
   counters are atomic: Shared runs ranges on two domains. *)
type elem_probe = { ecalls : int Atomic.t; covered : int Atomic.t }

let elem_probe_kernel (k : Op2.Acc.kernel) =
  let p = { ecalls = Atomic.make 0; covered = Atomic.make 0 } in
  let g = Option.get k.Op2.Acc.walker in
  let elems w lo hi =
    Atomic.incr p.ecalls;
    ignore (Atomic.fetch_and_add p.covered (hi - lo));
    g.Op2.Acc.elems w lo hi
  in
  (p, { k with Op2.Acc.walker = Some { g with Op2.Acc.elems } })

(* The probed kernels, one per declared shape: add one to component 0 of
   argument 0 ([bump_direct], and [bump_aliased] beside two reads), of
   arguments 0 to 2 ([bump_coloured]) or of argument 1 ([bump_reading]). *)
module Probed = struct
  let[@inline] get (a : Op2.Acc.t) c = a.Op2.Acc.data.(a.Op2.Acc.base + c)
  let[@inline] set (a : Op2.Acc.t) c v = a.Op2.Acc.data.(a.Op2.Acc.base + c) <- v

  let%elem_kernel bump_direct (a : Op2.Acc.t array) = set a.(0) 0 (get a.(0) 0 +. 1.0)
  [@@args hits 1 Rw]

  let%elem_kernel bump_coloured (a : Op2.Acc.t array) =
    set a.(0) 0 (get a.(0) 0 +. 1.0);
    set a.(1) 0 (get a.(1) 0 +. 1.0);
    set a.(2) 0 (get a.(2) 0 +. 1.0)
  [@@args hits 1 Rw, ends (e2c 2 0) 2 Inc, ends (e2c 2 1) 2 Inc]

  let%elem_kernel bump_reading (a : Op2.Acc.t array) = set a.(1) 0 (get a.(1) 0 +. 1.0)
  [@@args seen (e2c 2 0) 1 Read, hits 1 Rw]

  let%elem_kernel bump_aliased (a : Op2.Acc.t array) = set a.(0) 0 (get a.(0) 0 +. 1.0)
  [@@args hits 1 Rw, seen (e2c 2 0) 1 Read, hits 1 Read]
end

(* A ring of [ring] cells and as many edges, edge [e] joining cells [e] and
   [e + 1]: [hits] is per edge, [ends] per cell (dim 2), [seen] per cell. *)
let ring = 600

type ring_t = {
  rctx : Op2.ctx;
  edges : Op2.set;
  e2c : Op2.map_t;
  hits : Op2.dat;
  ends : Op2.dat;
  seen : Op2.dat;
}

let make_ring ?backend () =
  let ctx = Op2.create ?backend () in
  let cells = Op2.decl_set ctx ~name:"cells" ~size:ring in
  let edges = Op2.decl_set ctx ~name:"edges" ~size:ring in
  let e2c =
    Op2.decl_map ctx ~name:"e2c" ~from_set:edges ~to_set:cells ~arity:2
      ~values:(Array.init (2 * ring) (fun i -> ((i / 2) + (i mod 2)) mod ring))
  in
  {
    rctx = ctx;
    edges;
    e2c;
    hits = Op2.decl_dat_zero ctx ~name:"hits" ~set:edges ~dim:1;
    ends = Op2.decl_dat_zero ctx ~name:"ends" ~set:cells ~dim:2;
    seen = Op2.decl_dat ctx ~name:"seen" ~set:cells ~dim:1 ~data:(Array.init ring Float.of_int);
  }

(* The probed loops over the edges: [Direct] bumps [hits] (conflict-free),
   [Coloured] also increments both ends' [ends] (coloured blocks on
   Shared), [Reading] bumps [hits] after reading [seen] through the map
   (so an overlapped partition splits it into core and boundary). *)
type ring_loop = Direct | Coloured | Reading

let ring_args r = function
  | Direct -> [ Op2.arg_dat r.hits Access.Rw ]
  | Coloured ->
    [
      Op2.arg_dat r.hits Access.Rw;
      Op2.arg_dat_indirect r.ends r.e2c 0 Access.Inc;
      Op2.arg_dat_indirect r.ends r.e2c 1 Access.Inc;
    ]
  | Reading -> [ Op2.arg_dat_indirect r.seen r.e2c 0 Access.Read; Op2.arg_dat r.hits Access.Rw ]

let ring_kernel = function
  | Direct -> Probed.bump_direct
  | Coloured -> Probed.bump_coloured
  | Reading -> Probed.bump_reading

(* One probed loop on a fresh ring prepared by [setup], with [shape]'s
   arguments and kernel (the loop's own by default): the probe, and
   whether every edge was visited once (and, for [Coloured], every cell
   incremented from both its edges). *)
let ring_run ?backend ?(setup = fun _ -> ()) ?(shape = (ring_args, ring_kernel)) loop =
  let r = make_ring ?backend () in
  setup r;
  let args, kernel = shape in
  let p, k = elem_probe_kernel (kernel loop) in
  Op2.par_loop_acc r.rctx ~name:"probe" r.edges (args r loop) k;
  let hits = Op2.fetch r.rctx r.hits and ends = Op2.fetch r.rctx r.ends in
  let once =
    Array.for_all (fun h -> h = 1.0) hits
    && (loop <> Coloured || Array.for_all Fun.id (Array.init ring (fun c -> ends.(2 * c) = 2.0)))
  in
  (p, once)

let test_elem_dispatch () =
  List.iter
    (fun loop ->
      let p, once = ring_run loop in
      Alcotest.(check int) "seq: one element-walker call" 1 (Atomic.get p.ecalls);
      Alcotest.(check int) "seq: covering [0, n)" ring (Atomic.get p.covered);
      Alcotest.(check bool) "seq: every element once" true once)
    [ Direct; Coloured; Reading ];
  Pool.with_pool ~size:2 (fun pool ->
      let partitioned ?(overlap = false) exec r =
        Op2.partition r.rctx ~n_ranks:3 ~strategy:(Op2.Kway_through r.e2c);
        Op2.set_rank_execution r.rctx exec;
        if overlap then Op2.set_comm_mode r.rctx Op2.Overlap
      in
      let shared = Op2.Shared { pool; block_size = 48 } in
      let rank_shared = Op2.Rank_shared { pool; block_size = 48 } in
      List.iter
        (fun (name, backend, setup, loops) ->
          List.iter
            (fun loop ->
              let p, once = ring_run ?backend ~setup loop in
              Alcotest.(check bool) (name ^ ": element walker runs") true (Atomic.get p.ecalls > 0);
              Alcotest.(check int) (name ^ ": ranges cover every element") ring
                (Atomic.get p.covered);
              Alcotest.(check bool) (name ^ ": every element once") true once)
            loops)
        [
          ("shared 2", Some shared, ignore, [ Direct; Coloured; Reading ]);
          ("rank_seq, 3 ranks", None, partitioned Op2.Rank_seq, [ Direct; Coloured ]);
          ("rank_shared, 3 ranks", None, partitioned rank_shared, [ Direct; Coloured; Reading ]);
        ];
      (* A coloured loop runs one block range per call on Shared. *)
      let p, _ = ring_run ~backend:shared Coloured in
      Alcotest.(check int) "shared 2: one call per coloured block" ((ring + 47) / 48)
        (Atomic.get p.ecalls);
      (* Walker frames run one element per call where the executor works
         element by element: a Vec lane, a Cuda_sim NOSOA block. *)
      let cuda strategy = Some (Op2.Cuda_sim { Am_op2.Exec_cuda.block_size = 48; strategy }) in
      List.iter
        (fun (name, backend, setup, loops) ->
          List.iter
            (fun loop ->
              let p, once = ring_run ?backend ~setup loop in
              Alcotest.(check int) (name ^ ": one element-walker call per element") ring
                (Atomic.get p.ecalls);
              Alcotest.(check int) (name ^ ": calls cover every element") ring
                (Atomic.get p.covered);
              Alcotest.(check bool) (name ^ ": every element once") true once)
            loops)
        [
          ("vec", Some (Op2.Vec { Am_op2.Exec_vec.width = 4 }), ignore, [ Direct; Coloured ]);
          ("cuda NOSOA", cuda Am_op2.Exec_cuda.Global_aos, ignore, [ Direct; Coloured ]);
        ];
      (* An overlapped rank's core and boundary subsets are ascending: one
         call per maximal run of consecutive elements. *)
      let runs elems =
        let n = ref 0 in
        Array.iteri (fun i e -> if i = 0 || e <> elems.(i - 1) + 1 then incr n) elems;
        !n
      in
      let ring_ctx = ref None in
      let p, once =
        ring_run
          ~setup:(fun r ->
            partitioned ~overlap:true Op2.Rank_seq r;
            ring_ctx := Some r.rctx)
          Reading
      in
      let d = Option.get (Op2.dist (Option.get !ring_ctx)) in
      let per_run =
        Hashtbl.fold
          (fun _ split acc ->
            Array.fold_left
              (fun acc s -> acc + runs s.Am_op2.Dist.core + runs s.Am_op2.Dist.boundary)
              acc split)
          d.Am_op2.Dist.rank_splits 0
      in
      Alcotest.(check bool) "overlap, 3 ranks: runs merge elements" true (per_run < ring);
      Alcotest.(check int) "overlap, 3 ranks: one element-walker call per run" per_run
        (Atomic.get p.ecalls);
      Alcotest.(check int) "overlap, 3 ranks: calls cover every element" ring
        (Atomic.get p.covered);
      Alcotest.(check bool) "overlap, 3 ranks: every element once" true once;
      (* Staging frames instead, the point walker at every element. *)
      let soa dat r = Op2.convert_layout r.rctx (dat r) Op2.Soa in
      let aliased r _ =
        [ Op2.arg_dat r.hits Access.Rw; Op2.arg_dat_indirect r.seen r.e2c 0 Access.Read;
          Op2.arg_dat r.hits Access.Read ]
      in
      List.iter
        (fun (name, backend, setup, shape, loops) ->
          List.iter
            (fun loop ->
              let p, once = ring_run ?backend ~setup ?shape loop in
              Alcotest.(check int) (name ^ ": no element-walker call") 0 (Atomic.get p.ecalls);
              Alcotest.(check bool) (name ^ ": every element once") true once)
            loops)
        [
          ("check", Some Op2.Check, ignore, None, [ Direct; Coloured; Reading ]);
          ("cuda SOA", cuda Am_op2.Exec_cuda.Global_soa, ignore, None, [ Direct; Coloured ]);
          ("cuda STAGE", cuda Am_op2.Exec_cuda.Staged, ignore, None, [ Direct; Coloured ]);
          ("soa dat", None, soa (fun r -> r.hits), None, [ Direct ]);
          ("inc on a soa dat", None, soa (fun r -> r.ends), None, [ Coloured ]);
          ("aliased rw", None, ignore, Some (aliased, fun _ -> Probed.bump_aliased), [ Direct ]);
        ])

(* ---- OPS accessor kernels ------------------------------------------------- *)

(* CloverLeaf runs its kernels through [Ops.par_loop_acc]: in place on
   every backend that addresses datasets directly, staged on Check (which
   stages every argument), so Seq = Check is the accessor-vs-staged
   comparison.  Every other backend must match Seq to the bit on every
   dataset; only field_summary's Inc reduction may reassociate (per-worker
   or per-rank partial sums), within [eps]. *)

type ops_config =
  | Ops_on of Ops.backend
  | Ops_rows of { ranks : int; overlap : bool }
  | Ops_grid of { overlap : bool } (* 2x2 *)

let ops_config_name = function
  | Ops_on Ops.Seq -> "seq"
  | Ops_on Ops.Check -> "check"
  | Ops_on (Ops.Shared _) -> "shared"
  | Ops_on (Ops.Cuda_sim { strategy = Am_ops.Exec.Cuda_global; _ }) -> "cuda global"
  | Ops_on (Ops.Cuda_sim { strategy = Am_ops.Exec.Cuda_tiled; _ }) -> "cuda tiled"
  | Ops_rows { ranks; overlap } ->
    Printf.sprintf "dist rows %d%s" ranks (if overlap then " overlap" else "")
  | Ops_grid { overlap } -> Printf.sprintf "dist grid 2x2%s" (if overlap then " overlap" else "")

let ops_configs pool =
  let cuda strategy = Ops_on (Ops.Cuda_sim { Am_ops.Exec.tile_x = 8; tile_y = 4; strategy }) in
  [
    Ops_on Ops.Check;
    Ops_on (Ops.Shared { pool });
    cuda Am_ops.Exec.Cuda_global;
    cuda Am_ops.Exec.Cuda_tiled;
  ]
  @ List.concat_map
      (fun ranks -> [ Ops_rows { ranks; overlap = false }; Ops_rows { ranks; overlap = true } ])
      [ 1; 2; 3; 7 ]
  @ [ Ops_grid { overlap = false }; Ops_grid { overlap = true } ]

let clover_n = 20

(* Every dataset a step writes (interior values) plus the final dt, and
   the field summary, after 20 seeded steps on [cfg]. *)
let clover_forms ~advection cfg =
  let run ?backend setup =
    let t = CApp.create ?backend ~advection ~nx:clover_n ~ny:clover_n () in
    seed_clover t;
    setup t.CApp.ctx;
    for _ = 1 to 20 do
      ignore (CApp.hydro_step t)
    done;
    let fields =
      Array.concat
        (List.map (Ops.fetch_interior t.CApp.ctx)
           [
             t.CApp.density0; t.CApp.energy0; t.CApp.pressure; t.CApp.viscosity;
             t.CApp.soundspeed; t.CApp.xvel0; t.CApp.yvel0; t.CApp.vol_flux_x;
             t.CApp.mass_flux_y; t.CApp.node_mass_post;
           ])
    in
    let s = CApp.field_summary t in
    ( Array.append fields [| t.CApp.dt |],
      [| s.CApp.vol; s.CApp.mass; s.CApp.ie; s.CApp.ke; s.CApp.press |] )
  in
  match cfg with
  | Ops_on backend -> run ~backend ignore
  | Ops_rows { ranks; overlap } ->
    run (fun ctx ->
        Ops.partition ctx ~n_ranks:ranks ~ref_ysize:clover_n;
        if overlap then Ops.set_comm_mode ctx Ops.Overlap)
  | Ops_grid { overlap } ->
    run (fun ctx ->
        Ops.partition_grid ctx ~px:2 ~py:2 ~ref_xsize:clover_n ~ref_ysize:clover_n;
        if overlap then Ops.set_comm_mode ctx Ops.Overlap)

let test_clover_forms () =
  Pool.with_pool ~size:2 (fun pool ->
      List.iter
        (fun (advection, scheme) ->
          let fields, sums = clover_forms ~advection (Ops_on Ops.Seq) in
          List.iter
            (fun cfg ->
              let name = Printf.sprintf "cloverleaf %s %s" scheme (ops_config_name cfg) in
              let fields', sums' = clover_forms ~advection cfg in
              if not (bitwise fields fields') then
                Alcotest.failf "%s: datasets differ from seq accessor kernels (%g)" name
                  (Fa.rel_discrepancy fields fields');
              (* Check accumulates field_summary in seq order: bitwise too. *)
              let same_sums =
                match cfg with
                | Ops_on Ops.Check -> bitwise sums sums'
                | _ -> Array.for_all2 close sums' sums
              in
              if not same_sums then
                Alcotest.failf "%s: field summary diverges (ke %.17g vs %.17g)" name
                  sums'.(3) sums.(3))
            (ops_configs pool))
        [ (CApp.First_order, "first-order"); (CApp.Van_leer, "van Leer") ])

(* Loops CloverLeaf does not cover, each in both forms over the same
   arithmetic: a dim-3 stencil read and dim-3 write (component [c] of point
   [p] at [off.(p) + c]), a dataset both read and written by one loop
   (which must stay staged: in place, the kernel's first write would show
   through the Read accessor), an Inc dataset, the iteration index, and
   restrict/prolong strides.  Seq results must agree to the bit. *)
module OAcc = Ops.Acc

let oget (a : OAcc.t) p c = a.OAcc.data.(a.OAcc.base + a.OAcc.off.(p) + c)
let oset (a : OAcc.t) p c v = a.OAcc.data.(a.OAcc.base + a.OAcc.off.(p) + c) <- v

let synthetic_forms ~acc =
  let ctx = Ops.create () in
  let grid = Ops.decl_block ctx ~name:"grid" in
  let dat ?(dim = 1) name xsize ysize =
    Ops.decl_dat ctx ~name ~block:grid ~xsize ~ysize ~dim ()
  in
  let u = dat ~dim:3 "u" 10 8 and w = dat ~dim:3 "w" 10 8 in
  let v = dat "v" 10 8 and total = dat "total" 10 8 in
  let fine = dat "fine" 10 8 and coarse = dat "coarse" 5 4 and back = dat "back" 10 8 in
  List.iteri
    (fun k d ->
      Ops.init ctx d (fun x y c ->
          Float.of_int ((((x + 3) * 31) + ((y + 3) * 17) + (c * 7) + k) land 63) /. 8.0))
    [ u; v; total; fine ];
  let loop name range args staged accessor =
    if acc then Ops.par_loop_acc ctx ~name grid range args (Ops.Acc.lift accessor)
    else Ops.par_loop ctx ~name grid range args staged
  in
  loop "smooth3" (Ops.interior u)
    [ Ops.arg_dat u Ops.stencil_2d_5pt Access.Read; Ops.arg_dat w Ops.stencil_point Access.Write ]
    (fun b ->
      for c = 0 to 2 do
        b.(1).(c) <-
          b.(0).(c) +. (0.25 *. (b.(0).(3 + c) +. b.(0).(6 + c) +. b.(0).(9 + c) +. b.(0).(12 + c)))
      done)
    (fun a ->
      for c = 0 to 2 do
        oset a.(1) 0 c
          (oget a.(0) 0 c
          +. (0.25 *. (oget a.(0) 1 c +. oget a.(0) 2 c +. oget a.(0) 3 c +. oget a.(0) 4 c)))
      done);
  loop "bump" (Ops.interior v)
    [ Ops.arg_dat v Ops.stencil_point Access.Read; Ops.arg_dat v Ops.stencil_point Access.Write ]
    (fun b ->
      b.(1).(0) <- 0.0;
      b.(1).(0) <- b.(0).(0) +. 1.0)
    (fun a ->
      oset a.(1) 0 0 0.0;
      oset a.(1) 0 0 (oget a.(0) 0 0 +. 1.0));
  loop "accumulate" (Ops.interior w)
    [ Ops.arg_dat w Ops.stencil_point Access.Read; Ops.arg_dat total Ops.stencil_point Access.Inc ]
    (fun b ->
      b.(1).(0) <- b.(1).(0) +. b.(0).(0);
      b.(1).(0) <- b.(1).(0) +. (b.(0).(1) *. b.(0).(2)))
    (fun a ->
      oset a.(1) 0 0 (oget a.(1) 0 0 +. oget a.(0) 0 0);
      oset a.(1) 0 0 (oget a.(1) 0 0 +. (oget a.(0) 0 1 *. oget a.(0) 0 2)));
  loop "index" (Ops.interior v)
    [ Ops.arg_idx; Ops.arg_dat v Ops.stencil_point Access.Rw ]
    (fun b -> b.(1).(0) <- b.(1).(0) +. (b.(0).(0) *. 10.0) +. b.(0).(1))
    (fun a -> oset a.(1) 0 0 (oget a.(1) 0 0 +. (oget a.(0) 0 0 *. 10.0) +. oget a.(0) 0 1));
  loop "restrict" (Ops.interior coarse)
    [
      Ops.arg_dat_restrict fine Ops.stencil_2d_quad ~factor:2 Access.Read;
      Ops.arg_dat coarse Ops.stencil_point Access.Write;
    ]
    (fun b -> b.(1).(0) <- 0.25 *. (b.(0).(0) +. b.(0).(1) +. b.(0).(2) +. b.(0).(3)))
    (fun a ->
      oset a.(1) 0 0
        (0.25 *. (oget a.(0) 0 0 +. oget a.(0) 1 0 +. oget a.(0) 2 0 +. oget a.(0) 3 0)));
  loop "prolong" (Ops.interior back)
    [
      Ops.arg_dat_prolong coarse Ops.stencil_point ~factor:2 Access.Read;
      Ops.arg_dat back Ops.stencil_point Access.Write;
    ]
    (fun b -> b.(1).(0) <- b.(0).(0))
    (fun a -> oset a.(1) 0 0 (oget a.(0) 0 0));
  Array.concat (List.map (Ops.fetch_interior ctx) [ u; w; v; total; fine; coarse; back ])

let test_synthetic_forms () =
  let staged = synthetic_forms ~acc:false and acc = synthetic_forms ~acc:true in
  if not (bitwise staged acc) then
    Alcotest.failf "accessor loops differ from staged loops (%g)"
      (Fa.rel_discrepancy staged acc)

(* ---- The range-walker dispatch rule ---------------------------------------- *)

(* The probed kernels, one per declared shape: add one at the centre of
   argument 1 after reading argument 0 through a 5-point stencil
   ([count5], two labels), at the centre ([count_pair]; an aliased pair
   when both name one dataset), or through (0,0),(1,0) beside a centre
   read of the same label ([count_reach]: one label, two reaches). *)
module Walked = struct
  let[@inline] get (a : OAcc.t) p = a.OAcc.data.(a.OAcc.base + a.OAcc.off.(p))
  let[@inline] set (a : OAcc.t) v = a.OAcc.data.(a.OAcc.base + a.OAcc.off.(0)) <- v

  let%kernel count5 (a : Ops.Acc.t array) = set a.(1) (get a.(1) 0 +. 1.0 +. (0.0 *. get a.(0) 4))
  [@@args u [(0,0); (-1,0); (1,0); (0,-1); (0,1)] 1 Read, c [(0,0)] 1 Rw]

  let%kernel count_pair (a : Ops.Acc.t array) = set a.(1) (get a.(1) 0 +. 1.0 +. (0.0 *. get a.(0) 0))
  [@@args g [(0,0)] 1 Read, g [(0,0)] 1 Rw]

  let%kernel count_reach (a : Ops.Acc.t array) =
    set a.(2) (get a.(2) 0 +. 1.0 +. (0.0 *. (get a.(0) 1 +. get a.(1) 0)))
  [@@args g [(0,0); (1,0)] 1 Read, g [(0,0)] 1 Read, g [(0,0)] 1 Rw]
end

(* [k] with its walkers recording each call's box and its point form
   counting its calls, so which form runs, and over which boxes, is
   observable.  Shared runs boxes on two domains, hence the mutex.  The
   contexts below turn footprint inference off: its probes call the point
   form too. *)
type walk_probe = { boxes : (int * int * int * int) list ref; lock : Mutex.t; points : int Atomic.t }

let probe_kernel (k : OAcc.kernel) =
  let p = { boxes = ref []; lock = Mutex.create (); points = Atomic.make 0 } in
  let walked (w : OAcc.range_walker) =
    let range places xlo xhi ylo yhi zlo zhi =
      Mutex.protect p.lock (fun () -> p.boxes := (xlo, xhi, ylo, yhi) :: !(p.boxes));
      w.OAcc.range places xlo xhi ylo yhi zlo zhi
    in
    { w with OAcc.range }
  in
  let point a =
    Atomic.incr p.points;
    k.OAcc.point a
  in
  (p, { OAcc.point; walkers = Array.map walked k.OAcc.walkers })

let rx = 7 and ry = 5

let calls p = List.length !(p.boxes)
let covered p = List.fold_left (fun n (x0, x1, y0, y1) -> n + ((x1 - x0) * (y1 - y0))) 0 !(p.boxes)

(* Add one at the centre of argument 1 (lifted). *)
let bump1 (a : OAcc.t array) = oset a.(1) 0 0 (oget a.(1) 0 0 +. 1.0)

(* On a 7x5 block (ghost depth 1): refresh u, then count every point of
   the interior through the probed [count5], reading u through a 5-point
   stencil so partitioned runs exchange (and, with overlap, split each
   rank's box) first.  Returns the probe and the counts. *)
let dispatch_run ?backend setup =
  let ctx = Ops.create ?backend () in
  let grid = Ops.decl_block ctx ~name:"grid" in
  let dat name = Ops.decl_dat ctx ~name ~block:grid ~xsize:rx ~ysize:ry ~halo:1 () in
  let u = dat "u" and count = dat "count" in
  Ops.init ctx u (fun x y _ -> Float.of_int (x + (10 * y)));
  Ops.set_infer ctx false;
  setup ctx;
  Ops.par_loop_acc ctx ~name:"refresh" grid (Ops.interior u)
    [ Ops.arg_dat u Ops.stencil_point Access.Rw ]
    (Ops.Acc.lift (fun a -> oset a.(0) 0 0 (oget a.(0) 0 0 +. 1.0)));
  let p, k = probe_kernel Walked.count5 in
  Ops.par_loop_acc ctx ~name:"count" grid (Ops.interior count)
    [ Ops.arg_dat u Ops.stencil_2d_5pt Access.Read; Ops.arg_dat count Ops.stencil_point Access.Rw ]
    k;
  (p, Ops.fetch_interior ctx count)

let once counts = Array.for_all (fun c -> c = 1.0) counts

let test_walker_dispatch () =
  let p, counts = dispatch_run ignore in
  Alcotest.(check (list (pair (pair int int) (pair int int))))
    "seq: one walker call over the range" [ ((0, rx), (0, ry)) ]
    (List.map (fun (a, b, c, d) -> ((a, b), (c, d))) !(p.boxes));
  Alcotest.(check int) "seq: no point-form call" 0 (Atomic.get p.points);
  Alcotest.(check bool) "seq: every point once" true (once counts);
  Pool.with_pool ~size:2 (fun pool ->
      let partitioned ~grid ~overlap ctx =
        if grid then Ops.partition_grid ctx ~px:2 ~py:2 ~ref_xsize:rx ~ref_ysize:ry
        else Ops.partition ctx ~n_ranks:3 ~ref_ysize:ry;
        if overlap then Ops.set_comm_mode ctx Ops.Overlap
      in
      List.iter
        (fun (name, backend, setup, want) ->
          let p, counts = dispatch_run ?backend setup in
          (match want with
          | `Calls n -> Alcotest.(check int) (name ^ ": one walker call per box") n (calls p)
          | `Rows ->
            (* One call per chunk of rows, each spanning the x range. *)
            Alcotest.(check bool) (name ^ ": every call spans whole rows") true
              (List.for_all (fun (x0, x1, _, _) -> x0 = 0 && x1 = rx) !(p.boxes))
          | `Boxes -> Alcotest.(check bool) (name ^ ": walker runs") true (calls p > 0));
          Alcotest.(check int) (name ^ ": boxes cover 35 points") (rx * ry) (covered p);
          Alcotest.(check int) (name ^ ": no point-form call") 0 (Atomic.get p.points);
          Alcotest.(check bool) (name ^ ": every point once") true (once counts))
        [
          ("shared 2", Some (Ops.Shared { pool }), ignore, `Rows);
          ( "cuda global, 4x2 tiles",
            Some
              (Ops.Cuda_sim { Am_ops.Exec.tile_x = 4; tile_y = 2; strategy = Am_ops.Exec.Cuda_global }),
            ignore,
            `Calls 6 );
          ( "cuda tiled, 4x2 tiles",
            Some
              (Ops.Cuda_sim { Am_ops.Exec.tile_x = 4; tile_y = 2; strategy = Am_ops.Exec.Cuda_tiled }),
            ignore,
            `Calls 6 );
          ("rows(3)", None, partitioned ~grid:false ~overlap:false, `Calls 3);
          ("rows(3) overlap", None, partitioned ~grid:false ~overlap:true, `Boxes);
          ("grid(2x2)", None, partitioned ~grid:true ~overlap:false, `Calls 4);
          ("grid(2x2) overlap", None, partitioned ~grid:true ~overlap:true, `Boxes);
        ]);
  (* The point form instead, at every point: Check stages every argument. *)
  let p, counts = dispatch_run ~backend:Ops.Check ignore in
  Alcotest.(check int) "check: no walker call" 0 (calls p);
  Alcotest.(check int) "check: the point form at every point" (rx * ry) (Atomic.get p.points);
  Alcotest.(check bool) "check: every point once" true (once counts)

(* A staging frame, and with it the point form at every point, runs an
   aliased pair with a declared kernel, and an [Inc] dataset, [arg_idx]
   and restrict/prolong reads, which no signature declares, with a lifted
   one; a staged Cuda_sim tile whose arguments of one label reach
   differently runs the walker. *)
let test_walker_dispatch_point () =
  let check name p got =
    Alcotest.(check int) (name ^ ": no walker call") 0 (calls p);
    Alcotest.(check bool) (name ^ ": point form at every point") true (once got)
  in
  (* Aliased: both arguments name the target. *)
  let ctx = Ops.create () in
  Ops.set_infer ctx false;
  let grid = Ops.decl_block ctx ~name:"grid" in
  let t = Ops.decl_dat ctx ~name:"t" ~block:grid ~xsize:rx ~ysize:ry ~halo:1 () in
  let p, k = probe_kernel Walked.count_pair in
  Ops.par_loop_acc ctx ~name:"aliased" grid (Ops.interior t)
    [ Ops.arg_dat t Ops.stencil_point Access.Read; Ops.arg_dat t Ops.stencil_point Access.Rw ]
    k;
  check "aliased" p (Ops.fetch_interior ctx t);
  Alcotest.(check int) "aliased: the point form ran" (rx * ry) (Atomic.get p.points);
  (* Argument 0 reaches one column further than arguments 1 and 2, all of
     one label: a staged tile sizes the label's scratch buffers by its
     widest reach, so their views agree and both strategies run the walker
     once per tile. *)
  List.iter
    (fun (name, strategy) ->
      let ctx =
        Ops.create ~backend:(Ops.Cuda_sim { Am_ops.Exec.tile_x = 4; tile_y = 2; strategy }) ()
      in
      Ops.set_infer ctx false;
      let grid = Ops.decl_block ctx ~name:"grid" in
      let dat name = Ops.decl_dat ctx ~name ~block:grid ~xsize:rx ~ysize:ry ~halo:1 () in
      let u = dat "u" and v = dat "v" and t = dat "t" in
      let p, k = probe_kernel Walked.count_reach in
      Ops.par_loop_acc ctx ~name:"reach" grid (Ops.interior t)
        [
          Ops.arg_dat u Ops.stencil_2d_plus1x Access.Read;
          Ops.arg_dat v Ops.stencil_point Access.Read;
          Ops.arg_dat t Ops.stencil_point Access.Rw;
        ]
        k;
      let got = Ops.fetch_interior ctx t in
      Alcotest.(check int) (name ^ ": one walker call per tile") 6 (calls p);
      Alcotest.(check int) (name ^ ": no point-form call") 0 (Atomic.get p.points);
      Alcotest.(check bool) (name ^ ": every point once") true (once got))
    [ ("cuda global", Am_ops.Exec.Cuda_global); ("cuda tiled", Am_ops.Exec.Cuda_tiled) ];
  (* What no signature declares: a lifted kernel runs the point form. *)
  let ctx = Ops.create () in
  let grid = Ops.decl_block ctx ~name:"grid" in
  let dat name xsize ysize = Ops.decl_dat ctx ~name ~block:grid ~xsize ~ysize ~halo:1 () in
  let fine = dat "fine" rx ry and coarse = dat "coarse" 3 2 and back = dat "back" 6 4 in
  Ops.init ctx fine (fun x y _ -> Float.of_int (x + (10 * y)));
  List.iter
    (fun (name, range, args, want) ->
      let target = dat (name ^ "_out") rx ry in
      let range = match range with Some r -> r | None -> Ops.interior target in
      let p, k = probe_kernel (Ops.Acc.lift bump1) in
      Ops.par_loop_acc ctx ~name grid range (args target) k;
      check name p (Ops.fetch_interior ctx (Option.value want ~default:target)))
    [
      ( "inc",
        None,
        (fun t ->
          [ Ops.arg_dat fine Ops.stencil_point Access.Read; Ops.arg_dat t Ops.stencil_point Access.Inc ]),
        None );
      ("index", None, (fun t -> [ Ops.arg_idx; Ops.arg_dat t Ops.stencil_point Access.Rw ]), None);
      ( "restrict",
        Some (Ops.interior coarse),
        (fun _ ->
          [
            Ops.arg_dat_restrict fine Ops.stencil_point ~factor:2 Access.Read;
            Ops.arg_dat coarse Ops.stencil_point Access.Rw;
          ]),
        Some coarse );
      ( "prolong",
        Some (Ops.interior back),
        (fun _ ->
          [
            Ops.arg_dat_prolong coarse Ops.stencil_point ~factor:2 Access.Read;
            Ops.arg_dat back Ops.stencil_point Access.Rw;
          ]),
        Some back );
    ]

(* ---- OPS loop programs, every call at its program point ------------------ *)

(* Seeded random programs over three datasets: 5-point and one-row-offset
   stencils, Write and Rw, arg_idx, a Read global refilled in place before
   each loop that reads it, mirror_halo and Inc sums.  Every par_loop and
   mirror_halo takes effect where it is called, so each configuration must
   match Seq: datasets to the bit, sums within [eps]. *)

type step =
  | Smooth of int * int * float (* src, dst, value of the Read global *)
  | Shift of int * int
  | Relax of int * int
  | Scale of int * float (* dst, value of the Read global *)
  | Mirror of int
  | Reduce of int

let gen_step =
  QCheck.Gen.(
    let pair = int_range 0 2 >>= fun s -> int_range 1 2 >|= fun d -> (s, (s + d) mod 3) in
    frequency
      [
        (3, map2 (fun (s, d) c -> Smooth (s, d, 0.19 +. (0.01 *. Float.of_int c))) pair (int_range 0 6));
        (2, map (fun (s, d) -> Shift (s, d)) pair);
        (2, map (fun (s, d) -> Relax (s, d)) pair);
        (1, map2 (fun i c -> Scale (i, 0.5 +. Float.of_int c)) (int_range 0 2) (int_range 0 2));
        (2, map (fun i -> Mirror i) (int_range 0 2));
        (1, map (fun i -> Reduce i) (int_range 0 2));
      ])

let prog_x = 17 and prog_y = 20
let consts = [| 0.0 |]

let run_steps setup steps =
  let ctx = Ops.create () in
  let b = Ops.decl_block ctx ~name:"b" in
  let d =
    Array.init 3 (fun i ->
        Ops.decl_dat ctx ~name:(Printf.sprintf "d%d" i) ~block:b ~xsize:prog_x ~ysize:prog_y ())
  in
  Array.iteri
    (fun i dat ->
      Ops.init ctx dat (fun x y _ -> Float.of_int (((x * 31) + (y * 57) + (i * 11)) mod 23) *. 0.125))
    d;
  setup ctx;
  let loop name s stencil t access extra kernel =
    Ops.par_loop ctx ~name b (Ops.interior d.(t))
      ([ Ops.arg_dat d.(s) stencil Access.Read; Ops.arg_dat d.(t) Ops.stencil_point access ] @ extra)
      kernel
  in
  let sums = ref [] in
  List.iter
    (function
      | Smooth (s, t, c) ->
        consts.(0) <- c;
        loop "smooth" s Ops.stencil_2d_5pt t Access.Write
          [ Ops.arg_gbl ~name:"consts" consts Access.Read ]
          (fun a ->
            a.(1).(0) <- a.(2).(0) *. (a.(0).(0) +. a.(0).(1) +. a.(0).(2) +. a.(0).(3) +. a.(0).(4)))
      | Shift (s, t) ->
        loop "shift" s Ops.stencil_2d_plus1y t Access.Write [ Ops.arg_idx ] (fun a ->
            a.(1).(0) <- a.(0).(1) +. (1e-3 *. (a.(2).(0) +. a.(2).(1))))
      | Relax (s, t) ->
        loop "relax" s Ops.stencil_2d_minus1y t Access.Rw [] (fun a ->
            a.(1).(0) <- (0.6 *. a.(1).(0)) +. (0.4 *. a.(0).(1)))
      | Scale (t, c) ->
        consts.(0) <- c;
        Ops.par_loop ctx ~name:"scale" b (Ops.interior d.(t))
          [ Ops.arg_dat d.(t) Ops.stencil_point Access.Rw; Ops.arg_gbl ~name:"consts" consts Access.Read ]
          (fun a -> a.(0).(0) <- a.(0).(0) *. a.(1).(0))
      | Mirror i -> Ops.mirror_halo ctx d.(i)
      | Reduce i ->
        let acc = [| 0.0 |] in
        Ops.par_loop ctx ~name:"sum" b (Ops.interior d.(i))
          [ Ops.arg_dat d.(i) Ops.stencil_point Access.Read; Ops.arg_gbl ~name:"sum" acc Access.Inc ]
          (fun a -> a.(1).(0) <- a.(1).(0) +. a.(0).(0));
        sums := acc.(0) :: !sums)
    steps;
  (Array.concat (List.map (Ops.fetch_interior ctx) (Array.to_list d)), Array.of_list (List.rev !sums))

(* Twelve programs of 3 to 24 steps (AM_SEED picks others), with their Seq results. *)
let programs =
  lazy
    (List.map
       (fun steps -> (steps, run_steps ignore steps))
       (QCheck.Gen.generate ~rand:(Random.State.make [| Qcheck_util.base_seed |]) ~n:12
          QCheck.Gen.(list_size (int_range 3 24) gen_step)))

(* Configurations: name, pool size, and what to do to the fresh context. *)
let on backend _ ctx = Ops.set_backend ctx backend
let shared pool ctx = Ops.set_backend ctx (Ops.Shared { pool })
let also f g pool ctx = f pool ctx; g pool ctx
let traced _ _ = Am_obs.Obs.set_tracing true
let shared_ranks pool ctx = Ops.set_rank_execution ctx (Ops.Rank_shared pool)
let tightened _ ctx = Ops.set_tighten ctx true

let cuda ?(tile_x = 8) ?(tile_y = 4) strategy =
  on (Ops.Cuda_sim { Am_ops.Exec.tile_x; tile_y; strategy })

let rows ?(overlap = false) n _ ctx =
  Ops.partition ctx ~n_ranks:n ~ref_ysize:prog_y;
  if overlap then Ops.set_comm_mode ctx Ops.Overlap

let grid ?(overlap = false) px _ ctx =
  Ops.partition_grid ctx ~px ~py:2 ~ref_xsize:prog_x ~ref_ysize:prog_y;
  if overlap then Ops.set_comm_mode ctx Ops.Overlap

let program_configs =
  let open Am_ops.Exec in
  [
    ("check", 1, on Ops.Check);
    ("check, inference off", 1, also (on Ops.Check) (fun _ ctx -> Ops.set_infer ctx false));
    ("seq, inference off", 1, fun _ ctx -> Ops.set_infer ctx false);
    ("seq, checkpointing", 1, fun _ ctx -> Ops.enable_checkpointing ctx);
    ("seq, span tracing", 1, traced);
    ("shared pool 1", 1, shared);
    ("shared pool 2", 2, shared);
    ("shared pool 4", 4, shared);
    ("shared pool 2, span tracing", 2, also shared traced);
    ("shared on a shut-down pool", 2, fun pool ctx -> Pool.shutdown pool; shared pool ctx);
    ("cuda global", 1, cuda Cuda_global);
    ("cuda tiled", 1, cuda Cuda_tiled);
    ("cuda global 3x5 tiles", 1, cuda ~tile_x:3 ~tile_y:5 Cuda_global);
    ("cuda tiled 3x5 tiles", 1, cuda ~tile_x:3 ~tile_y:5 Cuda_tiled);
    ("dist rows 1", 1, rows 1);
    ("dist rows 2", 1, rows 2);
    ("dist rows 3", 1, rows 3);
    ("dist rows 7", 1, rows 7);
    ("dist rows 2 overlap", 1, rows ~overlap:true 2);
    ("dist rows 3 overlap", 1, rows ~overlap:true 3);
    ("dist rows 7 overlap", 1, rows ~overlap:true 7);
    ("dist grid 2x2", 1, grid 2);
    ("dist grid 2x2 overlap", 1, grid ~overlap:true 2);
    ("dist grid 3x2", 1, grid 3);
    ("dist rows 3, shared ranks", 2, also (rows 3) shared_ranks);
    ("dist grid 2x2, shared ranks", 2, also (grid 2) shared_ranks);
    ("dist rows 3, eager halos", 1, also (rows 3) (fun _ ctx -> Ops.set_halo_policy ctx Ops.Eager));
    ("dist rows 3, tightened", 1, also (rows 3) tightened);
    ("dist grid 2x2, tightened", 1, also (grid 2) tightened);
    ("dist rows 3, checkpointing", 1, also (rows 3) (fun _ ctx -> Ops.enable_checkpointing ctx));
    ("dist rows 3 overlap, span tracing", 1, also (rows ~overlap:true 3) traced);
  ]

let test_programs (_, size, setup) () =
  Pool.with_pool ~size (fun pool ->
      Fun.protect ~finally:(fun () -> Am_obs.Obs.set_tracing false) (fun () ->
          List.iteri
            (fun case (steps, (fields, sums)) ->
              let fields', sums' = run_steps (setup pool) steps in
              if not (bitwise fields fields' && Array.for_all2 close sums' sums) then
                Qcheck_util.failf_seed Qcheck_util.base_seed "program %d differs from seq (%g)"
                  case (Fa.rel_discrepancy fields fields'))
            (Lazy.force programs)))

(* Each loop reads the global's value at its own call: 1 * 2 * 3 = 6. *)
let test_refilled_global () =
  let start, _ = run_steps ignore [] in
  let want = Array.mapi (fun i v -> if i < prog_x * prog_y then 6.0 *. v else v) start in
  List.iter
    (fun (name, size, setup) ->
      Pool.with_pool ~size (fun pool ->
          let got, _ = run_steps (setup pool) [ Scale (0, 1.0); Scale (0, 2.0); Scale (0, 3.0) ] in
          Am_obs.Obs.set_tracing false;
          if not (bitwise want got) then
            Alcotest.failf "%s: a loop did not read the global at its call" name))
    program_configs

(* ---- Plan-handle executor cache ------------------------------------------ *)

let small_loop () =
  let ctx = Op2.create () in
  let cells = Op2.decl_set ctx ~name:"cells" ~size:8 in
  let edges = Op2.decl_set ctx ~name:"edges" ~size:8 in
  let e2c =
    Op2.decl_map ctx ~name:"e2c" ~from_set:edges ~to_set:cells ~arity:2
      ~values:(Array.init 16 (fun i -> (i / 2 + (i mod 2)) mod 8))
  in
  let d = Op2.decl_dat ctx ~name:"d" ~set:cells ~dim:1 ~data:(Array.make 8 1.0) in
  (ctx, edges, e2c, d)

let test_handle_shares_plan () =
  let _ctx, edges, e2c, d = small_loop () in
  let cache = Plan.make_cache () in
  let args = [ Op2.arg_dat_indirect d e2c 0 Access.Inc ] in
  let h1 = Plan.make_handle () and h2 = Plan.make_handle () in
  let e1, x1 = Plan.resolve cache h1 ~name:"k" ~iter_set:edges ~block_size:4 args in
  let e1', x1' = Plan.resolve cache h1 ~name:"k" ~iter_set:edges ~block_size:4 args in
  Alcotest.(check bool) "repeat resolve: same entry" true (e1 == e1');
  Alcotest.(check bool) "repeat resolve: same executor" true (x1 == x1');
  (* A second call site with the same signature shares plan and executor. *)
  let e2, x2 = Plan.resolve cache h2 ~name:"k" ~iter_set:edges ~block_size:4 args in
  Alcotest.(check bool) "same signature: shared entry" true (e1 == e2);
  Alcotest.(check bool) "same signature: shared executor" true (x1 == x2)

let test_handle_distinct_on_signature_change () =
  let ctx, edges, e2c, d = small_loop () in
  let cache = Plan.make_cache () in
  let args = [ Op2.arg_dat_indirect d e2c 0 Access.Inc ] in
  let h = Plan.make_handle () in
  let e1, x1 = Plan.resolve cache h ~name:"k" ~iter_set:edges ~block_size:4 args in
  (* Different block size: a distinct plan entry. *)
  let e2, _ = Plan.resolve cache h ~name:"k" ~iter_set:edges ~block_size:8 args in
  Alcotest.(check bool) "block size: distinct entry" true (not (e1 == e2));
  (* Different access descriptor: distinct entry and executor. *)
  let args_rd = [ Op2.arg_dat_indirect d e2c 0 Access.Read ] in
  let e3, x3 = Plan.resolve cache h ~name:"k" ~iter_set:edges ~block_size:4 args_rd in
  Alcotest.(check bool) "access: distinct entry" true (not (e1 == e3));
  Alcotest.(check bool) "access: distinct executor" true (not (x1 == x3));
  (* Replacing the dataset array recompiles the executor in place. *)
  let e4, x4 = Plan.resolve cache h ~name:"k" ~iter_set:edges ~block_size:4 args in
  Alcotest.(check bool) "back to original signature: entry" true (e1 == e4);
  Op2.update ctx d (Array.make 8 2.0);
  let args' = [ Op2.arg_dat_indirect d e2c 0 Access.Inc ] in
  let e5, x5 = Plan.resolve cache h ~name:"k" ~iter_set:edges ~block_size:4 args' in
  Alcotest.(check bool) "after update: same entry" true (e4 == e5);
  Alcotest.(check bool) "after update: recompiled executor" true (not (x4 == x5));
  (* Invalidation (renumbering) drops everything. *)
  Plan.invalidate cache;
  let e6, _ = Plan.resolve cache h ~name:"k" ~iter_set:edges ~block_size:4 args' in
  Alcotest.(check bool) "after invalidate: fresh entry" true (not (e5 == e6))

(* ---- One 1D program through the three facades ---------------------------- *)

(* Ops1 on n cells, Ops on an n x 1 block and Ops3 on an n x 1 x 1 block
   share one rank-3 core, so the same 1D program must give the same bits
   through each of them on every backend: datasets always, the Inc
   reduction too except on Shared, which splits a different axis per
   facade and so reassociates the sum. *)

module Ops1 = Am_ops.Ops1
module Ops3 = Am_ops.Ops3

let rn = 23

(* Every facade seeds its datasets, ghost cells included, with the same
   function of x (absent axes' ghost cells too; no stencil reaches them). *)
let seed x = (Float.of_int (((x + 5) * 37) mod 17) /. 7.0) +. 0.25

let k_diffuse (a : float array array) =
  a.(1).(0) <- a.(0).(0) +. (0.25 *. (a.(0).(1) -. (2.0 *. a.(0).(0)) +. a.(0).(2)))

let k_sumsq (a : float array array) = a.(1).(0) <- a.(1).(0) +. (a.(0).(0) *. a.(0).(0))
let k_index (a : float array array) = a.(2).(0) <- a.(0).(0) +. (1e-3 *. a.(1).(0))

let k_deep (a : float array array) =
  a.(1).(0) <-
    (0.5 *. a.(0).(0)) +. (0.125 *. (a.(0).(1) +. a.(0).(2) +. a.(0).(3) +. a.(0).(4)))

let k_copy (a : float array array) = a.(1).(0) <- a.(0).(0)

(* The program's arguments, stencils as x offsets. *)
type 'd rarg = D of 'd * int array * Access.t | Sum of float array | Idx

type 'd rank_facade = {
  decl : string -> 'd;
  loop : string -> int * int -> 'd rarg list -> (float array array -> unit) -> unit;
  fetch : 'd -> float array;
}

(* Per step: a 3-point diffusion, an Inc reduction, an [arg_idx] loop, a
   stencil reaching the whole ghost depth, and (with [empty]) a loop over
   an empty range whose stencil reaches -halo. *)
let run_program f ~empty ~steps =
  let u = f.decl "u" and w = f.decl "w" in
  let sums = Array.make steps 0.0 in
  for s = 0 to steps - 1 do
    f.loop "diffuse" (0, rn)
      [ D (u, [| 0; -1; 1 |], Access.Read); D (w, [| 0 |], Access.Write) ]
      k_diffuse;
    let acc = [| 0.0 |] in
    f.loop "sumsq" (0, rn) [ D (w, [| 0 |], Access.Read); Sum acc ] k_sumsq;
    sums.(s) <- acc.(0);
    f.loop "index" (0, rn)
      [ D (w, [| 0 |], Access.Read); Idx; D (u, [| 0 |], Access.Write) ]
      k_index;
    f.loop "deep" (0, rn)
      [ D (u, [| 0; -2; -1; 1; 2 |], Access.Read); D (w, [| 0 |], Access.Write) ]
      k_deep;
    if empty then
      f.loop "empty" (0, 0) [ D (u, [| -2 |], Access.Read); D (w, [| 0 |], Access.Write) ]
        k_copy
  done;
  (f.fetch u, f.fetch w, sums)

let ops1_facade backend =
  let ctx = Ops1.create ~backend () in
  let b = Ops1.decl_block ctx ~name:"line" in
  let arg = function
    | D (d, s, a) -> Ops1.arg_dat d s a
    | Sum buf -> Ops1.arg_gbl ~name:"sum" buf Access.Inc
    | Idx -> Ops1.arg_idx
  in
  {
    decl =
      (fun name ->
        let d = Ops1.decl_dat ctx ~name ~block:b ~xsize:rn () in
        Ops1.init ctx d (fun x _ -> seed x);
        d);
    loop =
      (fun name (xlo, xhi) args k ->
        Ops1.par_loop ctx ~name b { xlo; xhi } (List.map arg args) k);
    fetch = Ops1.fetch_interior ctx;
  }

let ops_facade backend =
  let ctx = Ops.create ~backend () in
  let b = Ops.decl_block ctx ~name:"strip" in
  let arg = function
    | D (d, s, a) -> Ops.arg_dat d (Array.map (fun dx -> (dx, 0)) s) a
    | Sum buf -> Ops.arg_gbl ~name:"sum" buf Access.Inc
    | Idx -> Ops.arg_idx
  in
  {
    decl =
      (fun name ->
        let d = Ops.decl_dat ctx ~name ~block:b ~xsize:rn ~ysize:1 () in
        Ops.init ctx d (fun x _ _ -> seed x);
        d);
    loop =
      (fun name (xlo, xhi) args k ->
        Ops.par_loop ctx ~name b { xlo; xhi; ylo = 0; yhi = 1 } (List.map arg args) k);
    fetch = Ops.fetch_interior ctx;
  }

let ops3_facade backend =
  let ctx = Ops3.create ~backend () in
  let b = Ops3.decl_block ctx ~name:"pencil" in
  let arg = function
    | D (d, s, a) -> Ops3.arg_dat d (Array.map (fun dx -> (dx, 0, 0)) s) a
    | Sum buf -> Ops3.arg_gbl ~name:"sum" buf Access.Inc
    | Idx -> Ops3.arg_idx
  in
  {
    decl =
      (fun name ->
        let d = Ops3.decl_dat ctx ~name ~block:b ~xsize:rn ~ysize:1 ~zsize:1 () in
        Ops3.init ctx d (fun x _ _ _ -> seed x);
        d);
    loop =
      (fun name (xlo, xhi) args k ->
        Ops3.par_loop ctx ~name b
          { xlo; xhi; ylo = 0; yhi = 1; zlo = 0; zhi = 1 }
          (List.map arg args) k);
    fetch = Ops3.fetch_interior ctx;
  }

type rank_backend = R_seq | R_shared | R_cuda of bool (* staged *) | R_check

let rank_backend_name = function
  | R_seq -> "seq"
  | R_shared -> "shared"
  | R_cuda staged -> if staged then "cuda staged" else "cuda global"
  | R_check -> "check"

let run_ranks pool rb =
  let steps = 3 in
  let run f = run_program f ~empty:true ~steps in
  let b1, b2, b3 =
    match rb with
    | R_seq -> (Ops1.Seq, Ops.Seq, Ops3.Seq)
    | R_shared -> (Ops1.Shared { pool }, Ops.Shared { pool }, Ops3.Shared { pool })
    | R_check -> (Ops1.Check, Ops.Check, Ops3.Check)
    | R_cuda staged ->
      ( Ops1.Cuda_sim { Am_ops.Exec.tile_x = 5; staged },
        Ops.Cuda_sim
          {
            Am_ops.Exec.tile_x = 5;
            tile_y = 2;
            strategy = (if staged then Am_ops.Exec.Cuda_tiled else Am_ops.Exec.Cuda_global);
          },
        Ops3.Cuda_sim { Am_ops.Exec.tile_x = 5; tile_y = 2; tile_z = 2; staged } )
  in
  [
    ("ops1", run (ops1_facade b1));
    ("ops", run (ops_facade b2));
    ("ops3", run (ops3_facade b3));
  ]

let test_one_core_three_ranks () =
  Pool.with_pool ~size:3 (fun pool ->
      let ru, rw, rsums = run_program (ops1_facade Ops1.Seq) ~empty:true ~steps:3 in
      List.iter
        (fun rb ->
          List.iter
            (fun (facade, (u, w, sums)) ->
              let name = Printf.sprintf "%s on %s" facade (rank_backend_name rb) in
              if not (bitwise u ru && bitwise w rw) then
                Alcotest.failf "%s: datasets differ from ops1 seq" name;
              let same_sums =
                match rb with
                | R_shared -> Array.for_all2 close sums rsums
                | R_seq | R_cuda _ | R_check -> bitwise sums rsums
              in
              if not same_sums then
                Alcotest.failf "%s: reduction differs from ops1 seq" name)
            (run_ranks pool rb))
        [ R_seq; R_shared; R_cuda false; R_cuda true; R_check ])

(* ---- Seq bits pinned across the rank-3 core ------------------------------ *)

(* Digests of the [%h] rendering of every interior value of every dataset
   after short Seq runs, recorded from the code before the 1D, 2D and 3D
   executors were merged.  The 3D apps have no hand-coded baseline to
   --verify against, so this is what holds their Seq path to the bit. *)
let digest arrays =
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          (List.concat_map
             (fun a -> Array.to_list (Array.map (Printf.sprintf "%h") a))
             arrays)))

let check_digest name want arrays = Alcotest.(check string) name want (digest arrays)

let test_digest_tealeaf () =
  let t = Am_tealeaf.App.create ~n:10 () in
  Am_tealeaf.App.run t ~steps:2;
  let c = t.Am_tealeaf.App.ctx in
  check_digest "tealeaf n=10, 2 steps" "2a5e274f7f274b8a0f6719f80852f806"
    (List.map (Ops3.fetch_interior c) (Ops3.dats c))

let test_digest_cloverleaf3 () =
  let t = Am_cloverleaf3.App.create ~n:8 () in
  ignore (Am_cloverleaf3.App.run t ~steps:2);
  let c = t.Am_cloverleaf3.App.ctx in
  check_digest "cloverleaf3 n=8, 2 steps" "e18f4c55a5eedbd565997b39ad122b93"
    (List.map (Ops3.fetch_interior c) (Ops3.dats c))

let test_digest_cloverleaf () =
  let t = CApp.create ~advection:CApp.Van_leer ~nx:24 ~ny:24 () in
  ignore (CApp.run t ~steps:3);
  let c = t.CApp.ctx in
  check_digest "cloverleaf van Leer 24x24, 3 steps" "ed657cd02159819a4cc3ef52d9a4e364"
    (List.map (Ops.fetch_interior c) (Ops.dats c))

let test_digest_ops1 () =
  let u, w, sums = run_program (ops1_facade Ops1.Seq) ~empty:false ~steps:3 in
  check_digest "ops1 program, 3 steps" "5957e030674011b18442fdc77adf24e1" [ u; w; sums ]

let () =
  Alcotest.run "backends"
    [
      ( "airfoil differential",
        [
          Alcotest.test_case "shared = seq" `Quick test_airfoil_shared;
          Alcotest.test_case "vec = seq" `Quick test_airfoil_vec;
          Alcotest.test_case "cuda-sim (all strategies) = seq" `Quick
            test_airfoil_cuda;
        ] );
      ( "cloverleaf differential",
        [
          Alcotest.test_case "shared = seq" `Quick test_clover_shared;
          Alcotest.test_case "cuda-sim (both strategies) = seq" `Quick
            test_clover_cuda;
        ] );
      ( "accessor kernels",
        [
          Alcotest.test_case "airfoil: accessor = staged on every backend" `Quick
            test_airfoil_forms;
          Alcotest.test_case "hydra: accessor = staged on every backend" `Quick
            test_hydra_forms;
          Alcotest.test_case "seq accessor kernels = check, bitwise" `Quick
            test_seq_equals_check;
          Alcotest.test_case "aliased arguments stay staged" `Quick test_aliased_args_staged;
          Alcotest.test_case "element walker on every walker frame, point walker on staging ones"
            `Quick test_elem_dispatch;
        ] );
      ( "OPS accessor kernels",
        [
          Alcotest.test_case "cloverleaf: seq = check and every backend, bitwise" `Quick
            test_clover_forms;
          Alcotest.test_case "dim 3, aliasing, Inc, index, strides: accessor = staged"
            `Quick test_synthetic_forms;
          Alcotest.test_case "range walker once per range on every in-place backend" `Quick
            test_walker_dispatch;
          Alcotest.test_case "point form for aliasing, the index and strides; walker on every tile"
            `Quick test_walker_dispatch_point;
        ] );
      ( "OPS loop programs",
        Alcotest.test_case "a Read global refilled in place is read at each call" `Quick
          test_refilled_global
        :: List.map
             (fun ((name, _, _) as cfg) ->
               Alcotest.test_case (name ^ " = seq") `Quick (test_programs cfg))
             program_configs );
      ( "one core, three ranks",
        [
          Alcotest.test_case "ops1 = ops (n x 1) = ops3 (n x 1 x 1), every backend" `Quick
            test_one_core_three_ranks;
        ] );
      ( "seq bits",
        [
          Alcotest.test_case "tealeaf digest" `Quick test_digest_tealeaf;
          Alcotest.test_case "cloverleaf3 digest" `Quick test_digest_cloverleaf3;
          Alcotest.test_case "cloverleaf van Leer digest" `Quick test_digest_cloverleaf;
          Alcotest.test_case "ops1 program digest" `Quick test_digest_ops1;
        ] );
      ( "plan handles",
        [
          Alcotest.test_case "same signature shares plan+executor" `Quick
            test_handle_shares_plan;
          Alcotest.test_case "signature changes resolve distinct state" `Quick
            test_handle_distinct_on_signature_change;
        ] );
    ]

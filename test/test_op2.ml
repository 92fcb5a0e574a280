(* Backend-equivalence and unit tests for the OP2 active library.

   The central property (and the paper's central claim) is that every
   backend — sequential, shared-memory with two-level colouring, the GPU
   simulator in its three memory strategies, and the distributed
   owner-compute runtime — executes the same abstract program to the same
   result. *)

module Op2 = Am_op2.Op2
module Access = Am_core.Access
module Umesh = Am_mesh.Umesh
module Fa = Am_util.Fa
module Pool = Am_taskpool.Pool

(* A miniature edge-flux + cell-update program in OP2 form: structurally the
   same pattern as Airfoil's res_calc/update pair. *)
type mini = {
  ctx : Op2.ctx;
  cells : Op2.set;
  edges : Op2.set;
  edge_cells : Op2.map_t;
  u : Op2.dat;
  du : Op2.dat;
}

let build_mini ?(nx = 13) ?(ny = 11) () =
  let mesh = Umesh.generate_square ~nx ~ny () in
  let ctx = Op2.create () in
  let cells = Op2.decl_set ctx ~name:"cells" ~size:mesh.Umesh.n_cells in
  let edges = Op2.decl_set ctx ~name:"edges" ~size:mesh.Umesh.n_edges in
  let edge_cells =
    Op2.decl_map ctx ~name:"edge_cells" ~from_set:edges ~to_set:cells ~arity:2
      ~values:mesh.Umesh.edge_cells
  in
  let init = Array.init mesh.Umesh.n_cells (fun c -> sin (Float.of_int c *. 0.1)) in
  let u = Op2.decl_dat ctx ~name:"u" ~set:cells ~dim:1 ~data:init in
  let du = Op2.decl_dat_zero ctx ~name:"du" ~set:cells ~dim:1 in
  { ctx; cells; edges; edge_cells; u; du }

let flux_kernel args =
  let u_l = args.(0) and u_r = args.(1) and du_l = args.(2) and du_r = args.(3) in
  let f = u_r.(0) -. u_l.(0) in
  du_l.(0) <- du_l.(0) +. f;
  du_r.(0) <- du_r.(0) -. f

let update_kernel args =
  let u = args.(0) and du = args.(1) and rms = args.(2) in
  u.(0) <- u.(0) +. (0.1 *. du.(0));
  rms.(0) <- rms.(0) +. (du.(0) *. du.(0));
  du.(0) <- 0.0

(* Run [iters] steps and return (final u, rms history checksum). *)
let run_mini m iters =
  let rms_total = ref 0.0 in
  for _ = 1 to iters do
    Op2.par_loop m.ctx ~name:"flux" m.edges
      [
        Op2.arg_dat_indirect m.u m.edge_cells 0 Access.Read;
        Op2.arg_dat_indirect m.u m.edge_cells 1 Access.Read;
        Op2.arg_dat_indirect m.du m.edge_cells 0 Access.Inc;
        Op2.arg_dat_indirect m.du m.edge_cells 1 Access.Inc;
      ]
      flux_kernel;
    let rms = [| 0.0 |] in
    Op2.par_loop m.ctx ~name:"update" m.cells
      [
        Op2.arg_dat m.u Access.Rw;
        Op2.arg_dat m.du Access.Rw;
        Op2.arg_gbl ~name:"rms" rms Access.Inc;
      ]
      update_kernel;
    rms_total := !rms_total +. rms.(0)
  done;
  (Op2.fetch m.ctx m.u, !rms_total)

let reference = lazy (run_mini (build_mini ()) 5)

let check_matches_reference ?(tol = 1e-10) name (u, rms) =
  let ref_u, ref_rms = Lazy.force reference in
  if not (Fa.approx_equal ~tol ref_u u) then
    Alcotest.failf "%s: solution diverges from sequential (%g)" name
      (Fa.rel_discrepancy ref_u u);
  if Float.abs (rms -. ref_rms) /. (1.0 +. ref_rms) > tol then
    Alcotest.failf "%s: reduction diverges (%g vs %g)" name rms ref_rms

(* ---- Backend equivalence ---- *)

let test_shared_matches_seq () =
  Pool.with_pool ~size:4 (fun pool ->
      let m = build_mini () in
      Op2.set_backend m.ctx (Op2.Shared { pool; block_size = 16 });
      check_matches_reference "shared" (run_mini m 5))

let test_shared_single_worker () =
  Pool.with_pool ~size:1 (fun pool ->
      let m = build_mini () in
      Op2.set_backend m.ctx (Op2.Shared { pool; block_size = 8 });
      check_matches_reference "shared(1)" (run_mini m 5))

let test_vec_matches_seq () =
  List.iter
    (fun width ->
      let m = build_mini () in
      Op2.set_backend m.ctx (Op2.Vec { Am_op2.Exec_vec.width });
      check_matches_reference (Printf.sprintf "vec(%d)" width) (run_mini m 5))
    [ 1; 4; 8; 13 ]

let cuda_strategy_test strategy () =
  let m = build_mini () in
  Op2.set_backend m.ctx
    (Op2.Cuda_sim { Am_op2.Exec_cuda.block_size = 32; strategy });
  check_matches_reference
    (Am_op2.Exec_cuda.strategy_to_string strategy)
    (run_mini m 5)

let dist_test ~n_ranks strategy_of () =
  let m = build_mini () in
  Op2.partition m.ctx ~n_ranks ~strategy:(strategy_of m);
  check_matches_reference (Printf.sprintf "dist(%d)" n_ranks) (run_mini m 5)

let kway_strategy m = Op2.Kway_through m.edge_cells
let block_strategy m = Op2.Block_on m.cells

let test_hybrid_mpi_shared () =
  Pool.with_pool ~size:3 (fun pool ->
      let m = build_mini () in
      Op2.partition m.ctx ~n_ranks:3 ~strategy:(kway_strategy m);
      Op2.set_rank_execution m.ctx (Op2.Rank_shared { pool; block_size = 8 });
      check_matches_reference "mpi+shared" (run_mini m 5))

let test_hybrid_mpi_vec () =
  let m = build_mini () in
  Op2.partition m.ctx ~n_ranks:4 ~strategy:(kway_strategy m);
  Op2.set_rank_execution m.ctx (Op2.Rank_vec { Am_op2.Exec_vec.width = 4 });
  check_matches_reference "mpi+vec" (run_mini m 5)

let test_rank_execution_requires_partition () =
  let m = build_mini () in
  match Op2.set_rank_execution m.ctx Op2.Rank_seq with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected Invalid_argument"

let test_dist_sends_messages () =
  let m = build_mini () in
  Op2.partition m.ctx ~n_ranks:4 ~strategy:(kway_strategy m);
  ignore (run_mini m 2);
  match Op2.comm_stats m.ctx with
  | None -> Alcotest.fail "expected comm stats"
  | Some s ->
    Alcotest.(check bool) "messages flowed" true (s.Am_simmpi.Comm.messages > 0);
    Alcotest.(check bool) "exchanges happened" true (s.Am_simmpi.Comm.exchanges > 0)

let test_dist_direct_loop_no_traffic () =
  let m = build_mini () in
  Op2.partition m.ctx ~n_ranks:3 ~strategy:(block_strategy m);
  (match Op2.comm_stats m.ctx with
  | Some s -> Am_simmpi.Comm.(s.messages <- 0)
  | None -> ());
  (* A purely direct loop must not communicate. *)
  Op2.par_loop m.ctx ~name:"scale" m.cells
    [ Op2.arg_dat m.u Access.Rw ]
    (fun args -> args.(0).(0) <- args.(0).(0) *. 1.01);
  match Op2.comm_stats m.ctx with
  | None -> Alcotest.fail "expected comm stats"
  | Some s -> Alcotest.(check int) "no messages" 0 s.Am_simmpi.Comm.messages

(* ---- Renumbering and layout ---- *)

let test_renumber_preserves_semantics () =
  let m = build_mini () in
  (* Bandwidth may not improve on an already well-ordered generator mesh
     (see the scrambled-mesh test for the improvement claim); here we only
     require that semantics survive the relabeling. *)
  let _before, _after = Op2.renumber m.ctx ~through:m.edge_cells in
  let u, rms = run_mini m 5 in
  (* Results come back in the *new* numbering; compare via an
     order-insensitive statistic plus the reduction value. *)
  let ref_u, ref_rms = Lazy.force reference in
  let sort a = (let c = Array.copy a in Array.sort Float.compare c; c) in
  Alcotest.(check bool) "same multiset of values" true
    (Fa.approx_equal ~tol:1e-10 (sort ref_u) (sort u));
  Alcotest.(check bool) "same reduction" true
    (Float.abs (rms -. ref_rms) /. (1.0 +. ref_rms) < 1e-10)

let test_renumber_improves_scrambled_mesh () =
  let mesh = Umesh.scramble ~seed:9 (Umesh.generate_square ~nx:20 ~ny:20 ()) in
  let ctx = Op2.create () in
  let cells = Op2.decl_set ctx ~name:"cells" ~size:mesh.Umesh.n_cells in
  let edges = Op2.decl_set ctx ~name:"edges" ~size:mesh.Umesh.n_edges in
  let edge_cells =
    Op2.decl_map ctx ~name:"edge_cells" ~from_set:edges ~to_set:cells ~arity:2
      ~values:mesh.Umesh.edge_cells
  in
  ignore cells;
  let before, after = Op2.renumber ctx ~through:edge_cells in
  Alcotest.(check bool) "bandwidth clearly reduced" true (after < before /. 2.0)

let test_renumber_with_hilbert () =
  let mesh = Umesh.scramble ~seed:2 (Umesh.generate_square ~nx:13 ~ny:11 ()) in
  let build () =
    let ctx = Op2.create () in
    let cells = Op2.decl_set ctx ~name:"cells" ~size:mesh.Umesh.n_cells in
    let edges = Op2.decl_set ctx ~name:"edges" ~size:mesh.Umesh.n_edges in
    let e2c =
      Op2.decl_map ctx ~name:"e2c" ~from_set:edges ~to_set:cells ~arity:2
        ~values:mesh.Umesh.edge_cells
    in
    let u =
      Op2.decl_dat ctx ~name:"u" ~set:cells ~dim:1
        ~data:(Array.init mesh.Umesh.n_cells (fun c -> sin (0.1 *. Float.of_int c)))
    in
    let du = Op2.decl_dat_zero ctx ~name:"du" ~set:cells ~dim:1 in
    (ctx, cells, edges, e2c, u, du)
  in
  let run (ctx, cells, edges, e2c, u, du) =
    let rms = [| 0.0 |] in
    for _ = 1 to 4 do
      Op2.par_loop ctx ~name:"flux" edges
        [
          Op2.arg_dat_indirect u e2c 0 Access.Read;
          Op2.arg_dat_indirect u e2c 1 Access.Read;
          Op2.arg_dat_indirect du e2c 0 Access.Inc;
          Op2.arg_dat_indirect du e2c 1 Access.Inc;
        ]
        flux_kernel;
      Op2.par_loop ctx ~name:"update" cells
        [ Op2.arg_dat u Access.Rw; Op2.arg_dat du Access.Rw;
          Op2.arg_gbl ~name:"rms" rms Access.Inc ]
        update_kernel
    done;
    rms.(0)
  in
  let plain = run (build ()) in
  let ((ctx, cells, _, _, _, _) as prog) = build () in
  let perm =
    Am_mesh.Reorder.hilbert ~coords:(Umesh.cell_centroids mesh) ~dim:2
      ~n:mesh.Umesh.n_cells ()
  in
  Op2.renumber_with ctx ~set:cells ~perm;
  let renumbered = run prog in
  Alcotest.(check bool) "rms invariant under hilbert renumbering" true
    (Float.abs (plain -. renumbered) /. (1.0 +. plain) < 1e-10)

(* Renumbering a warm program: every handle holds an executor and a plan
   over the old numbering's arrays, so the next call must compile and
   colour afresh.  Each backend then gives Seq's renumbered results, and
   Check finds the rebuilt plan race-free. *)
let test_renumber_warm () =
  let run_renumbered configure =
    let m = build_mini () in
    configure m.ctx;
    ignore (run_mini m 2);
    (* Cuda_sim SOA left its datasets in SoA; renumbering wants AoS. *)
    List.iter (fun d -> Op2.convert_layout m.ctx d Op2.Aos) (Op2.dats m.ctx);
    ignore (Op2.renumber m.ctx ~through:m.edge_cells);
    let builds = Am_obs.Counters.value Am_obs.Obs.plan_builds in
    let result = run_mini m 3 in
    (result, Am_obs.Counters.value Am_obs.Obs.plan_builds - builds)
  in
  let (ref_u, ref_rms), _ = run_renumbered ignore in
  let cuda strategy = Op2.Cuda_sim { Am_op2.Exec_cuda.block_size = 32; strategy } in
  Pool.with_pool ~size:2 (fun pool ->
      List.iter
        (fun (name, backend) ->
          let (u, rms), builds = run_renumbered (fun ctx -> Op2.set_backend ctx backend) in
          if not (Fa.approx_equal ~tol:1e-10 ref_u u) then
            Alcotest.failf "%s: renumbered solution diverges from seq (%g)" name
              (Fa.rel_discrepancy ref_u u);
          if Float.abs (rms -. ref_rms) /. (1.0 +. ref_rms) > 1e-10 then
            Alcotest.failf "%s: renumbered reduction diverges (%g vs %g)" name rms ref_rms;
          if builds = 0 then Alcotest.failf "%s: no plan rebuilt after renumbering" name)
        [
          ("shared", Op2.Shared { pool; block_size = 16 });
          ("vec", Op2.Vec { Am_op2.Exec_vec.width = 4 });
          ("cuda NOSOA", cuda Am_op2.Exec_cuda.Global_aos);
          ("cuda SOA", cuda Am_op2.Exec_cuda.Global_soa);
          ("cuda STAGED", cuda Am_op2.Exec_cuda.Staged);
          ("check", Op2.Check);
        ])

let test_convert_layout_roundtrip () =
  let m = build_mini () in
  let orig = Op2.fetch m.ctx m.u in
  Op2.convert_layout m.ctx m.u Op2.Soa;
  Alcotest.(check bool) "fetch normalises layout" true
    (Fa.approx_equal ~tol:0.0 orig (Op2.fetch m.ctx m.u));
  Op2.convert_layout m.ctx m.u Op2.Aos;
  Alcotest.(check bool) "roundtrip" true (Fa.approx_equal ~tol:0.0 orig (Op2.fetch m.ctx m.u))

(* [update] writes into the dataset's own array: a later write to the
   caller's array never reaches the dataset, and the executors compiled
   against the array stay valid, so a warm call after it compiles
   nothing.  On a SoA dataset it converts as it copies. *)
let test_update_copies () =
  let m = build_mini () in
  ignore (run_mini m 1);
  let mine = Array.map (fun v -> v +. 1.0) (Op2.fetch m.ctx m.u) in
  let want = Array.copy mine in
  let misses = Am_obs.Counters.value Am_obs.Obs.exec_misses in
  Op2.update m.ctx m.u mine;
  mine.(0) <- 99.0;
  Alcotest.(check bool) "the caller's later write never reaches the dataset" true
    (Fa.approx_equal ~tol:0.0 want (Op2.fetch m.ctx m.u));
  ignore (run_mini m 1);
  Alcotest.(check int) "update and a warm call compile no executor" 0
    (Am_obs.Counters.value Am_obs.Obs.exec_misses - misses);
  Op2.convert_layout m.ctx m.du Op2.Soa;
  Op2.update m.ctx m.du want;
  Alcotest.(check bool) "a SoA dataset reads back what update wrote" true
    (Fa.approx_equal ~tol:0.0 want (Op2.fetch m.ctx m.du))

let test_soa_execution_matches () =
  let m = build_mini () in
  Op2.convert_layout m.ctx m.u Op2.Soa;
  Op2.convert_layout m.ctx m.du Op2.Soa;
  check_matches_reference "soa layout on seq backend" (run_mini m 5)

(* ---- Globals ---- *)

let test_gbl_min_max () =
  let m = build_mini () in
  let mn = [| Float.infinity |] and mx = [| Float.neg_infinity |] in
  Op2.par_loop m.ctx ~name:"minmax" m.cells
    [
      Op2.arg_dat m.u Access.Read;
      Op2.arg_gbl ~name:"mn" mn Access.Min;
      Op2.arg_gbl ~name:"mx" mx Access.Max;
    ]
    (fun args ->
      let u = args.(0) in
      args.(1).(0) <- Float.min args.(1).(0) u.(0);
      args.(2).(0) <- Float.max args.(2).(0) u.(0));
  let data = Op2.fetch m.ctx m.u in
  let expect_min = Array.fold_left Float.min Float.infinity data in
  let expect_max = Array.fold_left Float.max Float.neg_infinity data in
  Alcotest.(check (float 1e-12)) "min" expect_min mn.(0);
  Alcotest.(check (float 1e-12)) "max" expect_max mx.(0)

let test_gbl_min_max_dist () =
  let m = build_mini () in
  Op2.partition m.ctx ~n_ranks:3 ~strategy:(kway_strategy m);
  let mn = [| Float.infinity |] and mx = [| Float.neg_infinity |] in
  Op2.par_loop m.ctx ~name:"minmax" m.cells
    [
      Op2.arg_dat m.u Access.Read;
      Op2.arg_gbl ~name:"mn" mn Access.Min;
      Op2.arg_gbl ~name:"mx" mx Access.Max;
    ]
    (fun args ->
      args.(1).(0) <- Float.min args.(1).(0) args.(0).(0);
      args.(2).(0) <- Float.max args.(2).(0) args.(0).(0));
  let data = Op2.fetch m.ctx m.u in
  Alcotest.(check (float 1e-12)) "min" (Array.fold_left Float.min infinity data) mn.(0);
  Alcotest.(check (float 1e-12)) "max"
    (Array.fold_left Float.max neg_infinity data)
    mx.(0)

let test_gbl_read_broadcast () =
  let m = build_mini () in
  let alpha = [| 2.5 |] in
  Op2.par_loop m.ctx ~name:"scale" m.cells
    [ Op2.arg_dat m.u Access.Rw; Op2.arg_gbl ~name:"alpha" alpha Access.Read ]
    (fun args -> args.(0).(0) <- args.(0).(0) *. args.(1).(0));
  Alcotest.(check (float 0.0)) "alpha untouched" 2.5 alpha.(0)

(* ---- Validation / misuse ---- *)

let expect_invalid f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_validation_errors () =
  let m = build_mini () in
  (* Direct dat on the wrong set. *)
  expect_invalid (fun () ->
      Op2.par_loop m.ctx ~name:"bad" m.edges [ Op2.arg_dat m.u Access.Read ] ignore);
  (* Map from the wrong set. *)
  expect_invalid (fun () ->
      Op2.par_loop m.ctx ~name:"bad" m.cells
        [ Op2.arg_dat_indirect m.u m.edge_cells 0 Access.Read ]
        ignore);
  (* Map index out of range. *)
  expect_invalid (fun () ->
      Op2.par_loop m.ctx ~name:"bad" m.edges
        [ Op2.arg_dat_indirect m.u m.edge_cells 2 Access.Read ]
        ignore);
  (* Write access on a global. *)
  expect_invalid (fun () ->
      Op2.par_loop m.ctx ~name:"bad" m.cells
        [ Op2.arg_gbl ~name:"g" [| 0.0 |] Access.Write ]
        ignore);
  (* Min access on a dat. *)
  expect_invalid (fun () ->
      Op2.par_loop m.ctx ~name:"bad" m.cells [ Op2.arg_dat m.u Access.Min ] ignore)

let test_decl_errors () =
  let ctx = Op2.create () in
  let s = Op2.decl_set ctx ~name:"s" ~size:4 in
  expect_invalid (fun () -> Op2.decl_dat ctx ~name:"d" ~set:s ~dim:2 ~data:[| 0.0 |]);
  expect_invalid (fun () ->
      Op2.decl_map ctx ~name:"m" ~from_set:s ~to_set:s ~arity:1 ~values:[| 0; 1; 2; 9 |])

(* ---- Profiling and tracing ---- *)

let test_profile_records () =
  let m = build_mini () in
  ignore (run_mini m 3);
  match Am_core.Profile.find (Op2.profile m.ctx) "flux" with
  | None -> Alcotest.fail "flux not profiled"
  | Some e ->
    Alcotest.(check int) "three calls" 3 e.Am_core.Profile.count;
    Alcotest.(check bool) "bytes counted" true (e.Am_core.Profile.bytes > 0)

let test_plan_report_and_dump () =
  let m = build_mini () in
  ignore (run_mini m 1);
  (* Seq backend builds no plans; shared does. *)
  Alcotest.(check bool) "empty report" true
    (Str_contains.contains (Op2.plan_report m.ctx) "none built yet");
  Pool.with_pool ~size:2 (fun pool ->
      Op2.set_backend m.ctx (Op2.Shared { pool; block_size = 16 });
      ignore (run_mini m 1));
  let report = Op2.plan_report m.ctx in
  Alcotest.(check bool) "flux plan listed" true (Str_contains.contains report "flux");
  Alcotest.(check bool) "colours reported" true
    (Str_contains.contains report "block colour");
  (* Dataset dump roundtrip-ish: header + one line per element. *)
  let path = Filename.temp_file "op2_dump" ".txt" in
  Op2.dump_dat m.ctx m.u ~path;
  let ic = open_in path in
  let header = input_line ic in
  let lines = ref 0 in
  (try
     while true do
       ignore (input_line ic);
       incr lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "header names dat" true (Str_contains.contains header "u");
  Alcotest.(check int) "one line per element" m.cells.Am_op2.Types.set_size !lines

let test_partition_report () =
  let m = build_mini () in
  Alcotest.(check string) "unpartitioned" "not partitioned\n" (Op2.partition_report m.ctx);
  Op2.partition m.ctx ~n_ranks:3 ~strategy:(Op2.Kway_through m.edge_cells);
  let r = Op2.partition_report m.ctx in
  Alcotest.(check bool) "ranks" true (Str_contains.contains r "3 ranks");
  Alcotest.(check bool) "cells set" true (Str_contains.contains r "cells");
  Alcotest.(check bool) "halo info" true (Str_contains.contains r "halo copies")

let test_trace_records () =
  let m = build_mini () in
  Am_core.Trace.set_enabled (Op2.trace m.ctx) true;
  ignore (run_mini m 2);
  let events = Am_core.Trace.events (Op2.trace m.ctx) in
  Alcotest.(check int) "four loops traced" 4 (List.length events);
  let first = List.hd events in
  Alcotest.(check string) "name" "flux" first.Am_core.Descr.loop_name;
  Alcotest.(check bool) "indirection seen" true (Am_core.Descr.has_indirection first)

(* ---- Properties ---- *)

(* Flux antisymmetry makes sum(du) = 0 an invariant before update; after a
   full step, sum(u) is conserved. Check across backends and mesh sizes. *)
let prop_conservation_all_backends =
  QCheck.Test.make ~name:"sum(u) conserved on every backend" ~count:20
    (QCheck.make
       QCheck.Gen.(triple (int_range 3 10) (int_range 3 10) (int_range 0 4)))
    (fun (nx, ny, which) ->
      let m = build_mini ~nx ~ny () in
      (match which with
      | 0 -> ()
      | 1 ->
        Op2.set_backend m.ctx
          (Op2.Cuda_sim { Am_op2.Exec_cuda.block_size = 16; strategy = Am_op2.Exec_cuda.Staged })
      | 2 ->
        Op2.set_backend m.ctx
          (Op2.Cuda_sim
             { Am_op2.Exec_cuda.block_size = 16; strategy = Am_op2.Exec_cuda.Global_soa })
      | 3 -> Op2.partition m.ctx ~n_ranks:2 ~strategy:(Op2.Kway_through m.edge_cells)
      | _ -> Op2.partition m.ctx ~n_ranks:5 ~strategy:(Op2.Block_on m.cells));
      let sum0 = Fa.sum (Op2.fetch m.ctx m.u) in
      ignore (run_mini m 3);
      let sum1 = Fa.sum (Op2.fetch m.ctx m.u) in
      Float.abs (sum1 -. sum0) < 1e-8)

(* Random-program equivalence: a program with randomised dataset dims,
   kernel coefficients and mesh size must produce identical results on a
   randomly chosen backend and the sequential reference. *)
let random_program ~seed ~nx ~ny configure =
  let rng = Am_util.Prng.create seed in
  let dim_u = 1 + Am_util.Prng.int rng 3 in
  let c1 = Am_util.Prng.float_range rng (-1.0) 1.0 in
  let c2 = Am_util.Prng.float_range rng (-0.5) 0.5 in
  let mesh = Umesh.generate_square ~nx ~ny () in
  let ctx = Op2.create () in
  let cells = Op2.decl_set ctx ~name:"cells" ~size:mesh.Umesh.n_cells in
  let edges = Op2.decl_set ctx ~name:"edges" ~size:mesh.Umesh.n_edges in
  let e2c =
    Op2.decl_map ctx ~name:"e2c" ~from_set:edges ~to_set:cells ~arity:2
      ~values:mesh.Umesh.edge_cells
  in
  let u =
    Op2.decl_dat ctx ~name:"u" ~set:cells ~dim:dim_u
      ~data:(Array.init (mesh.Umesh.n_cells * dim_u) (fun i -> sin (0.37 *. Float.of_int i)))
  in
  let w = Op2.decl_dat_zero ctx ~name:"w" ~set:cells ~dim:dim_u in
  configure ctx e2c;
  let total = [| 0.0 |] in
  for _ = 1 to 3 do
    Op2.par_loop ctx ~name:"rand_edge" edges
      [
        Op2.arg_dat_indirect u e2c 0 Access.Read;
        Op2.arg_dat_indirect u e2c 1 Access.Read;
        Op2.arg_dat_indirect w e2c 0 Access.Inc;
        Op2.arg_dat_indirect w e2c 1 Access.Inc;
      ]
      (fun a ->
        for d = 0 to dim_u - 1 do
          let f = (c1 *. a.(1).(d)) -. (c1 *. a.(0).(d)) in
          a.(2).(d) <- a.(2).(d) +. f;
          a.(3).(d) <- a.(3).(d) -. f
        done);
    Op2.par_loop ctx ~name:"rand_cell" cells
      [
        Op2.arg_dat u Access.Rw;
        Op2.arg_dat w Access.Rw;
        Op2.arg_gbl ~name:"total" total Access.Inc;
      ]
      (fun a ->
        for d = 0 to dim_u - 1 do
          a.(0).(d) <- a.(0).(d) +. (c2 *. a.(1).(d));
          total.(0) <- total.(0) +. a.(0).(d);
          a.(1).(d) <- 0.0
        done)
  done;
  (Op2.fetch ctx u, total.(0))

let prop_random_program_backend_equivalence =
  QCheck.Test.make ~name:"random programs agree on every backend" ~count:40
    (QCheck.make
       QCheck.Gen.(
         quad (int_range 0 1000) (int_range 3 12) (int_range 3 12) (int_range 0 6)))
    (fun (seed, nx, ny, which) ->
      let configure ctx e2c =
        match which with
        | 0 -> Op2.set_backend ctx (Op2.Vec { Am_op2.Exec_vec.width = 4 })
        | 1 ->
          Op2.set_backend ctx
            (Op2.Cuda_sim
               { Am_op2.Exec_cuda.block_size = 16; strategy = Am_op2.Exec_cuda.Staged })
        | 2 ->
          Op2.set_backend ctx
            (Op2.Cuda_sim
               { Am_op2.Exec_cuda.block_size = 16;
                 strategy = Am_op2.Exec_cuda.Global_soa })
        | 3 -> Op2.partition ctx ~n_ranks:3 ~strategy:(Op2.Kway_through e2c)
        | 4 -> Op2.partition ctx ~n_ranks:2 ~strategy:(Op2.Block_on e2c.Am_op2.Types.to_set)
        | 5 ->
          (* Distributed with eager halo exchanges: more traffic, same
             results. *)
          Op2.partition ctx ~n_ranks:3 ~strategy:(Op2.Kway_through e2c);
          Op2.set_halo_policy ctx Op2.Eager
        | _ ->
          Op2.set_backend ctx
            (Op2.Cuda_sim
               { Am_op2.Exec_cuda.block_size = 8; strategy = Am_op2.Exec_cuda.Global_aos })
      in
      let u_ref, t_ref = random_program ~seed ~nx ~ny (fun _ _ -> ()) in
      let u, t = random_program ~seed ~nx ~ny configure in
      Fa.approx_equal ~tol:1e-10 u_ref u
      && Float.abs (t -. t_ref) /. (1.0 +. Float.abs t_ref) < 1e-10)

let () =
  Alcotest.run "op2"
    [
      ( "backend equivalence",
        [
          Alcotest.test_case "shared(4) = seq" `Quick test_shared_matches_seq;
          Alcotest.test_case "shared(1) = seq" `Quick test_shared_single_worker;
          Alcotest.test_case "vec = seq (widths 1,4,8,13)" `Quick test_vec_matches_seq;
          Alcotest.test_case "cuda NOSOA = seq" `Quick
            (cuda_strategy_test Am_op2.Exec_cuda.Global_aos);
          Alcotest.test_case "cuda SOA = seq" `Quick
            (cuda_strategy_test Am_op2.Exec_cuda.Global_soa);
          Alcotest.test_case "cuda STAGED = seq" `Quick
            (cuda_strategy_test Am_op2.Exec_cuda.Staged);
          Alcotest.test_case "dist kway(2) = seq" `Quick
            (dist_test ~n_ranks:2 kway_strategy);
          Alcotest.test_case "dist kway(5) = seq" `Quick
            (dist_test ~n_ranks:5 kway_strategy);
          Alcotest.test_case "dist block(3) = seq" `Quick
            (dist_test ~n_ranks:3 block_strategy);
          Alcotest.test_case "dist(1) = seq" `Quick (dist_test ~n_ranks:1 kway_strategy);
          Alcotest.test_case "hybrid mpi+shared" `Quick test_hybrid_mpi_shared;
          Alcotest.test_case "hybrid mpi+vec" `Quick test_hybrid_mpi_vec;
          Alcotest.test_case "rank exec needs partition" `Quick
            test_rank_execution_requires_partition;
          Alcotest.test_case "dist sends messages" `Quick test_dist_sends_messages;
          Alcotest.test_case "direct loop: no traffic" `Quick
            test_dist_direct_loop_no_traffic;
        ] );
      ( "renumber/layout",
        [
          Alcotest.test_case "renumber preserves semantics" `Quick
            test_renumber_preserves_semantics;
          Alcotest.test_case "renumber improves scrambled" `Quick
            test_renumber_improves_scrambled_mesh;
          Alcotest.test_case "hilbert renumbering" `Quick test_renumber_with_hilbert;
          Alcotest.test_case "renumber a warm program" `Quick test_renumber_warm;
          Alcotest.test_case "layout roundtrip" `Quick test_convert_layout_roundtrip;
          Alcotest.test_case "SoA execution matches" `Quick test_soa_execution_matches;
          Alcotest.test_case "update copies into the dataset" `Quick test_update_copies;
        ] );
      ( "globals",
        [
          Alcotest.test_case "min/max" `Quick test_gbl_min_max;
          Alcotest.test_case "min/max distributed" `Quick test_gbl_min_max_dist;
          Alcotest.test_case "read broadcast" `Quick test_gbl_read_broadcast;
        ] );
      ( "validation",
        [
          Alcotest.test_case "par_loop misuse" `Quick test_validation_errors;
          Alcotest.test_case "decl misuse" `Quick test_decl_errors;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "profile" `Quick test_profile_records;
          Alcotest.test_case "plan report + dump" `Quick test_plan_report_and_dump;
          Alcotest.test_case "partition report" `Quick test_partition_report;
          Alcotest.test_case "trace" `Quick test_trace_records;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_conservation_all_backends;
          QCheck_alcotest.to_alcotest prop_random_program_backend_equivalence;
        ] );
    ]

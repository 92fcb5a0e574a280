(* Tests for the Airfoil proxy application: physical sanity, hand-coded
   equivalence, and backend equivalence on the full solver. *)

module App = Am_airfoil.App
module Hand = Am_airfoil.Hand
module Kernels = Am_airfoil.Kernels
module Op2 = Am_op2.Op2
module Umesh = Am_mesh.Umesh
module Fa = Am_util.Fa
module Pool = Am_taskpool.Pool

let mesh = lazy (Umesh.generate_airfoil ~nx:24 ~ny:16 ())

let reference = lazy (
  let t = App.create (Lazy.force mesh) in
  let rms = App.run t ~iters:5 in
  (App.solution t, rms))

let check_matches ?(tol = 1e-10) name (sol, rms) =
  let ref_sol, ref_rms = Lazy.force reference in
  if not (Fa.approx_equal ~tol ref_sol sol) then
    Alcotest.failf "%s: solution diverges (%g)" name (Fa.rel_discrepancy ref_sol sol);
  if Float.abs (rms -. ref_rms) /. (1.0 +. ref_rms) > tol then
    Alcotest.failf "%s: rms diverges (%g vs %g)" name rms ref_rms

(* ---- Physics sanity ---- *)

let test_rms_decreases () =
  (* Explicit solver from free stream: the residual must decay over time. *)
  let t = App.create (Lazy.force mesh) in
  let early = App.run t ~iters:3 in
  let late = App.run t ~iters:50 in
  Alcotest.(check bool) "finite early" true (Float.is_finite early);
  Alcotest.(check bool) "decays" true (late < early)

let test_solution_stays_finite () =
  let t = App.create (Lazy.force mesh) in
  ignore (App.run t ~iters:30);
  Alcotest.(check bool) "finite state" true (Fa.is_finite (App.solution t))

let test_density_positive () =
  let t = App.create (Lazy.force mesh) in
  ignore (App.run t ~iters:30);
  let q = App.solution t in
  let n = Array.length q / 4 in
  for c = 0 to n - 1 do
    if q.(4 * c) <= 0.0 then Alcotest.failf "cell %d: non-positive density" c
  done

let test_freestream_preserved_without_walls () =
  (* On a mesh whose "bump" is absent (flat channel with uniform inflow and
     free-stream everywhere), the free stream is an exact steady state of
     the interior discretisation; residuals reflect only boundary effects.
     Weak check: one iteration from free stream leaves q within a small
     neighbourhood of the free stream. *)
  let t = App.create (Lazy.force mesh) in
  ignore (App.iteration t);
  let q = App.solution t in
  let n = Array.length q / 4 in
  for c = 0 to n - 1 do
    if Float.abs (q.(4 * c) -. Kernels.qinf.(0)) > 0.2 then
      Alcotest.failf "cell %d: density drifted far after one step" c
  done

(* ---- Hand-coded equivalence ---- *)

let test_hand_matches_op2 () =
  let h = Hand.create (Lazy.force mesh) in
  let rms = Hand.run h ~iters:5 in
  check_matches "hand-coded" (Hand.solution h, rms)

(* ---- Backend equivalence on the full app ---- *)

let run_with_backend setup =
  let t = App.create (Lazy.force mesh) in
  setup t;
  let rms = App.run t ~iters:5 in
  (App.solution t, rms)

let test_shared_backend () =
  Pool.with_pool ~size:4 (fun pool ->
      check_matches "shared"
        (run_with_backend (fun t ->
             Op2.set_backend t.App.ctx (Op2.Shared { pool; block_size = 64 }))))

let test_vec_backend () =
  check_matches "vec(8)"
    (run_with_backend (fun t ->
         Op2.set_backend t.App.ctx (Op2.Vec { Am_op2.Exec_vec.width = 8 })))

let test_cuda_staged_backend () =
  check_matches "cuda staged"
    (run_with_backend (fun t ->
         Op2.set_backend t.App.ctx
           (Op2.Cuda_sim
              { Am_op2.Exec_cuda.block_size = 64; strategy = Am_op2.Exec_cuda.Staged })))

let test_cuda_soa_backend () =
  check_matches "cuda soa"
    (run_with_backend (fun t ->
         Op2.set_backend t.App.ctx
           (Op2.Cuda_sim
              { Am_op2.Exec_cuda.block_size = 64; strategy = Am_op2.Exec_cuda.Global_soa })))

let test_mpi_backend () =
  check_matches "mpi(4)"
    (run_with_backend (fun t ->
         Op2.partition t.App.ctx ~n_ranks:4
           ~strategy:(Op2.Kway_through t.App.edge_cells)))

let test_hybrid_backend () =
  Pool.with_pool ~size:2 (fun pool ->
      check_matches "mpi+shared(4)"
        (run_with_backend (fun t ->
             Op2.partition t.App.ctx ~n_ranks:4
               ~strategy:(Op2.Kway_through t.App.edge_cells);
             Op2.set_rank_execution t.App.ctx
               (Op2.Rank_shared { pool; block_size = 32 }))))

let test_eager_halo_policy () =
  (* Eager exchanges must change traffic, never results. *)
  let run policy =
    let t = App.create (Lazy.force mesh) in
    Op2.partition t.App.ctx ~n_ranks:4 ~strategy:(Op2.Kway_through t.App.edge_cells);
    Op2.set_halo_policy t.App.ctx policy;
    let rms = App.run t ~iters:3 in
    let stats = Option.get (Op2.comm_stats t.App.ctx) in
    (App.solution t, rms, stats.Am_simmpi.Comm.bytes)
  in
  let sol_e, rms_e, bytes_e = run Op2.Eager in
  let sol_o, rms_o, bytes_o = run Op2.On_demand in
  if not (Fa.approx_equal ~tol:0.0 sol_e sol_o) then
    Alcotest.fail "eager halo policy changed the solution";
  Alcotest.(check (float 0.0)) "rms identical" rms_o rms_e;
  Alcotest.(check bool) "eager moves strictly more bytes" true (bytes_e > bytes_o)

let test_mpi_rcb_backend () =
  check_matches "mpi rcb(3)"
    (run_with_backend (fun t ->
         Op2.partition t.App.ctx ~n_ranks:3 ~strategy:(Op2.Rcb_on t.App.x)))

let test_renumbered_matches_rms () =
  (* Renumbering relabels cells; the RMS residual is order-insensitive. *)
  let t = App.create (Lazy.force mesh) in
  ignore (Op2.renumber t.App.ctx ~through:t.App.edge_cells);
  let rms = App.run t ~iters:5 in
  let _, ref_rms = Lazy.force reference in
  Alcotest.(check bool) "rms invariant under renumbering" true
    (Float.abs (rms -. ref_rms) /. (1.0 +. ref_rms) < 1e-10)

let test_scrambled_mesh_same_rms () =
  (* The scrambled mesh is the same physical problem: RMS must agree. *)
  let t = App.create (Umesh.scramble ~seed:42 (Lazy.force mesh)) in
  let rms = App.run t ~iters:5 in
  let _, ref_rms = Lazy.force reference in
  Alcotest.(check bool) "rms invariant under relabeling" true
    (Float.abs (rms -. ref_rms) /. (1.0 +. ref_rms) < 1e-10)

let test_trace_shape () =
  (* One iteration = save_soln + 2 x (adt res bres update) = 9 loops: the
     periodic structure Fig 8's speculative checkpointing exploits. *)
  let t = App.create (Lazy.force mesh) in
  Am_core.Trace.set_enabled (Op2.trace t.App.ctx) true;
  ignore (App.iteration t);
  ignore (App.iteration t);
  let events = Am_core.Trace.events (Op2.trace t.App.ctx) in
  Alcotest.(check int) "18 loops over two iterations" 18 (List.length events);
  Alcotest.(check (option int)) "9-periodic" (Some 9)
    (Am_checkpoint.Planner.detect_period events)

(* ---- Automatic checkpointing through the context ---- *)

let test_automatic_checkpoint_recovery () =
  let mesh_cp = Umesh.generate_airfoil ~nx:16 ~ny:12 () in
  let iters = 6 in
  (* Ground truth. *)
  let truth = App.create mesh_cp in
  ignore (App.run truth ~iters);
  (* Run with automatic checkpointing: request partway, persist to disk. *)
  let live = App.create mesh_cp in
  Op2.enable_checkpointing live.App.ctx;
  ignore (App.run live ~iters:3);
  Op2.request_checkpoint live.App.ctx;
  ignore (App.run live ~iters:(iters - 3));
  (* The checkpointed run must be unperturbed. *)
  Alcotest.(check bool) "checkpointing is transparent" true
    (Fa.approx_equal ~tol:0.0 (App.solution truth) (App.solution live));
  let session = Option.get (Op2.checkpoint_session live.App.ctx) in
  Alcotest.(check bool) "saved less than all state" true
    (Am_checkpoint.Runtime.saved_units session
     < 13 * mesh_cp.Umesh.n_cells (* q+qold+res+adt dims = 13 per cell *));
  let path = Filename.temp_file "airfoil_auto_cp" ".snap" in
  Op2.checkpoint_to_file live.App.ctx ~path;
  (* "Crash": a fresh application recovers from the file and re-runs the
     whole program; loops before the checkpoint are skipped. *)
  let recovered = App.create mesh_cp in
  Op2.recover_from_file recovered.App.ctx ~path;
  ignore (App.run recovered ~iters);
  Sys.remove path;
  Alcotest.(check bool) "recovered bit-identical" true
    (Fa.approx_equal ~tol:0.0 (App.solution truth) (App.solution recovered))

let test_distributed_checkpoint_recovery () =
  (* The paper's checkpointing works under MPI too: the snapshot accessors
     gather from / scatter to the rank-local windows, so a partitioned run
     checkpoints and recovers exactly like a serial one — including
     recovery onto a *different* rank count. *)
  let mesh_cp = Umesh.generate_airfoil ~nx:16 ~ny:12 () in
  let iters = 6 in
  let make ~ranks =
    let t = App.create mesh_cp in
    Op2.partition t.App.ctx ~n_ranks:ranks ~strategy:(Op2.Kway_through t.App.edge_cells);
    t
  in
  let truth = make ~ranks:4 in
  ignore (App.run truth ~iters);
  let live = make ~ranks:4 in
  Op2.enable_checkpointing live.App.ctx;
  ignore (App.run live ~iters:3);
  Op2.request_checkpoint live.App.ctx;
  ignore (App.run live ~iters:(iters - 3));
  Alcotest.(check bool) "checkpointing transparent under mpi" true
    (Fa.approx_equal ~tol:0.0 (App.solution truth) (App.solution live));
  let path = Filename.temp_file "airfoil_mpi_cp" ".snap" in
  Op2.checkpoint_to_file live.App.ctx ~path;
  (* Same decomposition: recovery is bit-identical. *)
  let recovered = make ~ranks:4 in
  Op2.recover_from_file recovered.App.ctx ~path;
  ignore (App.run recovered ~iters);
  Alcotest.(check bool) "recovered on 4 ranks bit-identical" true
    (Fa.approx_equal ~tol:0.0 (App.solution truth) (App.solution recovered));
  (* Different decomposition: the snapshot is stored in global ordering, so
     a restart on 3 ranks also works — equal up to the partition-dependent
     order of halo-reduction sums (same tolerance class as dist-vs-seq). *)
  let recovered3 = make ~ranks:3 in
  Op2.recover_from_file recovered3.App.ctx ~path;
  ignore (App.run recovered3 ~iters);
  Sys.remove path;
  Alcotest.(check bool) "recovered on 3 ranks equal to fp tolerance" true
    (Fa.approx_equal ~tol:1e-10 (App.solution truth) (App.solution recovered3))

let test_checkpoint_requires_enable () =
  let t = App.create (Lazy.force mesh) in
  match Op2.request_checkpoint t.App.ctx with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected Invalid_argument"

(* ---- Allocation ---- *)

(* One Seq iteration of the benchmark mesh (120x80) through the accessor
   entry point: in-place addressing leaves only per-call bookkeeping (about
   5k words), so any per-element boxing — a cross-module accessor helper,
   a local closure over floats — overshoots the 20k budget at once. *)
let test_alloc_budget () =
  let t = App.create (Umesh.generate_airfoil ~nx:120 ~ny:80 ()) in
  ignore (App.iteration t);
  let words = Gc_util.minor_words (fun () -> ignore (App.iteration t)) in
  if words > 20_000.0 then
    Alcotest.failf "one Seq iteration allocated %.0f minor words (budget 20000)" words

(* One warm Check iteration at 48x32.  Before any element runs, Check
   proves the map entries each loop loads and the plan of every loop with
   indirect writes race-free, walking its colours and elements with
   loops: 5.1k minor words, where a closure per element at both colour
   levels allocated 194.6k. *)
let test_check_alloc_budget () =
  let t = App.create ~backend:Op2.Check (Umesh.generate_airfoil ~nx:48 ~ny:32 ()) in
  ignore (App.iteration t);
  let words = Gc_util.minor_words (fun () -> ignore (App.iteration t)) in
  if words > 6_400.0 then
    Alcotest.failf "one Check iteration allocated %.0f minor words (budget 6400)" words

(* A warm executor freshness check walks the compiled arguments and the
   argument list together: on res_calc's eight arguments it allocates
   nothing, where converting the array to a list took 29 words a call. *)
let test_compiled_matches_alloc () =
  let t = App.create (Lazy.force mesh) in
  ignore (App.iteration t);
  let args =
    [
      Op2.arg_dat_indirect t.App.x t.App.edge_nodes 0 Am_core.Access.Read;
      Op2.arg_dat_indirect t.App.x t.App.edge_nodes 1 Am_core.Access.Read;
      Op2.arg_dat_indirect t.App.q t.App.edge_cells 0 Am_core.Access.Read;
      Op2.arg_dat_indirect t.App.q t.App.edge_cells 1 Am_core.Access.Read;
      Op2.arg_dat_indirect t.App.adt t.App.edge_cells 0 Am_core.Access.Read;
      Op2.arg_dat_indirect t.App.adt t.App.edge_cells 1 Am_core.Access.Read;
      Op2.arg_dat_indirect t.App.res t.App.edge_cells 0 Am_core.Access.Inc;
      Op2.arg_dat_indirect t.App.res t.App.edge_cells 1 Am_core.Access.Inc;
    ]
  in
  let compiled = Am_op2.Exec_common.compile args in
  let matches = ref true in
  let check () =
    for _ = 1 to 100 do
      matches := !matches && Am_op2.Exec_common.compiled_matches compiled args
    done
  in
  let words = Gc_util.minor_words check -. Gc_util.minor_words (fun () -> ()) in
  Alcotest.(check bool) "the executor matches its arguments" true !matches;
  Alcotest.(check (float 0.0)) "100 warm checks allocate no minor words" 0.0 words

(* The Vec backend packs a conflict-free loop's lanes straight over
   [0, set_size): a warm save_soln call at 120x80 allocates under 100 words
   directly in the major heap (major minus promoted words, counters
   flushed by a minor collection on both sides), where the identity
   permutation it used to build took about 9,600. *)
let test_vec_direct_major () =
  let t =
    App.create ~backend:(Op2.Vec Am_op2.Exec_vec.default_config)
      (Umesh.generate_airfoil ~nx:120 ~ny:80 ())
  in
  let save_soln () =
    Op2.par_loop_acc t.App.ctx ~name:"save_soln" ~info:Kernels.save_soln_info
      ~handle:t.App.h_save_soln t.App.cells
      [ Op2.arg_dat t.App.q Am_core.Access.Read; Op2.arg_dat t.App.qold Am_core.Access.Write ]
      Kernels.save_soln_acc
  in
  save_soln ();
  Gc.minor ();
  let s0 = Gc.quick_stat () in
  save_soln ();
  Gc.minor ();
  let s1 = Gc.quick_stat () in
  let direct =
    s1.Gc.major_words -. s0.Gc.major_words -. (s1.Gc.promoted_words -. s0.Gc.promoted_words)
  in
  if direct >= 100.0 then
    Alcotest.failf "a warm vec save_soln allocated %.0f words directly in the major heap" direct

let () =
  Alcotest.run "airfoil"
    [
      ( "physics",
        [
          Alcotest.test_case "rms decays" `Quick test_rms_decreases;
          Alcotest.test_case "finite" `Quick test_solution_stays_finite;
          Alcotest.test_case "positive density" `Quick test_density_positive;
          Alcotest.test_case "near free stream after one step" `Quick
            test_freestream_preserved_without_walls;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "hand-coded = op2" `Quick test_hand_matches_op2;
          Alcotest.test_case "shared backend" `Quick test_shared_backend;
          Alcotest.test_case "vec backend" `Quick test_vec_backend;
          Alcotest.test_case "cuda staged" `Quick test_cuda_staged_backend;
          Alcotest.test_case "cuda soa" `Quick test_cuda_soa_backend;
          Alcotest.test_case "mpi kway" `Quick test_mpi_backend;
          Alcotest.test_case "mpi rcb" `Quick test_mpi_rcb_backend;
          Alcotest.test_case "eager halo policy" `Quick test_eager_halo_policy;
          Alcotest.test_case "hybrid mpi+shared" `Quick test_hybrid_backend;
          Alcotest.test_case "renumbered rms" `Quick test_renumbered_matches_rms;
          Alcotest.test_case "scrambled rms" `Quick test_scrambled_mesh_same_rms;
        ] );
      ( "structure",
        [
          Alcotest.test_case "trace shape" `Quick test_trace_shape;
          Alcotest.test_case "seq iteration allocation budget" `Quick test_alloc_budget;
          Alcotest.test_case "check iteration allocation budget" `Quick test_check_alloc_budget;
          Alcotest.test_case "warm executor check allocates nothing" `Quick
            test_compiled_matches_alloc;
          Alcotest.test_case "warm vec call allocates nothing major directly" `Quick
            test_vec_direct_major;
        ] );
      ( "checkpointing",
        [
          Alcotest.test_case "automatic checkpoint + recovery" `Quick
            test_automatic_checkpoint_recovery;
          Alcotest.test_case "distributed checkpoint + rank-count change" `Quick
            test_distributed_checkpoint_recovery;
          Alcotest.test_case "requires enable" `Quick test_checkpoint_requires_enable;
        ] );
    ]

(* Tests for the Hydra-sim production-scale application. *)

module App = Am_hydra.App
module Hand = Am_hydra.Hand
module Op2 = Am_op2.Op2
module Fa = Am_util.Fa
module Pool = Am_taskpool.Pool

let nx = 16 and ny = 12

let reference = lazy (
  let t = App.create ~nx ~ny () in
  let rms = App.run t ~iters:4 in
  (App.solution t, rms))

let check_matches ?(tol = 1e-10) name (sol, rms) =
  let ref_sol, ref_rms = Lazy.force reference in
  if not (Fa.approx_equal ~tol ref_sol sol) then
    Alcotest.failf "%s: solution diverges (%g)" name (Fa.rel_discrepancy ref_sol sol);
  if Float.abs (rms -. ref_rms) /. (1.0 +. ref_rms) > tol then
    Alcotest.failf "%s: rms diverges" name

(* ---- Dynamics ---- *)

let test_converges () =
  let t = App.create ~nx ~ny () in
  let early = App.run t ~iters:2 in
  let late = App.run t ~iters:60 in
  Alcotest.(check bool) "rms decays" true (late < early);
  Alcotest.(check bool) "state finite" true (Fa.is_finite (App.solution t))

let test_reaches_steady_state () =
  (* The dissipative dynamics must settle: the state change over a late
     window is much smaller than over the first window. *)
  let t = App.create ~nx ~ny () in
  let s0 = App.solution t in
  ignore (App.run t ~iters:10);
  let s1 = App.solution t in
  ignore (App.run t ~iters:100);
  let s2 = App.solution t in
  ignore (App.run t ~iters:10);
  let s3 = App.solution t in
  let early = Fa.max_abs_diff s0 s1 and late = Fa.max_abs_diff s2 s3 in
  Alcotest.(check bool) "settling" true (late < 0.2 *. early);
  Alcotest.(check bool) "finite" true (Fa.is_finite s3)

let test_feature_ablations_stable () =
  List.iter
    (fun (name, features) ->
      let t = App.create ~features ~nx ~ny () in
      ignore (App.run t ~iters:10);
      if not (Fa.is_finite (App.solution t)) then
        Alcotest.failf "%s: diverged" name)
    [
      ("no viscous", { App.viscous = false; source_terms = true; multigrid = true });
      ("no source", { App.viscous = true; source_terms = false; multigrid = true });
      ("no multigrid", { App.viscous = true; source_terms = true; multigrid = false });
    ]

let test_multigrid_accelerates () =
  (* The multigrid correction should leave the solution at least as close to
     the free stream after the same number of iterations. *)
  let run features =
    let t = App.create ~features ~nx ~ny () in
    App.run t ~iters:40
  in
  let with_mg = run App.all_features in
  let without = run { App.all_features with App.multigrid = false } in
  Alcotest.(check bool) "mg does not hurt convergence" true (with_mg <= without *. 1.5)

(* ---- Equivalence ---- *)

let test_hand_matches () =
  let h = Hand.create ~nx ~ny () in
  let rms = Hand.run h ~iters:4 in
  check_matches ~tol:0.0 "hand-coded" (Hand.solution h, rms)

let test_shared_backend () =
  Pool.with_pool ~size:4 (fun pool ->
      let t = App.create ~backend:(Op2.Shared { pool; block_size = 32 }) ~nx ~ny () in
      let rms = App.run t ~iters:4 in
      check_matches "shared" (App.solution t, rms))

let test_cuda_backend () =
  let t =
    App.create
      ~backend:
        (Op2.Cuda_sim
           { Am_op2.Exec_cuda.block_size = 32; strategy = Am_op2.Exec_cuda.Staged })
      ~nx ~ny ()
  in
  let rms = App.run t ~iters:4 in
  check_matches "cuda staged" (App.solution t, rms)

let test_mpi_backend () =
  let t = App.create ~nx ~ny () in
  Op2.partition t.App.ctx ~n_ranks:4 ~strategy:(Op2.Kway_through t.App.edge_cells);
  let rms = App.run t ~iters:4 in
  check_matches "mpi(4)" (App.solution t, rms)

let test_mpi_partitions_both_levels () =
  (* The partition inference must cover the coarse sets reached only through
     the fine->coarse map. *)
  let t = App.create ~nx ~ny () in
  Op2.partition t.App.ctx ~n_ranks:3 ~strategy:(Op2.Kway_through t.App.edge_cells);
  ignore (App.run t ~iters:2);
  match Op2.comm_stats t.App.ctx with
  | None -> Alcotest.fail "expected stats"
  | Some s -> Alcotest.(check bool) "traffic flows" true (s.Am_simmpi.Comm.messages > 0)

let test_renumbering_invariant_rms () =
  let t = App.create ~nx ~ny () in
  ignore (Op2.renumber t.App.ctx ~through:t.App.edge_cells);
  let rms = App.run t ~iters:4 in
  let _, ref_rms = Lazy.force reference in
  Alcotest.(check bool) "rms invariant" true
    (Float.abs (rms -. ref_rms) /. (1.0 +. ref_rms) < 1e-10)

(* ---- Structure ---- *)

let test_loop_count_per_iteration () =
  let t = App.create ~nx ~ny () in
  Am_core.Trace.set_enabled (Op2.trace t.App.ctx) true;
  ignore (App.iteration t);
  let events = Am_core.Trace.events (Op2.trace t.App.ctx) in
  (* 2 prologue + 5 stages x 8 loops + 9 multigrid loops. *)
  Alcotest.(check int) "loops per iteration" (2 + (5 * 8) + 9) (List.length events)

let test_more_data_than_airfoil () =
  (* The paper: Hydra "moves many times more data per grid point" than
     Airfoil. Compare traced bytes per cell per iteration. *)
  let hydra_bytes =
    let t = App.create ~nx ~ny () in
    Am_core.Trace.set_enabled (Op2.trace t.App.ctx) true;
    ignore (App.iteration t);
    List.fold_left
      (fun acc l -> acc + Am_core.Descr.total_bytes l)
      0
      (Am_core.Trace.events (Op2.trace t.App.ctx))
  in
  let airfoil_bytes =
    let mesh = Am_mesh.Umesh.generate_airfoil ~nx ~ny () in
    let t = Am_airfoil.App.create mesh in
    Am_core.Trace.set_enabled (Op2.trace t.Am_airfoil.App.ctx) true;
    ignore (Am_airfoil.App.iteration t);
    List.fold_left
      (fun acc l -> acc + Am_core.Descr.total_bytes l)
      0
      (Am_core.Trace.events (Op2.trace t.Am_airfoil.App.ctx))
  in
  Alcotest.(check bool) "hydra moves >3x airfoil's bytes" true
    (hydra_bytes > 3 * airfoil_bytes)

(* ---- Allocation ---- *)

(* One Seq iteration at the driver's default size (6144 cells, 51 loop
   calls) through the accessor entry point.  The pin (measured: 13.5k words)
   is per-call bookkeeping — Hydra's loops pass no handle, so each finds
   its entry in the context's call-site table and runs on the entry's
   handle and cached executor — and sits far below the ~300k words that
   one boxed float per element would add. *)
let test_alloc_budget () =
  let t = App.create ~nx:96 ~ny:64 () in
  ignore (App.iteration t);
  let words = Gc_util.minor_words (fun () -> ignore (App.iteration t)) in
  if words > 17_000.0 then
    Alcotest.failf "one Seq iteration allocated %.0f minor words (budget 17000)" words

(* One warm iteration on 4 Kway ranks.  Each call's rank executors and
   rank plans live on its entry's handle, and each rank executor keeps the
   frame the rank runs, so a warm call builds no signature string, looks
   nothing up by one and builds no frame; the pin (measured: 48.5k words;
   53.4k when every call built a frame per rank, 90.7k when it also built
   its key) is the per-call bookkeeping and halo exchanges. *)
let test_dist_alloc_budget () =
  let t = App.create ~nx:96 ~ny:64 () in
  Op2.partition t.App.ctx ~n_ranks:4 ~strategy:(Op2.Kway_through t.App.edge_cells);
  ignore (App.iteration t);
  let words = Gc_util.minor_words (fun () -> ignore (App.iteration t)) in
  if words > 60_600.0 then
    Alcotest.failf "one 4-rank iteration allocated %.0f minor words (budget 60600)" words

(* A warm handle-less [rk_stage], with its fresh [alpha] global, costs what
   the same call costs on an explicit handle with a hoisted [alpha]
   buffer: both run on a handle's plan entry and executor, and the
   handle-less call's table hit allocates nothing. *)
let test_handleless_call () =
  let t = App.create ~nx ~ny () in
  let rms = [| 0.0 |] and hoisted = [| 0.5 |] in
  let rk_stage ?handle alpha =
    Op2.par_loop_acc t.App.ctx ~name:"rk_stage" ~info:Am_hydra.Kernels.rk_stage_info ?handle
      t.App.cells
      [
        Op2.arg_dat t.App.qold Am_core.Access.Read;
        Op2.arg_dat t.App.q Am_core.Access.Write;
        Op2.arg_dat t.App.res Am_core.Access.Rw;
        Op2.arg_dat t.App.adt Am_core.Access.Read;
        Op2.arg_gbl ~name:"alpha" (alpha ()) Am_core.Access.Read;
        Op2.arg_gbl ~name:"rms" rms Am_core.Access.Inc;
      ]
      Am_hydra.Kernels.rk_stage_acc
  in
  let handle = Op2.make_handle () in
  let hoist () = hoisted and fresh () = [| 0.5 |] in
  rk_stage ~handle hoist;
  rk_stage fresh;
  let with_handle = Gc_util.minor_words (fun () -> rk_stage ~handle hoist) in
  let without = Gc_util.minor_words (fun () -> rk_stage fresh) in
  if without > with_handle +. 50.0 then
    Alcotest.failf "a warm rk_stage allocated %.0f words without a handle, %.0f with one" without
      with_handle

(* Every Hydra kernel is generated, and on Seq all 51 calls of an
   iteration run its element walker: no frame stages. *)
let test_element_walkers_on_seq () =
  let module C = Am_obs.Counters in
  let module Obs = Am_obs.Obs in
  let t = App.create ~nx ~ny () in
  let w0 = C.value Obs.op2_walker_frames and p0 = C.value Obs.op2_point_frames in
  ignore (App.iteration t);
  Alcotest.(check int) "no point-walker frame" 0 (C.value Obs.op2_point_frames - p0);
  Alcotest.(check int) "one element-walker frame per call" (2 + (5 * 8) + 9)
    (C.value Obs.op2_walker_frames - w0)

let () =
  Alcotest.run "hydra"
    [
      ( "dynamics",
        [
          Alcotest.test_case "converges" `Quick test_converges;
          Alcotest.test_case "reaches steady state" `Slow test_reaches_steady_state;
          Alcotest.test_case "feature ablations stable" `Quick
            test_feature_ablations_stable;
          Alcotest.test_case "multigrid sane" `Quick test_multigrid_accelerates;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "hand-coded exact" `Quick test_hand_matches;
          Alcotest.test_case "shared backend" `Quick test_shared_backend;
          Alcotest.test_case "cuda staged" `Quick test_cuda_backend;
          Alcotest.test_case "mpi kway" `Quick test_mpi_backend;
          Alcotest.test_case "mpi covers both levels" `Quick
            test_mpi_partitions_both_levels;
          Alcotest.test_case "renumbering invariant" `Quick
            test_renumbering_invariant_rms;
        ] );
      ( "structure",
        [
          Alcotest.test_case "loop count" `Quick test_loop_count_per_iteration;
          Alcotest.test_case "more data than airfoil" `Quick test_more_data_than_airfoil;
          Alcotest.test_case "seq iteration allocation budget" `Quick test_alloc_budget;
          Alcotest.test_case "4-rank iteration allocation budget" `Quick
            test_dist_alloc_budget;
          Alcotest.test_case "handle-less call as cheap as a handle" `Quick test_handleless_call;
          Alcotest.test_case "seq: every call an element walker" `Quick
            test_element_walkers_on_seq;
        ] );
    ]

(* Tests for TeaLeaf-sim: CG convergence, conservation and backend
   equivalence of the implicit 3D heat solve. *)

module Tea = Am_tealeaf.App
module Ops3 = Am_ops.Ops3
module Fa = Am_util.Fa
module Pool = Am_taskpool.Pool
module Access = Am_core.Access

let n = 10

let reference = lazy (
  let t = Tea.create ~n () in
  Tea.run t ~steps:3;
  (Tea.temperature t, Tea.total_heat t))

let check name (temp, heat) =
  let ref_temp, ref_heat = Lazy.force reference in
  if not (Fa.approx_equal ~tol:1e-8 ref_temp temp) then
    Alcotest.failf "%s: temperature diverges (%g)" name (Fa.rel_discrepancy ref_temp temp);
  if Float.abs (heat -. ref_heat) /. ref_heat > 1e-8 then
    Alcotest.failf "%s: heat diverges" name

let test_cg_converges () =
  let t = Tea.create ~n () in
  let iters = Tea.step t in
  Alcotest.(check bool) "converged before the cap" true (iters > 0 && iters < 200)

let test_heat_conserved () =
  (* Insulated walls + implicit step: total heat is invariant to CG
     tolerance. *)
  let t = Tea.create ~n () in
  let h0 = Tea.total_heat t in
  Tea.run t ~steps:5;
  let h1 = Tea.total_heat t in
  Alcotest.(check bool) "conserved" true (Float.abs (h1 -. h0) /. h0 < 1e-6)

let test_diffuses_towards_uniform () =
  let spread temp =
    let mx = Array.fold_left Float.max neg_infinity temp in
    let mn = Array.fold_left Float.min infinity temp in
    mx -. mn
  in
  let t = Tea.create ~n () in
  let s0 = spread (Tea.temperature t) in
  Tea.run t ~steps:8;
  let s1 = spread (Tea.temperature t) in
  Alcotest.(check bool) "spread shrinks" true (s1 < s0);
  Alcotest.(check bool) "still positive" true
    (Array.for_all (fun v -> v > 0.0) (Tea.temperature t))

let test_shared_backend () =
  Pool.with_pool ~size:4 (fun pool ->
      let t = Tea.create ~backend:(Ops3.Shared { pool }) ~n () in
      Tea.run t ~steps:3;
      check "shared" (Tea.temperature t, Tea.total_heat t))

let test_cuda_backend () =
  let t =
    Tea.create
      ~backend:
        (Ops3.Cuda_sim { Am_ops.Exec.tile_x = 4; tile_y = 4; tile_z = 2; staged = true })
      ~n ()
  in
  Tea.run t ~steps:3;
  check "cuda staged" (Tea.temperature t, Tea.total_heat t)

let test_dist_backend () =
  let t = Tea.create ~n () in
  Ops3.partition t.Tea.ctx ~n_ranks:3 ~ref_zsize:n;
  Tea.run t ~steps:3;
  check "dist(3)" (Tea.temperature t, Tea.total_heat t)

let test_pencil_backend () =
  let t = Tea.create ~n () in
  Ops3.partition_pencil t.Tea.ctx ~py:2 ~pz:2 ~ref_ysize:n ~ref_zsize:n;
  Tea.run t ~steps:3;
  check "pencil(2x2)" (Tea.temperature t, Tea.total_heat t)

let test_hybrid_backend () =
  Pool.with_pool ~size:4 (fun pool ->
      let t = Tea.create ~n () in
      Ops3.partition t.Tea.ctx ~n_ranks:2 ~ref_zsize:n;
      Ops3.set_rank_execution t.Tea.ctx (Ops3.Rank_shared pool);
      Tea.run t ~steps:3;
      check "dist(2)+shared" (Tea.temperature t, Tea.total_heat t))

let test_reduction_heavy_profile () =
  (* TeaLeaf is reduction-dominated: dots outnumber matvecs per CG
     iteration (2 reductions per iteration + init). *)
  let t = Tea.create ~n () in
  Am_core.Trace.set_enabled (Ops3.trace t.Tea.ctx) true;
  ignore (Tea.step t);
  let events = Am_core.Trace.events (Ops3.trace t.Tea.ctx) in
  let count name =
    List.length
      (List.filter (fun (l : Am_core.Descr.loop) -> l.Am_core.Descr.loop_name = name) events)
  in
  Alcotest.(check bool) "dots >= matvecs" true (count "cg_dot" >= count "cg_matvec");
  Alcotest.(check bool) "ran iterations" true (count "cg_matvec" > 2)

(* The tier-1 twin of the [tealeaf_dist] benchmark's allocation bound: one
   warm 24^3 step on 4 z-slab ranks at 20 CG iterations.  Its 123 loops
   pass no handle, so each finds its entry in the context's call-site
   table by loop name and argument shape and runs on the entry's handle,
   whose per-rank executors are compiled once (each frame binds its
   call's fresh globals): 53.7k minor words per step, where compiling
   every call's arguments on every rank and keying its footprint by a
   string took 199.6k. *)
let test_dist_step_allocation () =
  let n = 24 in
  let t = Tea.create ~n () in
  Ops3.partition t.Tea.ctx ~n_ranks:4 ~ref_zsize:n;
  let step () = ignore (Tea.step ~tol:0.0 ~max_iters:20 t) in
  step ();
  let words = Gc_util.minor_words step in
  let budget = 70_000.0 in
  if words > budget then
    Alcotest.failf "one 4-rank step allocated %.0f minor words, budget %.0f" words budget

(* A warm handle-less [cg_matvec], with its fresh [dt] global, costs what
   the same call costs on an explicit handle with a hoisted [dt] buffer:
   both run on a handle's cached executor, and the handle-less call's
   table hit allocates nothing. *)
let test_handleless_matvec () =
  let t = Tea.create ~n () in
  let handle = Ops3.make_handle () and dt = [| t.Tea.dt |] in
  let on_handle () =
    Ops3.par_loop t.Tea.ctx ~name:"cg_matvec" ~info:Tea.matvec_info ~handle t.Tea.grid
      (Ops3.interior t.Tea.u)
      [
        Ops3.arg_dat t.Tea.p Ops3.stencil_7pt Access.Read;
        Ops3.arg_dat t.Tea.kappa Ops3.stencil_7pt Access.Read;
        Ops3.arg_dat t.Tea.w Ops3.stencil_point Access.Write;
        Ops3.arg_gbl ~name:"dt" dt Access.Read;
      ]
      Tea.matvec_kernel
  in
  let handleless () = Tea.matvec t ~src:t.Tea.p ~dst:t.Tea.w in
  on_handle ();
  handleless ();
  let with_handle = Gc_util.minor_words on_handle in
  let without = Gc_util.minor_words handleless in
  if without > with_handle +. 50.0 then
    Alcotest.failf "a warm cg_matvec allocated %.0f words without a handle, %.0f with one"
      without with_handle

let () =
  Alcotest.run "tealeaf"
    [
      ( "solver",
        [
          Alcotest.test_case "cg converges" `Quick test_cg_converges;
          Alcotest.test_case "heat conserved" `Quick test_heat_conserved;
          Alcotest.test_case "diffuses to uniform" `Quick test_diffuses_towards_uniform;
          Alcotest.test_case "reduction-heavy profile" `Quick
            test_reduction_heavy_profile;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "shared" `Quick test_shared_backend;
          Alcotest.test_case "cuda staged" `Quick test_cuda_backend;
          Alcotest.test_case "dist(3)" `Quick test_dist_backend;
          Alcotest.test_case "pencil 2x2" `Quick test_pencil_backend;
          Alcotest.test_case "hybrid" `Quick test_hybrid_backend;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "4-rank step within budget" `Quick
            test_dist_step_allocation;
          Alcotest.test_case "handle-less matvec as cheap as a handle" `Quick
            test_handleless_matvec;
        ] );
    ]

(* End-to-end wiring of the observability layer: real proxy applications
   run with tracing on, and the global tracer/counter state is checked for
   the span categories and cache statistics the runtimes are supposed to
   emit.

   These tests touch process-global state (the Obs singletons), so every
   case starts with [Obs.reset] and the suite runs sequentially within this
   executable. *)

module Op2 = Am_op2.Op2
module Ops = Am_ops.Ops
module Access = Am_core.Access
module Umesh = Am_mesh.Umesh
module Obs = Am_obs.Obs
module Tracer = Am_obs.Tracer
module Counters = Am_obs.Counters
module Airfoil = Am_airfoil.App
module Hydra = Am_hydra.App
module Clover = Am_cloverleaf.App

let cats () =
  List.sort_uniq compare
    (List.map (fun e -> Tracer.category_to_string e.Tracer.ev_cat)
       (Tracer.events Obs.tracer))

let has_cat c = List.mem c (cats ())

let counter name =
  match Counters.find Obs.counters name with
  | Some (Counters.Int v) -> v
  | Some (Counters.Float v) -> int_of_float v
  | Some (Counters.Hist s) -> s.Am_obs.Histogram.s_count
  | None -> 0

let with_tracing f =
  Obs.reset ();
  Obs.set_tracing true;
  Fun.protect ~finally:(fun () -> Obs.reset ()) f

(* ---- Airfoil (OP2) ---------------------------------------------------- *)

let airfoil_mesh () = Umesh.generate_airfoil ~nx:24 ~ny:16 ()

let test_airfoil_seq () =
  with_tracing (fun () ->
      let t = Airfoil.create (airfoil_mesh ()) in
      ignore (Airfoil.iteration t);
      ignore (Airfoil.iteration t);
      Alcotest.(check bool) "loop spans" true (has_cat "loop");
      Alcotest.(check bool) "plan spans" true (has_cat "plan");
      Alcotest.(check bool) "no halo spans on seq" false (has_cat "halo_post");
      (* five call sites compile once each; every other call hits *)
      Alcotest.(check int) "executor misses = call sites" 5
        (counter "exec_cache.misses");
      Alcotest.(check int) "executor hits = calls - misses"
        (counter "loop.calls" - 5)
        (counter "exec_cache.hits");
      Alcotest.(check int) "tracer saw every call" (counter "loop.calls")
        (List.length
           (List.filter
              (fun e ->
                e.Tracer.ev_cat = Tracer.Loop && e.Tracer.ev_lane = 0
                && not e.Tracer.ev_instant)
              (Tracer.events Obs.tracer))))

let test_airfoil_shared () =
  with_tracing (fun () ->
      let pool = Am_taskpool.Pool.create () in
      let t = Airfoil.create (airfoil_mesh ()) in
      Op2.set_backend t.Airfoil.ctx (Op2.Shared { pool; block_size = 64 });
      ignore (Airfoil.iteration t);
      Am_taskpool.Pool.shutdown pool;
      Alcotest.(check bool) "loop spans" true (has_cat "loop");
      Alcotest.(check bool) "colour rounds traced" true (has_cat "colour_round");
      Alcotest.(check bool) "worker merges traced" true (has_cat "reduce"))

let test_airfoil_dist () =
  with_tracing (fun () ->
      let t = Airfoil.create (airfoil_mesh ()) in
      Op2.partition t.Airfoil.ctx ~n_ranks:4
        ~strategy:(Op2.Kway_through t.Airfoil.edge_cells);
      ignore (Airfoil.iteration t);
      List.iter
        (fun c ->
          Alcotest.(check bool) (c ^ " spans present") true (has_cat c))
        [ "loop"; "plan"; "halo_pack"; "halo_post"; "halo_wait"; "halo_unpack" ];
      (* message sends must be posted before anything waits on them *)
      let first cat =
        List.find_opt (fun e -> e.Tracer.ev_cat = cat) (Tracer.events Obs.tracer)
      in
      (match (first Tracer.Halo_post, first Tracer.Halo_wait) with
      | Some post, Some wait ->
        Alcotest.(check bool) "first post before first wait" true
          (post.Tracer.ev_ts <= wait.Tracer.ev_ts)
      | _ -> Alcotest.fail "expected halo_post and halo_wait events");
      (* per-rank lanes: spans on tids other than 0 *)
      let lanes =
        List.sort_uniq compare
          (List.map (fun e -> e.Tracer.ev_lane) (Tracer.events Obs.tracer))
      in
      Alcotest.(check bool) "multiple rank lanes" true (List.length lanes > 1);
      Alcotest.(check bool) "messages counted" true (counter "comm.messages" > 0);
      Alcotest.(check bool) "bytes counted" true (counter "comm.bytes_sent" > 0);
      Alcotest.(check bool) "exchanges counted" true (counter "comm.exchanges" > 0))

(* A repeated handle loop compiles its executor once: hits = calls - 1. *)
let test_handle_hits () =
  with_tracing (fun () ->
      let ctx = Op2.create () in
      let n = 64 in
      let s = Op2.decl_set ctx ~name:"cells" ~size:n in
      let d =
        Op2.decl_dat ctx ~name:"x" ~set:s ~dim:1 ~data:(Array.make n 1.0)
      in
      let handle = Op2.make_handle () in
      let calls = 20 in
      for _ = 1 to calls do
        Op2.par_loop ctx ~name:"scale" ~handle s
          [ Op2.arg_dat d Access.Rw ]
          (fun args -> args.(0).(0) <- args.(0).(0) *. 1.000001)
      done;
      Alcotest.(check int) "executor hits = calls - 1" (calls - 1)
        (counter "exec_cache.hits");
      Alcotest.(check int) "one executor miss" 1 (counter "exec_cache.misses"))

(* One plan and one executor per call site: a fresh iteration builds each
   site's once (no plan on Seq, one per rank on a partitioned context),
   and a second iteration builds nothing. *)
let configs pool =
  let backend b ctx _ = Op2.set_backend ctx b in
  [
    ("seq", 0, 1, backend Op2.Seq);
    ("vec", 1, 1, backend (Op2.Vec { Am_op2.Exec_vec.width = 4 }));
    ("shared", 1, 1, backend (Op2.Shared { pool; block_size = 64 }));
    ( "cuda",
      1,
      1,
      backend
        (Op2.Cuda_sim { Am_op2.Exec_cuda.block_size = 64; strategy = Am_op2.Exec_cuda.Global_aos })
    );
    ( "4 Rank_shared ranks",
      4,
      4,
      fun ctx through ->
        Op2.partition ctx ~n_ranks:4 ~strategy:(Op2.Kway_through through);
        Op2.set_rank_execution ctx (Op2.Rank_shared { pool; block_size = 64 }) );
  ]

let check_one_per_site ~app ~sites create =
  Am_taskpool.Pool.with_pool ~size:2 (fun pool ->
      List.iter
        (fun (backend, plans, execs, setup) ->
          let iteration = create setup in
          let built () = (counter "plan.builds", counter "exec_cache.misses") in
          let b0, x0 = built () in
          iteration ();
          let b1, x1 = built () in
          iteration ();
          let b2, x2 = built () in
          let what = Printf.sprintf "%s %s: " app backend in
          Alcotest.(check int) (what ^ "plans built") (plans * sites) (b1 - b0);
          Alcotest.(check int) (what ^ "executors compiled") (execs * sites) (x1 - x0);
          Alcotest.(check int) (what ^ "nothing rebuilt") 0 (b2 - b1 + (x2 - x1)))
        (configs pool))

let test_one_per_site_airfoil () =
  check_one_per_site ~app:"airfoil" ~sites:5 (fun setup ->
      let t = Airfoil.create (airfoil_mesh ()) in
      setup t.Airfoil.ctx t.Airfoil.edge_cells;
      fun () -> ignore (Airfoil.iteration t))

let test_one_per_site_hydra () =
  check_one_per_site ~app:"hydra" ~sites:17 (fun setup ->
      let t = Hydra.create ~nx:16 ~ny:12 () in
      setup t.Hydra.ctx t.Hydra.edge_cells;
      fun () -> ignore (Hydra.iteration t))

(* ---- CloverLeaf (OPS) ------------------------------------------------- *)

let test_clover_seq () =
  with_tracing (fun () ->
      let t = Clover.create ~nx:24 ~ny:24 () in
      ignore (Clover.hydro_step t);
      Alcotest.(check bool) "loop spans" true (has_cat "loop");
      Alcotest.(check bool) "compile spans" true (has_cat "plan");
      Alcotest.(check bool) "exec cache hit"
        true
        (counter "exec_cache.hits" > 0))

(* Check runs each call site's executor, as Seq does: a fresh CloverLeaf
   compiles as many on Check as on Seq (one per handle: two of its loops
   share one), and its next step on Check compiles none. *)
let test_clover_check_executors () =
  let fresh backend =
    Obs.reset ();
    let t = Clover.create ~backend ~nx:24 ~ny:24 () in
    ignore (Clover.hydro_step t);
    (t, counter "exec_cache.misses")
  in
  let _, on_seq = fresh Ops.Seq in
  let t, misses = fresh Ops.Check in
  Alcotest.(check bool) "check compiles executors" true (misses > 0);
  Alcotest.(check int) "executor misses on check = on seq" on_seq misses;
  ignore (Clover.hydro_step t);
  Alcotest.(check int) "a second step compiles nothing" 0 (counter "exec_cache.misses" - misses);
  Obs.reset ()

let test_clover_dist () =
  with_tracing (fun () ->
      let t = Clover.create ~nx:32 ~ny:32 () in
      Ops.partition t.Clover.ctx ~n_ranks:4 ~ref_ysize:32;
      ignore (Clover.hydro_step t);
      List.iter
        (fun c ->
          Alcotest.(check bool) (c ^ " spans present") true (has_cat c))
        [ "loop"; "halo_pack"; "halo_post"; "halo_wait"; "halo_unpack" ];
      Alcotest.(check bool) "ghost exchanges counted" true
        (counter "comm.exchanges" > 0);
      (* the trace is loadable: every event has a well-formed cat string *)
      let json = Am_obs.Tracer.to_chrome_json Obs.tracer in
      Alcotest.(check bool) "export non-trivial" true
        (String.length json > 1000))

(* ---- Perf doctor (the --perf-report path) ----------------------------- *)

(* The doctor join behind --perf-report: with tracing and the descriptor
   trace on (exactly what the drivers' --perf-report does), a run must yield one
   attribution row per distinct loop handle, each with a finite positive
   achieved bandwidth, a positive model prediction, and GC deltas
   accumulated by the traced facades. *)
let sane_rows what rows ~loops =
  Alcotest.(check int) (what ^ ": one row per loop handle") loops
    (List.length rows);
  List.iter
    (fun r ->
      let open Am_perfmodel.Doctor in
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s: calls > 0" what r.dr_name)
        true (r.dr_calls > 0);
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s: achieved GB/s sane" what r.dr_name)
        true
        (Float.is_finite r.dr_achieved_gbs
        && r.dr_achieved_gbs > 0.0
        && r.dr_achieved_gbs < 10_000.0);
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s: model GB/s positive" what r.dr_name)
        true (r.dr_model_gbs > 0.0);
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s: pct consistent" what r.dr_name)
        true
        (Float.abs (r.dr_pct_of_model -. (100.0 *. r.dr_achieved_gbs /. r.dr_model_gbs))
        < 1e-6);
      ignore (verdict_to_string r.dr_verdict))
    rows

let test_airfoil_doctor () =
  with_tracing (fun () ->
      let t = Airfoil.create (airfoil_mesh ()) in
      Am_core.Trace.set_enabled (Op2.trace t.Airfoil.ctx) true;
      for _ = 1 to 4 do
        ignore (Airfoil.iteration t)
      done;
      let rows =
        Am_perfmodel.Doctor.diagnose
          ~profile:(Op2.profile t.Airfoil.ctx)
          ~loops:(Am_core.Trace.events (Op2.trace t.Airfoil.ctx))
          ()
      in
      (* save_soln, adt_calc, res_calc, bres_calc, update *)
      sane_rows "airfoil" rows ~loops:5;
      (* the traced run sampled GC around the loops: some loop saw a minor
         collection over four whole iterations *)
      Alcotest.(check bool) "gc sampled" true
        (List.exists (fun r -> r.Am_perfmodel.Doctor.dr_gc_minor > 0) rows
        || Counters.value Am_obs.Obs.gc_minor >= 0);
      (* the report renders every row *)
      let report = Am_perfmodel.Doctor.report rows in
      List.iter
        (fun r ->
          Alcotest.(check bool)
            (r.Am_perfmodel.Doctor.dr_name ^ " in report")
            true
            (Str_contains.contains report r.Am_perfmodel.Doctor.dr_name))
        rows)

let test_clover_doctor () =
  with_tracing (fun () ->
      let t = Clover.create ~nx:24 ~ny:24 () in
      Am_core.Trace.set_enabled (Ops.trace t.Clover.ctx) true;
      for _ = 1 to 2 do
        ignore (Clover.hydro_step t)
      done;
      let rows =
        Am_perfmodel.Doctor.diagnose
          ~profile:(Ops.profile t.Clover.ctx)
          ~loops:(Am_core.Trace.events (Ops.trace t.Clover.ctx))
          ()
      in
      let distinct =
        List.length
          (List.sort_uniq compare
             (List.map
                (fun (l : Am_core.Descr.loop) -> l.Am_core.Descr.loop_name)
                (Am_core.Trace.events (Ops.trace t.Clover.ctx))))
      in
      sane_rows "cloverleaf" rows ~loops:distinct)

(* ---- A loop that raises ------------------------------------------------ *)

(* A Check violation propagates out of [par_loop]; the failing loop's span
   must still be closed and recorded, and a later loop's span with it. *)
let loop_spans name =
  List.length
    (List.filter
       (fun e -> e.Tracer.ev_cat = Tracer.Loop && e.Tracer.ev_name = name)
       (Tracer.events Obs.tracer))

let check_raising_span ~run_scribble ~run_after =
  with_tracing (fun () ->
      (match run_scribble () with
      | () -> Alcotest.fail "check let a write to a Read argument through"
      | exception Am_core.Sanitizer.Violation _ -> ());
      run_after ();
      Alcotest.(check int) "the raising loop's span is recorded" 1 (loop_spans "scribble");
      Alcotest.(check int) "the next loop's span is recorded" 1 (loop_spans "after"))

let scribble a =
  a.(1).(0) <- a.(0).(0);
  a.(0).(0) <- 0.0

let copy a = a.(1).(0) <- a.(0).(0)

let test_raising_span_op2 () =
  let ctx = Op2.create ~backend:Op2.Check () in
  let s = Op2.decl_set ctx ~name:"cells" ~size:16 in
  let x = Op2.decl_dat ctx ~name:"x" ~set:s ~dim:1 ~data:(Array.make 16 1.0) in
  let y = Op2.decl_dat_zero ctx ~name:"y" ~set:s ~dim:1 in
  let loop name kernel () =
    Op2.par_loop ctx ~name s [ Op2.arg_dat x Access.Read; Op2.arg_dat y Access.Write ] kernel
  in
  check_raising_span ~run_scribble:(loop "scribble" scribble) ~run_after:(loop "after" copy)

let test_raising_span_ops () =
  let ctx = Ops.create ~backend:Ops.Check () in
  let grid = Ops.decl_block ctx ~name:"grid" in
  let x = Ops.decl_dat ctx ~name:"x" ~block:grid ~xsize:4 ~ysize:4 () in
  let y = Ops.decl_dat ctx ~name:"y" ~block:grid ~xsize:4 ~ysize:4 () in
  Ops.init ctx x (fun _ _ _ -> 1.0);
  let loop name kernel () =
    Ops.par_loop ctx ~name grid (Ops.interior x)
      [ Ops.arg_dat x Ops.stencil_point Access.Read; Ops.arg_dat y Ops.stencil_point Access.Write ]
      kernel
  in
  check_raising_span ~run_scribble:(loop "scribble" scribble) ~run_after:(loop "after" copy)

(* Disabled runs leave no trace behind. *)
let test_disabled_records_nothing () =
  Obs.reset ();
  let t = Airfoil.create (airfoil_mesh ()) in
  ignore (Airfoil.iteration t);
  Alcotest.(check int) "no events" 0 (Tracer.recorded Obs.tracer);
  Alcotest.(check bool) "counters still live" true (counter "loop.calls" > 0);
  Obs.reset ()

let () =
  Alcotest.run "obs_wiring"
    [
      ( "op2",
        [
          Alcotest.test_case "airfoil seq traced" `Quick test_airfoil_seq;
          Alcotest.test_case "airfoil shared traced" `Quick test_airfoil_shared;
          Alcotest.test_case "airfoil dist traced" `Quick test_airfoil_dist;
          Alcotest.test_case "handle executor hits" `Quick test_handle_hits;
          Alcotest.test_case "airfoil one per site" `Quick test_one_per_site_airfoil;
          Alcotest.test_case "hydra one per site" `Quick test_one_per_site_hydra;
        ] );
      ( "ops",
        [
          Alcotest.test_case "cloverleaf seq traced" `Quick test_clover_seq;
          Alcotest.test_case "cloverleaf dist traced" `Quick test_clover_dist;
          Alcotest.test_case "cloverleaf check: one executor per site" `Quick
            test_clover_check_executors;
        ] );
      ( "doctor",
        [
          Alcotest.test_case "airfoil attribution rows" `Quick
            test_airfoil_doctor;
          Alcotest.test_case "cloverleaf attribution rows" `Quick
            test_clover_doctor;
        ] );
      ( "raising loop",
        [
          Alcotest.test_case "op2 span closed" `Quick test_raising_span_op2;
          Alcotest.test_case "ops span closed" `Quick test_raising_span_ops;
        ] );
      ( "disabled",
        [
          Alcotest.test_case "records nothing" `Quick
            test_disabled_records_nothing;
        ] );
    ]

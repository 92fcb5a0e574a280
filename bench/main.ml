(* Benchmark harness.

   Running this executable regenerates every table and figure of the
   paper's evaluation (modelled on traced workloads), the measured
   host-machine comparisons and the design ablations, and finishes with a
   Bechamel micro-benchmark section — one benchmark per paper table/figure,
   timing the real computational payload that experiment rests on.

   Usage:
     dune exec bench/main.exe              # everything
     dune exec bench/main.exe -- table1    # a single experiment
     dune exec bench/main.exe -- --list    # experiment ids
     dune exec bench/main.exe -- --no-micro  # skip the Bechamel section
     dune exec bench/main.exe -- micro --json [file]
       # also write the micro estimates as JSON (default BENCH.json)

   --json additionally drops <stem>.trace.json and <stem>.counters.json
   (the traced halo-accounting runs) next to the JSON.  BENCH.json is
   committed so the perf trajectory travels with the code; the
   trace/counters artifacts are gitignored. *)

module Registry = Am_experiments.Registry

(* ---- Bechamel micro-benchmarks ------------------------------------------- *)

(* One benchmark per table/figure: the computational payload behind it. *)
let micro_tests () =
  let open Bechamel in
  let airfoil_mesh = Am_mesh.Umesh.generate_airfoil ~nx:48 ~ny:32 () in
  let airfoil_app = Am_airfoil.App.create airfoil_mesh in
  let airfoil_hand = Am_airfoil.Hand.create airfoil_mesh in
  let clover_app = Am_cloverleaf.App.create ~nx:48 ~ny:48 () in
  let hydra_app = Am_hydra.App.create ~nx:32 ~ny:24 () in
  let clover_cuda =
    Am_cloverleaf.App.create
      ~backend:
        (Am_ops.Ops.Cuda_sim
           { Am_ops.Exec.tile_x = 16; tile_y = 8; strategy = Am_ops.Exec.Cuda_tiled })
      ~nx:48 ~ny:48 ()
  in
  let airfoil_mpi =
    Am_airfoil.App.create (Am_mesh.Umesh.generate_airfoil ~nx:48 ~ny:32 ())
  in
  Am_op2.Op2.partition airfoil_mpi.Am_airfoil.App.ctx ~n_ranks:4
    ~strategy:(Am_op2.Op2.Kway_through airfoil_mpi.Am_airfoil.App.edge_cells);
  let airfoil_mpi_overlap =
    let t = Am_airfoil.App.create (Am_mesh.Umesh.generate_airfoil ~nx:48 ~ny:32 ()) in
    Am_op2.Op2.partition t.Am_airfoil.App.ctx ~n_ranks:4
      ~strategy:(Am_op2.Op2.Kway_through t.Am_airfoil.App.edge_cells);
    Am_op2.Op2.set_comm_mode t.Am_airfoil.App.ctx Am_op2.Op2.Overlap;
    t
  in
  let clover_mpi mode =
    let t = Am_cloverleaf.App.create ~nx:48 ~ny:48 () in
    Am_ops.Ops.partition t.Am_cloverleaf.App.ctx ~n_ranks:4 ~ref_ysize:48;
    Am_ops.Ops.set_comm_mode t.Am_cloverleaf.App.ctx mode;
    t
  in
  let clover_mpi_blocking = clover_mpi Am_ops.Ops.Blocking in
  let clover_mpi_overlap = clover_mpi Am_ops.Ops.Overlap in
  let dual = Am_mesh.Umesh.cell_dual_graph airfoil_mesh in
  let fig8_chain =
    let traced = Am_experiments.Calibrate.trace_airfoil ~nx:48 ~ny:32 () in
    let e =
      Am_experiments.Calibrate.iteration_loops traced.Am_experiments.Calibrate.profiles
    in
    e @ e
  in
  let res_calc_descr = List.nth fig8_chain 2 in
  [
    (* Table I / Fig 2: the Airfoil iteration the table breaks down. *)
    Test.make ~name:"table1/airfoil_iteration_op2"
      (Staged.stage (fun () -> ignore (Am_airfoil.App.iteration airfoil_app)));
    Test.make ~name:"fig2/airfoil_iteration_hand"
      (Staged.stage (fun () -> ignore (Am_airfoil.Hand.iteration airfoil_hand)));
    (* Fig 3: one Hydra iteration (51 parallel loops). *)
    Test.make ~name:"fig3/hydra_iteration"
      (Staged.stage (fun () -> ignore (Am_hydra.App.iteration hydra_app)));
    (* Fig 4: the distributed Airfoil iteration (partitioned, halo traffic). *)
    Test.make ~name:"fig4/airfoil_iteration_mpi4"
      (Staged.stage (fun () -> ignore (Am_airfoil.App.iteration airfoil_mpi)));
    (* Core/boundary split: the same distributed iterations with the halo
       exchange overlapped against interior compute. *)
    Test.make ~name:"dist/airfoil_dist_overlap"
      (Staged.stage (fun () -> ignore (Am_airfoil.App.iteration airfoil_mpi_overlap)));
    Test.make ~name:"dist/cloverleaf_dist_blocking"
      (Staged.stage (fun () ->
           ignore (Am_cloverleaf.App.hydro_step clover_mpi_blocking)));
    Test.make ~name:"dist/cloverleaf_dist_overlap"
      (Staged.stage (fun () ->
           ignore (Am_cloverleaf.App.hydro_step clover_mpi_overlap)));
    (* Fig 5: one CloverLeaf hydro step through OPS. *)
    Test.make ~name:"fig5/cloverleaf_step_ops"
      (Staged.stage (fun () -> ignore (Am_cloverleaf.App.hydro_step clover_app)));
    (* Fig 6: the same step on the tiled GPU simulator. *)
    Test.make ~name:"fig6/cloverleaf_step_gpusim"
      (Staged.stage (fun () -> ignore (Am_cloverleaf.App.hydro_step clover_cuda)));
    (* Fig 7: generating the CUDA source for an indirect loop. *)
    Test.make ~name:"fig7/codegen_res_calc"
      (Staged.stage (fun () ->
           ignore
             (Am_codegen.Codegen.generate_op2
                (Am_codegen.Codegen.Cuda Am_codegen.Codegen.Stage_nosoa)
                res_calc_descr)));
    (* Fig 8: planning a checkpoint over the traced chain. *)
    Test.make ~name:"fig8/checkpoint_plan"
      (Staged.stage (fun () ->
           ignore (Am_checkpoint.Planner.speculative_trigger fig8_chain ~requested:2)));
    (* Aero: one Newton iteration (FEM assembly + matrix-free CG). *)
    Test.make ~name:"apps/aero_newton_iteration"
      (let aero = Am_aero.App.create (Am_aero.App.generate_mesh ~n:24) in
       Staged.stage (fun () -> ignore (Am_aero.App.iteration aero)));
    (* TeaLeaf: one implicit CG step (reduction-heavy profile). *)
    Test.make ~name:"apps/tealeaf_cg_step"
      (let tea = Am_tealeaf.App.create ~n:10 () in
       Staged.stage (fun () -> ignore (Am_tealeaf.App.step tea)));
    (* CloverLeaf 3D: one hydro step on the 3D structured library. *)
    Test.make ~name:"apps/cloverleaf3_step"
      (let c3 = Am_cloverleaf3.App.create ~n:10 () in
       Staged.stage (fun () -> ignore (Am_cloverleaf3.App.hydro_step c3)));
    (* Substrates: the partitioner and reordering the backends rely on. *)
    Test.make ~name:"substrate/kway_partition"
      (Staged.stage (fun () -> ignore (Am_mesh.Partition.kway dual ~parts:8)));
    Test.make ~name:"substrate/rcm_reorder"
      (Staged.stage (fun () -> ignore (Am_mesh.Reorder.rcm dual)));
  ]

(* ---- Halo-time accounting ------------------------------------------------ *)

(* Exposed vs overlapped halo seconds of the distributed proxies, from the
   runtime's own profile: run a fixed number of steps under both
   communication modes and read the totals [Profile.record_halo]
   accumulated.  Overlap must strictly lower the exposed time — the
   core/boundary split's whole point. *)
let halo_accounting () =
  let airfoil mode =
    let t = Am_airfoil.App.create (Am_mesh.Umesh.generate_airfoil ~nx:48 ~ny:32 ()) in
    Am_op2.Op2.partition t.Am_airfoil.App.ctx ~n_ranks:4
      ~strategy:(Am_op2.Op2.Kway_through t.Am_airfoil.App.edge_cells);
    Am_op2.Op2.set_comm_mode t.Am_airfoil.App.ctx mode;
    ignore (Am_airfoil.App.run t ~iters:10);
    Am_op2.Op2.profile t.Am_airfoil.App.ctx
  in
  let clover mode =
    let t = Am_cloverleaf.App.create ~nx:48 ~ny:48 () in
    Am_ops.Ops.partition t.Am_cloverleaf.App.ctx ~n_ranks:4 ~ref_ysize:48;
    Am_ops.Ops.set_comm_mode t.Am_cloverleaf.App.ctx mode;
    ignore (Am_cloverleaf.App.run t ~steps:5);
    Am_ops.Ops.profile t.Am_cloverleaf.App.ctx
  in
  let entry name profile =
    ( name,
      Am_core.Profile.total_halo_seconds profile,
      Am_core.Profile.total_overlap_seconds profile )
  in
  [
    entry "airfoil_dist_blocking" (airfoil Am_op2.Op2.Blocking);
    entry "airfoil_dist_overlap" (airfoil Am_op2.Op2.Overlap);
    entry "cloverleaf_dist_blocking" (clover Am_ops.Ops.Blocking);
    entry "cloverleaf_dist_overlap" (clover Am_ops.Ops.Overlap);
  ]

let print_halo halo =
  let table =
    Am_util.Table.create ~title:"halo exchange time (4 ranks, profile totals)"
      ~header:[ "run"; "exposed"; "overlapped" ]
      ~aligns:[ Am_util.Table.Left; Right; Right ]
      ()
  in
  List.iter
    (fun (name, exposed, overlapped) ->
      Am_util.Table.add_row table
        [ name; Am_util.Units.seconds exposed; Am_util.Units.seconds overlapped ])
    halo;
  Am_util.Table.print table;
  print_newline ()

(* Fault-tolerance cost accounting.  Three numbers per distributed proxy:
   the wall-clock of a clean partitioned run, the same run under a
   lossy-but-survivable schedule (drops, duplicates, delays — every loss
   is absorbed by the retry machinery), and the cost of the
   checkpoint/restart path (persisting a snapshot, then restoring it into
   a fresh context and replaying the run). *)
type recovery_row = {
  rec_name : string;
  rec_clean_s : float;
  rec_lossy_s : float;
  rec_retransmits : int;
  rec_save_s : float;
  rec_restore_replay_s : float;
}

let recovery_accounting () =
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let lossy =
    { Am_simmpi.Fault.default with
      seed = 42; drop = 0.05; dup = 0.05; delay = 0.1; max_delay = 3 }
  in
  (* [fresh ()] builds a partitioned context from scratch; [run t] drives a
     fixed number of steps; the ops record abstracts OP2 vs OPS. *)
  let measure rec_name fresh run ~set_fault ~enable ~session ~save ~recover =
    let rec_clean_s = time (fun () -> run (fresh ())) in
    Am_obs.Obs.reset ();
    let rec_lossy_s =
      let t = fresh () in
      set_fault t (Am_simmpi.Fault.create lossy);
      time (fun () -> run t)
    in
    let rec_retransmits = Am_obs.Counters.value Am_obs.Obs.fault_retransmits in
    let path = Filename.temp_file "am_bench_ckpt" ".snap" in
    let rec_save_s =
      let t = fresh () in
      enable t;
      run t;
      (match session t with
      | Some s when Am_checkpoint.Runtime.complete s -> ()
      | _ -> failwith (rec_name ^ ": checkpoint did not complete"));
      time (fun () -> save t path)
    in
    let rec_restore_replay_s =
      let t = fresh () in
      time (fun () ->
          recover t path;
          run t)
    in
    Sys.remove path;
    { rec_name; rec_clean_s; rec_lossy_s; rec_retransmits; rec_save_s;
      rec_restore_replay_s }
  in
  let airfoil =
    measure "airfoil_dist"
      (fun () ->
        let t =
          Am_airfoil.App.create (Am_mesh.Umesh.generate_airfoil ~nx:48 ~ny:32 ())
        in
        Am_op2.Op2.partition t.Am_airfoil.App.ctx ~n_ranks:4
          ~strategy:(Am_op2.Op2.Kway_through t.Am_airfoil.App.edge_cells);
        t)
      (fun t -> ignore (Am_airfoil.App.run t ~iters:10))
      ~set_fault:(fun t -> Am_op2.Op2.set_fault_injector t.Am_airfoil.App.ctx)
      ~enable:(fun t ->
        Am_op2.Op2.enable_checkpointing t.Am_airfoil.App.ctx;
        Am_op2.Op2.request_checkpoint t.Am_airfoil.App.ctx)
      ~session:(fun t -> Am_op2.Op2.checkpoint_session t.Am_airfoil.App.ctx)
      ~save:(fun t path -> Am_op2.Op2.checkpoint_to_file t.Am_airfoil.App.ctx ~path)
      ~recover:(fun t path -> Am_op2.Op2.recover_from_file t.Am_airfoil.App.ctx ~path)
  in
  let clover =
    measure "cloverleaf_dist"
      (fun () ->
        let t = Am_cloverleaf.App.create ~nx:48 ~ny:48 () in
        Am_ops.Ops.partition t.Am_cloverleaf.App.ctx ~n_ranks:4 ~ref_ysize:48;
        t)
      (fun t -> ignore (Am_cloverleaf.App.run t ~steps:5))
      ~set_fault:(fun t -> Am_ops.Ops.set_fault_injector t.Am_cloverleaf.App.ctx)
      ~enable:(fun t ->
        Am_ops.Ops.enable_checkpointing t.Am_cloverleaf.App.ctx;
        Am_ops.Ops.request_checkpoint t.Am_cloverleaf.App.ctx)
      ~session:(fun t -> Am_ops.Ops.checkpoint_session t.Am_cloverleaf.App.ctx)
      ~save:(fun t path ->
        Am_ops.Ops.checkpoint_to_file t.Am_cloverleaf.App.ctx ~path)
      ~recover:(fun t path ->
        Am_ops.Ops.recover_from_file t.Am_cloverleaf.App.ctx ~path)
  in
  [ airfoil; clover ]

let print_recovery rows =
  let table =
    Am_util.Table.create
      ~title:"fault-tolerance costs (4 ranks, wall-clock)"
      ~header:[ "run"; "clean"; "lossy"; "retx"; "ckpt save"; "restore+replay" ]
      ~aligns:[ Am_util.Table.Left; Right; Right; Right; Right; Right ]
      ()
  in
  List.iter
    (fun r ->
      Am_util.Table.add_row table
        [
          r.rec_name;
          Am_util.Units.seconds r.rec_clean_s;
          Am_util.Units.seconds r.rec_lossy_s;
          string_of_int r.rec_retransmits;
          Am_util.Units.seconds r.rec_save_s;
          Am_util.Units.seconds r.rec_restore_replay_s;
        ])
    rows;
  Am_util.Table.print table;
  print_newline ()

(* Wall-clock per Airfoil iteration on [app]: one warm-up iteration, then
   the median of [iters] timed ones with the IQR alongside. *)
let time app iters =
  ignore (Am_airfoil.App.iteration app);
  Am_util.Regress.summarize
    (Array.init iters (fun _ ->
         let t0 = Unix.gettimeofday () in
         ignore (Am_airfoil.App.iteration app);
         Unix.gettimeofday () -. t0))

(* Sanitizer overhead: the same Airfoil iteration on the reference backend
   and on the access-guarded Check backend, wall-clock per iteration. *)
let sanitizer_overhead () =
  let mesh = Am_mesh.Umesh.generate_airfoil ~nx:48 ~ny:32 () in
  let seq = Am_airfoil.App.create mesh in
  let check = Am_airfoil.App.create mesh in
  Am_op2.Op2.set_backend check.Am_airfoil.App.ctx Am_op2.Op2.Check;
  let iters = 10 in
  let seq_s = time seq iters in
  let check_s = time check iters in
  (seq_s, check_s, check_s.Am_util.Regress.median /. seq_s.Am_util.Regress.median)

(* Footprint-inference accounting: what the once-per-signature probing
   costs (signatures, probe kernel runs, seconds) against what the proven
   facts buy back — the Check backend's light mode (per-element guards
   reduced to NaN checks on loops the probe proved exact) and the
   distributed backends' tightened halo exchanges. *)
type analysis_row = {
  an_signatures : int;
  an_kernel_runs : int;
  an_infer_seconds : float;
  an_light_loops : int;
  an_light_elements : int;
  an_check_light : Am_util.Regress.summary; (* Check, inference on *)
  an_check_full : Am_util.Regress.summary; (* Check, inference off *)
  an_halo_depth_saved : int;
  an_halo_exchanges_saved : int;
}

let analysis_accounting () =
  let mesh = Am_mesh.Umesh.generate_airfoil ~nx:48 ~ny:32 () in
  let iters = 10 in
  (* Check with inference off: every loop pays the full per-element guard. *)
  let full = Am_airfoil.App.create mesh in
  Am_op2.Op2.set_infer full.Am_airfoil.App.ctx false;
  Am_op2.Op2.set_backend full.Am_airfoil.App.ctx Am_op2.Op2.Check;
  let an_check_full = time full iters in
  (* Check with inference on (the default): proved-clean loops run light. *)
  let sig0 = Am_obs.Counters.value Am_obs.Obs.infer_signatures in
  let run0 = Am_obs.Counters.value Am_obs.Obs.infer_kernel_runs in
  let sec0 = Am_obs.Counters.valuef Am_obs.Obs.infer_seconds in
  let loops0 = Am_obs.Counters.value Am_obs.Obs.check_light_loops in
  let elems0 = Am_obs.Counters.value Am_obs.Obs.check_light_elements in
  let light = Am_airfoil.App.create mesh in
  Am_op2.Op2.set_backend light.Am_airfoil.App.ctx Am_op2.Op2.Check;
  let an_check_light = time light iters in
  (* Tightened halos: a short distributed CloverLeaf run; the counters say
     how many ghost rows and whole exchanges the observed extents removed
     versus the declared stencils.  Runtime tightening is off by default
     (sampled negatives are evidence, not proof), so the bench opts in
     explicitly — CloverLeaf's kernels have data-independent footprints. *)
  let depth0 = Am_obs.Counters.value Am_obs.Obs.halo_depth_saved in
  let exch0 = Am_obs.Counters.value Am_obs.Obs.halo_exchanges_saved in
  let cl = Am_cloverleaf.App.create ~nx:96 ~ny:96 () in
  Am_ops.Ops.set_tighten cl.Am_cloverleaf.App.ctx true;
  Am_ops.Ops.partition cl.Am_cloverleaf.App.ctx ~n_ranks:4 ~ref_ysize:96;
  for _ = 1 to 2 do
    ignore (Am_cloverleaf.App.hydro_step cl)
  done;
  {
    an_signatures = Am_obs.Counters.value Am_obs.Obs.infer_signatures - sig0;
    an_kernel_runs = Am_obs.Counters.value Am_obs.Obs.infer_kernel_runs - run0;
    an_infer_seconds = Am_obs.Counters.valuef Am_obs.Obs.infer_seconds -. sec0;
    an_light_loops = Am_obs.Counters.value Am_obs.Obs.check_light_loops - loops0;
    an_light_elements =
      Am_obs.Counters.value Am_obs.Obs.check_light_elements - elems0;
    an_check_light;
    an_check_full;
    an_halo_depth_saved =
      Am_obs.Counters.value Am_obs.Obs.halo_depth_saved - depth0;
    an_halo_exchanges_saved =
      Am_obs.Counters.value Am_obs.Obs.halo_exchanges_saved - exch0;
  }

let print_analysis a =
  let open Am_util.Regress in
  Printf.printf
    "footprint inference: %d signature(s) probed in %s (%d probe kernel runs)\n"
    a.an_signatures
    (Am_util.Units.seconds a.an_infer_seconds)
    a.an_kernel_runs;
  Printf.printf
    "check light mode (airfoil iteration, n=%d): full %s vs light %s \
     (%.2fx; %d loop calls, %d elements lightened)\n"
    a.an_check_full.n
    (Am_util.Units.seconds a.an_check_full.median)
    (Am_util.Units.seconds a.an_check_light.median)
    (if a.an_check_light.median > 0.0 then
       a.an_check_full.median /. a.an_check_light.median
     else 0.0)
    a.an_light_loops a.an_light_elements;
  Printf.printf
    "dist tightening (cloverleaf mpi, 2 steps): %d ghost row(s) and %d whole \
     exchange(s) dropped\n\n%!"
    a.an_halo_depth_saved a.an_halo_exchanges_saved

(* Attribution rows for the JSON dump's "doctor" section: a short traced
   Airfoil run (tracing also makes the facades sample per-loop GC deltas),
   joined against the perfmodel by [Doctor.diagnose]. *)
let doctor_rows () =
  let was_tracing = Am_obs.Obs.tracing () in
  Am_obs.Obs.set_tracing true;
  let t = Am_airfoil.App.create (Am_mesh.Umesh.generate_airfoil ~nx:48 ~ny:32 ()) in
  Am_core.Trace.set_enabled (Am_op2.Op2.trace t.Am_airfoil.App.ctx) true;
  ignore (Am_airfoil.App.run t ~iters:5);
  let rows =
    Am_perfmodel.Doctor.diagnose
      ~profile:(Am_op2.Op2.profile t.Am_airfoil.App.ctx)
      ~loops:(Am_core.Trace.events (Am_op2.Op2.trace t.Am_airfoil.App.ctx))
      ()
  in
  Am_obs.Obs.set_tracing was_tracing;
  rows

let fprint_hist oc h =
  let s = Am_obs.Histogram.snapshot h in
  Printf.fprintf oc
    "{ \"count\": %d, \"sum\": %.9f, \"min\": %.9f, \"max\": %.9f, \"p50\": \
     %.9f, \"p90\": %.9f, \"p99\": %.9f, \"buckets\": { "
    s.Am_obs.Histogram.s_count s.Am_obs.Histogram.s_sum s.Am_obs.Histogram.s_min
    s.Am_obs.Histogram.s_max (Am_obs.Histogram.p50 h) (Am_obs.Histogram.p90 h)
    (Am_obs.Histogram.p99 h);
  List.iteri
    (fun i (b, n) ->
      Printf.fprintf oc "%s\"%d\": %d" (if i = 0 then "" else ", ") b n)
    s.Am_obs.Histogram.s_buckets;
  output_string oc " } }"

let fprint_doctor oc rows =
  output_string oc "{\n";
  let n = List.length rows in
  List.iteri
    (fun i r ->
      let open Am_perfmodel.Doctor in
      Printf.fprintf oc
        "    %S: { \"calls\": %d, \"seconds\": %.9f, \"p50_call_seconds\": \
         %.9f, \"bytes\": %d, \"achieved_gbs\": %.3f, \"model_gbs\": %.3f, \
         \"pct_of_model\": %.1f, \"gc_minor\": %d, \"gc_major\": %d, \
         \"verdict\": %S }%s\n"
        r.dr_name r.dr_calls r.dr_seconds r.dr_call_seconds r.dr_bytes
        r.dr_achieved_gbs r.dr_model_gbs r.dr_pct_of_model r.dr_gc_minor
        r.dr_gc_major
        (verdict_to_string r.dr_verdict)
        (if i = n - 1 then "" else ","))
    rows;
  output_string oc "  }"

(* Machine-readable dump of the micro estimates: benchmark name to OLS
   nanoseconds per run, plus the exposed/overlapped halo-seconds split of
   the distributed proxies.  Hand-rolled JSON — names contain only
   [a-z0-9_/]. *)
let write_json path estimates halo sanitizer analysis recovery doctor =
  let oc = open_out path in
  output_string oc "{\n  \"unit\": \"ns_per_run\",\n  \"results\": {\n";
  let n = List.length estimates in
  List.iteri
    (fun i (name, ns) ->
      Printf.fprintf oc "    %S: %.3f%s\n" name ns (if i = n - 1 then "" else ","))
    estimates;
  output_string oc "  },\n  \"halo_seconds\": {\n";
  let n_halo = List.length halo in
  List.iteri
    (fun i (name, exposed, overlapped) ->
      Printf.fprintf oc "    %S: { \"exposed\": %.9f, \"overlapped\": %.9f }%s\n"
        name exposed overlapped
        (if i = n_halo - 1 then "" else ","))
    halo;
  (* Runtime-observability section: cache effectiveness and communication
     totals accumulated by the counter registry over the halo-accounting
     runs above. *)
  let c name = match Am_obs.Counters.find Am_obs.Obs.counters name with
    | Some (Am_obs.Counters.Int v) -> v
    | Some (Am_obs.Counters.Float v) -> int_of_float v
    | Some (Am_obs.Counters.Hist _) | None -> 0
  in
  let rate hits misses =
    if hits + misses = 0 then 0.0
    else float_of_int hits /. float_of_int (hits + misses)
  in
  let plan_hits = c "plan_cache.hits" and plan_misses = c "plan_cache.misses" in
  let exec_hits = c "exec_cache.hits" and exec_misses = c "exec_cache.misses" in
  let seq_s, check_s, overhead = sanitizer in
  output_string oc "  },\n";
  Printf.fprintf oc
    "  \"sanitizer\": { \"airfoil_seq_seconds\": %.9f, \
     \"airfoil_check_seconds\": %.9f, \"overhead_x\": %.3f, \"n\": %d },\n"
    seq_s.Am_util.Regress.median check_s.Am_util.Regress.median overhead
    seq_s.Am_util.Regress.n;
  Printf.fprintf oc
    "  \"analysis\": { \"infer_signatures\": %d, \"infer_kernel_runs\": %d, \
     \"infer_seconds\": %.9f, \"check_full_seconds\": %.9f, \
     \"check_light_seconds\": %.9f, \"check_seconds_saved\": %.9f, \
     \"light_loops\": %d, \"light_elements\": %d, \
     \"halo_depth_saved_rows\": %d, \"halo_exchanges_saved\": %d },\n"
    analysis.an_signatures analysis.an_kernel_runs analysis.an_infer_seconds
    analysis.an_check_full.Am_util.Regress.median
    analysis.an_check_light.Am_util.Regress.median
    (analysis.an_check_full.Am_util.Regress.median
    -. analysis.an_check_light.Am_util.Regress.median)
    analysis.an_light_loops analysis.an_light_elements
    analysis.an_halo_depth_saved analysis.an_halo_exchanges_saved;
  output_string oc "  \"obs\": {\n";
  Printf.fprintf oc
    "    \"plan_cache\": { \"hits\": %d, \"misses\": %d, \"hit_rate\": %.4f },\n"
    plan_hits plan_misses (rate plan_hits plan_misses);
  Printf.fprintf oc
    "    \"exec_cache\": { \"hits\": %d, \"misses\": %d, \"hit_rate\": %.4f },\n"
    exec_hits exec_misses (rate exec_hits exec_misses);
  Printf.fprintf oc
    "    \"comm\": { \"messages\": %d, \"bytes_sent\": %d, \"exchanges\": %d, \"reductions\": %d }\n"
    (c "comm.messages") (c "comm.bytes_sent") (c "comm.exchanges")
    (c "comm.reductions");
  output_string oc "  },\n  \"recovery\": {\n";
  let n_rec = List.length recovery in
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    %S: { \"clean_seconds\": %.9f, \"lossy_seconds\": %.9f, \
         \"retry_overhead_x\": %.3f, \"retransmits\": %d, \
         \"checkpoint_save_seconds\": %.9f, \"restore_replay_seconds\": %.9f }%s\n"
        r.rec_name r.rec_clean_s r.rec_lossy_s
        (if r.rec_clean_s > 0.0 then r.rec_lossy_s /. r.rec_clean_s else 0.0)
        r.rec_retransmits r.rec_save_s r.rec_restore_replay_s
        (if i = n_rec - 1 then "" else ","))
    recovery;
  (* Latency distributions accumulated by the registry over every run
     above (per-loop seconds, halo latency). *)
  output_string oc "  },\n  \"histograms\": {\n";
  let hists =
    List.filter
      (fun h -> Am_obs.Histogram.count h > 0)
      (Am_obs.Counters.histograms Am_obs.Obs.counters)
  in
  let n_hist = List.length hists in
  List.iteri
    (fun i h ->
      Printf.fprintf oc "    %S: " (Am_obs.Histogram.name_of h);
      fprint_hist oc h;
      Printf.fprintf oc "%s\n" (if i = n_hist - 1 then "" else ","))
    hists;
  output_string oc "  },\n  \"doctor\": ";
  fprint_doctor oc doctor;
  output_string oc "\n}\n";
  close_out oc;
  Printf.printf "wrote %s (%d benchmarks)\n\n%!" path n

let run_micro ?json () =
  let open Bechamel in
  print_endline "######## micro — Bechamel kernels (one per table/figure) ########\n";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~stabilize:false () in
  let table =
    Am_util.Table.create ~title:"micro-benchmarks (monotonic clock)"
      ~header:[ "benchmark"; "per run" ]
      ~aligns:[ Am_util.Table.Left; Right ]
      ()
  in
  let estimates = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let per_name = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          let cell =
            match Analyze.OLS.estimates ols_result with
            | Some [ ns ] ->
              estimates := (name, ns) :: !estimates;
              Am_util.Units.seconds (ns /. 1e9)
            | Some _ | None -> "n/a"
          in
          Am_util.Table.add_row table [ name; cell ])
        per_name)
    (micro_tests ());
  Am_util.Table.print table;
  print_newline ();
  (* Trace and count the halo-accounting runs so the JSON dump carries an
     observability section and artifacts land next to it. *)
  Am_obs.Obs.reset ();
  Am_obs.Obs.set_tracing true;
  let halo = halo_accounting () in
  Am_obs.Obs.set_tracing false;
  print_halo halo;
  let ((seq_s, check_s, overhead) as sanitizer) = sanitizer_overhead () in
  Printf.printf
    "sanitizer overhead (airfoil iteration): seq %s, check %s (%.1fx; n=%d, \
     IQR %s / %s)\n\n%!"
    (Am_util.Units.seconds seq_s.Am_util.Regress.median)
    (Am_util.Units.seconds check_s.Am_util.Regress.median)
    overhead seq_s.Am_util.Regress.n
    (Am_util.Units.seconds (Am_util.Regress.iqr seq_s))
    (Am_util.Units.seconds (Am_util.Regress.iqr check_s));
  let analysis = analysis_accounting () in
  print_analysis analysis;
  let recovery = recovery_accounting () in
  print_recovery recovery;
  match json with
  | None -> ()
  | Some path ->
    write_json path
      (List.sort (fun (a, _) (b, _) -> compare a b) !estimates)
      halo sanitizer analysis recovery (doctor_rows ());
    let stem = Filename.remove_extension path in
    let trace_path = stem ^ ".trace.json" in
    let counters_path = stem ^ ".counters.json" in
    Am_obs.Obs.write_trace ~path:trace_path;
    Am_obs.Obs.write_counters ~path:counters_path;
    Printf.printf "wrote %s and %s (halo-accounting runs)\n%!" trace_path
      counters_path

(* ---- Statistical timing series + regression gate ------------------------- *)

(* Repetition series over the headline proxy-app steps: medians with the
   IQR alongside rather than single shots, a per-series latency histogram,
   and a machine-readable dump a later run can be gated against
   ([--compare FILE], exit 1 on regression).  [--tiny] shrinks the problem
   sizes so the gate can run as a test-suite smoke check. *)

type series = {
  se_name : string;
  se_summary : Am_util.Regress.summary;
  se_hist : Am_obs.Histogram.t;
}

(* AM_BENCH_HANDICAP="<series>=<factor>" multiplies the recorded samples
   of one series ("*" for all): an injected slowdown the test suite uses
   to prove the comparison gate actually trips. *)
let handicap name =
  match Sys.getenv_opt "AM_BENCH_HANDICAP" with
  | None -> 1.0
  | Some spec -> (
    match String.index_opt spec '=' with
    | None -> 1.0
    | Some i -> (
      let key = String.sub spec 0 i in
      let factor = String.sub spec (i + 1) (String.length spec - i - 1) in
      match float_of_string_opt factor with
      | Some f when key = name || key = "*" -> f
      | Some _ | None -> 1.0))

let series_specs ~tiny =
  let dim full small = if tiny then small else full in
  [
    ( "series/airfoil_iteration",
      fun () ->
        let t =
          Am_airfoil.App.create
            (Am_mesh.Umesh.generate_airfoil ~nx:(dim 48 16) ~ny:(dim 32 12) ())
        in
        fun () -> ignore (Am_airfoil.App.iteration t) );
    ( "series/cloverleaf_step",
      fun () ->
        let t = Am_cloverleaf.App.create ~nx:(dim 48 12) ~ny:(dim 48 12) () in
        fun () -> ignore (Am_cloverleaf.App.hydro_step t) );
    ( "series/tealeaf_cg_step",
      fun () ->
        let t = Am_tealeaf.App.create ~n:(dim 12 6) () in
        fun () -> ignore (Am_tealeaf.App.step t) );
    ( "series/hydra_iteration",
      fun () ->
        let t = Am_hydra.App.create ~nx:(dim 32 12) ~ny:(dim 24 8) () in
        fun () -> ignore (Am_hydra.App.iteration t) );
  ]

let measure_series ~tiny ~repeat =
  List.map
    (fun (se_name, make) ->
      Gc.compact ();
      let step = make () in
      step ();
      (* warmup *)
      let factor = handicap se_name in
      let se_hist = Am_obs.Histogram.create ~unit_:"s" se_name in
      let samples =
        Array.init repeat (fun _ ->
            let t0 = Unix.gettimeofday () in
            step ();
            let dt = (Unix.gettimeofday () -. t0) *. factor in
            Am_obs.Histogram.record se_hist dt;
            dt)
      in
      { se_name; se_summary = Am_util.Regress.summarize samples; se_hist })
    (series_specs ~tiny)

let print_series ~repeat rows =
  let table =
    Am_util.Table.create
      ~title:(Printf.sprintf "timing series (wall-clock, n=%d)" repeat)
      ~header:[ "series"; "n"; "median"; "IQR"; "min"; "max" ]
      ~aligns:[ Am_util.Table.Left; Right; Right; Right; Right; Right ]
      ()
  in
  List.iter
    (fun r ->
      let s = r.se_summary in
      Am_util.Table.add_row table
        [
          r.se_name;
          string_of_int s.Am_util.Regress.n;
          Am_util.Units.seconds s.Am_util.Regress.median;
          Am_util.Units.seconds (Am_util.Regress.iqr s);
          Am_util.Units.seconds s.Am_util.Regress.min;
          Am_util.Units.seconds s.Am_util.Regress.max;
        ])
    rows;
  Am_util.Table.print table;
  print_newline ()

let write_series_json path ~repeat rows doctor =
  let oc = open_out path in
  output_string oc "{\n  \"schema\": \"bench-series/1\",\n";
  Printf.fprintf oc "  \"repeat\": %d,\n  \"series\": {\n" repeat;
  let n = List.length rows in
  List.iteri
    (fun i r ->
      let s = r.se_summary in
      Printf.fprintf oc
        "    %S: { \"n\": %d, \"median\": %.9f, \"p25\": %.9f, \"p75\": %.9f, \
         \"min\": %.9f, \"max\": %.9f,\n      \"histogram\": "
        r.se_name s.Am_util.Regress.n s.Am_util.Regress.median
        s.Am_util.Regress.p25 s.Am_util.Regress.p75 s.Am_util.Regress.min
        s.Am_util.Regress.max;
      fprint_hist oc r.se_hist;
      Printf.fprintf oc " }%s\n" (if i = n - 1 then "" else ","))
    rows;
  output_string oc "  },\n  \"doctor\": ";
  fprint_doctor oc doctor;
  output_string oc "\n}\n";
  close_out oc;
  Printf.printf "wrote %s (%d series)\n\n%!" path n

let load_baseline path =
  match Am_util.Json.of_file path with
  | Error msg ->
    Printf.eprintf "cannot read baseline %s: %s\n%!" path msg;
    exit 2
  | Ok json -> (
    match Am_util.Json.member "series" json with
    | Some (Am_util.Json.Obj entries) ->
      List.filter_map
        (fun (name, v) ->
          let num k = Option.bind (Am_util.Json.member k v) Am_util.Json.to_num in
          match
            (num "n", num "median", num "p25", num "p75", num "min", num "max")
          with
          | Some n, Some median, Some p25, Some p75, Some mn, Some mx ->
            Some
              ( name,
                { Am_util.Regress.n = int_of_float n; median; p25; p75;
                  min = mn; max = mx } )
          | _ -> None)
        entries
    | Some _ | None ->
      Printf.eprintf "%s: no \"series\" section\n%!" path;
      exit 2)

let compare_series rows baseline_path =
  let baseline = load_baseline baseline_path in
  let verdicts =
    List.filter_map
      (fun r ->
        match List.assoc_opt r.se_name baseline with
        | None ->
          Printf.printf "(no baseline entry for %s, skipped)\n" r.se_name;
          None
        | Some base ->
          Some
            (Am_util.Regress.gate ~name:r.se_name ~baseline:base
               ~current:r.se_summary ()))
      rows
  in
  let table =
    Am_util.Table.create
      ~title:
        (Printf.sprintf "regression gate vs %s (>%.0f%% median + IQR guard)"
           baseline_path
           (100.0 *. Am_util.Regress.default_threshold))
      ~header:[ "series"; "baseline"; "current"; "ratio"; "base IQR"; "verdict" ]
      ~aligns:[ Am_util.Table.Left; Right; Right; Right; Right; Left ]
      ()
  in
  List.iter
    (fun v ->
      let open Am_util.Regress in
      Am_util.Table.add_row table
        [
          v.v_name;
          Am_util.Units.seconds v.v_base.median;
          Am_util.Units.seconds v.v_cur.median;
          Printf.sprintf "%.2fx" v.v_ratio;
          Am_util.Units.seconds (iqr v.v_base);
          (if v.v_regressed then "REGRESSED" else "ok");
        ])
    verdicts;
  Am_util.Table.print table;
  print_newline ();
  match Am_util.Regress.regressed verdicts with
  | [] -> ()
  | bad ->
    Printf.eprintf "bench: %d series regressed vs %s\n%!" (List.length bad)
      baseline_path;
    exit 1

let run_series ?json ?compare ~tiny ~repeat () =
  print_endline "######## series — repeated wall-clock timings ########\n";
  let rows = measure_series ~tiny ~repeat in
  print_series ~repeat rows;
  (match json with
  | None -> ()
  | Some path -> write_series_json path ~repeat rows (doctor_rows ()));
  match compare with None -> () | Some path -> compare_series rows path

(* ---- Entry point ---------------------------------------------------------- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (* Extract an optional "--json [file]" (any position); the remaining
     arguments keep their usual meaning. *)
  let rec extract_json acc = function
    | [] -> (None, List.rev acc)
    | "--json" :: path :: rest when String.length path > 0 && path.[0] <> '-' ->
      (Some path, List.rev_append acc rest)
    | "--json" :: rest -> (Some "BENCH.json", List.rev_append acc rest)
    | a :: rest -> extract_json (a :: acc) rest
  in
  let rec extract_value name acc = function
    | [] -> (None, List.rev acc)
    | a :: v :: rest when a = name -> (Some v, List.rev_append acc rest)
    | a :: rest -> extract_value name (a :: acc) rest
  in
  let rec extract_flag name acc = function
    | [] -> (false, List.rev acc)
    | a :: rest when a = name -> (true, List.rev_append acc rest)
    | a :: rest -> extract_flag name (a :: acc) rest
  in
  let json, args = extract_json [] args in
  let compare_to, args = extract_value "--compare" [] args in
  let repeat, args = extract_value "--repeat" [] args in
  let tiny, args = extract_flag "--tiny" [] args in
  let repeat =
    match repeat with
    | Some r -> (
      match int_of_string_opt r with
      | Some n when n >= 2 -> n
      | Some _ | None ->
        Printf.eprintf "--repeat wants an integer >= 2, got %S\n" r;
        exit 2)
    | None -> 10
  in
  match args with
  | [ "--list" ] ->
    List.iter
      (fun e -> Printf.printf "%-10s %s\n" e.Registry.id e.Registry.title)
      Registry.experiments;
    print_endline "micro      Bechamel micro-benchmarks";
    print_endline
      "series     repeated wall-clock timings (--repeat N, --tiny, --compare FILE)"
  | [] ->
    Registry.run_all ();
    run_micro ?json ()
  | [ "--no-micro" ] -> Registry.run_all ()
  | ids ->
    List.iter
      (fun id ->
        if id = "micro" then run_micro ?json ()
        else if id = "series" then
          run_series ?json ?compare:compare_to ~tiny ~repeat ()
        else
          match Registry.find id with
          | Some e ->
            Printf.printf "######## %s — %s ########\n\n%!" e.Registry.id
              e.Registry.title;
            e.Registry.run ()
          | None ->
            Printf.eprintf "unknown experiment %S (try --list)\n" id;
            exit 1)
      ids

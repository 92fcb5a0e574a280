(* TeaLeaf-sim driver: implicit 3D heat conduction by CG on the Ops3 API.

     tealeaf --n 32 --steps 10 --backend mpi --ranks 4 *)

module Tea = Am_tealeaf.App
module Ops3 = Am_ops.Ops3

let run n steps dt backend ranks check analyze trace obs_json faults recover perf =
  Check_common.guard @@ fun () ->
  Flag_common.check_flags ~app:"tealeaf"
    ~backends:[ "seq"; "shared"; "cuda"; "mpi"; "hybrid" ]
    ~sizes:[ ("--size", n) ] ~counts:[ ("--steps", steps) ]
    ~outputs:[ ("--trace", trace); ("--obs-json", obs_json) ]
    ~backend ~ranks;
  if not (Float.is_finite dt && dt > 0.0) then
    Flag_common.usage_error ~app:"tealeaf" "--dt must be a finite number above 0";
  Am_obs.Obs.reset ();
  if trace <> None then Am_obs.Obs.set_tracing true;
  Fault_common.with_faults ~app:"tealeaf" ~faults ~recover @@ fun fc ~recovering ->
  let pool = ref None in
  let partition f = Flag_common.usage_on_refusal ~app:"tealeaf" f in
  let t =
    match (if check then "check" else backend) with
    | "check" ->
      let t = Tea.create ~n ~dt () in
      Ops3.set_backend t.Tea.ctx Ops3.Check;
      Am_core.Trace.set_enabled (Ops3.trace t.Tea.ctx) true;
      t
    | "seq" -> Tea.create ~n ~dt ()
    | "shared" ->
      let p = Am_taskpool.Pool.create () in
      pool := Some p;
      Tea.create ~backend:(Ops3.Shared { pool = p }) ~n ~dt ()
    | "cuda" ->
      Tea.create ~backend:(Ops3.Cuda_sim Am_ops.Exec.default_cuda_config3) ~n ~dt ()
    | "mpi" ->
      let t = Tea.create ~n ~dt () in
      partition (fun () -> Ops3.partition t.Tea.ctx ~n_ranks:ranks ~ref_zsize:n);
      t
    | "hybrid" ->
      let p = Am_taskpool.Pool.create () in
      pool := Some p;
      let t = Tea.create ~n ~dt () in
      partition (fun () -> Ops3.partition t.Tea.ctx ~n_ranks:ranks ~ref_zsize:n);
      Ops3.set_rank_execution t.Tea.ctx (Ops3.Rank_shared p);
      t
    | _ -> assert false (* rejected by check_flags *)
  in
  if analyze then Am_core.Trace.set_enabled (Ops3.trace t.Tea.ctx) true;
  Perf_common.enable perf (Ops3.trace t.Tea.ctx);
  Printf.printf "tealeaf-sim: %d^3 cells, dt %.3f, backend %s\n%!" n dt backend;
  (match Fault_common.injector fc with
  | Some f -> Ops3.set_fault_injector t.Tea.ctx f
  | None -> ());
  Fault_common.arm fc ~recovering
    ~recover:(fun path -> Ops3.recover_from_file t.Tea.ctx ~path)
    ~enable:(fun () ->
      Ops3.enable_checkpointing t.Tea.ctx;
      Ops3.request_checkpoint t.Tea.ctx);
  let t0 = Unix.gettimeofday () in
  for i = 1 to steps do
    let iters = Tea.step t in
    Fault_common.maybe_persist fc (Ops3.checkpoint_session t.Tea.ctx) (fun path ->
        Ops3.checkpoint_to_file t.Tea.ctx ~path);
    Printf.printf "  step %3d: %3d CG iterations, total heat %.6f\n%!" i iters
      (Tea.total_heat t)
  done;
  Printf.printf "wall time: %s (%d CG iterations total)\n\n%!"
    (Am_util.Units.seconds (Unix.gettimeofday () -. t0))
    t.Tea.cg_iterations;
  print_string (Am_core.Profile.report (Ops3.profile t.Tea.ctx));
  if check || analyze then
    Check_common.report
      (if analyze then Am_analysis.Analysis.static_ops3 t.Tea.ctx
       else Am_analysis.Analysis.check_ops3 t.Tea.ctx);
  Perf_common.print perf ~profile:(Ops3.profile t.Tea.ctx) ~trace:(Ops3.trace t.Tea.ctx);
  Am_obs.Obs.finish ?trace ?obs_json
    ~roofline_gbs:Am_perfmodel.Machines.(xeon_e5_2697v2.stream_bw)
    ~loops:(Am_core.Profile.obs_rows (Ops3.profile t.Tea.ctx))
    ();
  match !pool with Some p -> Am_taskpool.Pool.shutdown p | None -> ()

open Cmdliner

let n = Arg.(value & opt int 24 & info [ "size" ] ~doc:"Cube edge length in cells.")
let steps = Arg.(value & opt int 5 & info [ "steps" ] ~doc:"Implicit time steps.")
let dt = Arg.(value & opt float 0.5 & info [ "dt" ] ~doc:"Timestep.")
let backend = Arg.(value & opt string "seq" & info [ "backend" ] ~doc:"seq, shared, cuda, mpi or hybrid.")
let ranks = Arg.(value & opt int 4 & info [ "ranks" ] ~doc:"Simulated MPI ranks.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ]
        ~doc:
          "Write a Chrome trace-event JSON of the run to $(docv) (open in \
           chrome://tracing or ui.perfetto.dev).  Enables span tracing."
        ~docv:"FILE")

let obs_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "obs-json" ]
        ~doc:"Write the runtime counter registry as JSON to $(docv)."
        ~docv:"FILE")

let cmd =
  Cmd.v
    (Cmd.info "tealeaf" ~doc:"Implicit 3D heat conduction proxy app (Ops3 + CG)")
    Term.(
      const run $ n $ steps $ dt $ backend $ ranks $ Check_common.arg
      $ Check_common.analyze_arg $ trace_arg $ obs_json_arg
      $ Fault_common.faults_arg $ Fault_common.recover_arg $ Perf_common.arg)

let () = exit (Cmd.eval cmd)

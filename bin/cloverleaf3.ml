(* CloverLeaf 3D driver (Ops3).

     cloverleaf3 --size 24 --steps 20 --backend mpi --ranks 4 *)

module App = Am_cloverleaf3.App
module Ops3 = Am_ops.Ops3

let run n steps backend ranks check analyze trace obs_json faults recover perf =
  Check_common.guard @@ fun () ->
  Flag_common.check_flags ~app:"cloverleaf3"
    ~backends:[ "seq"; "shared"; "cuda"; "mpi"; "pencil"; "hybrid" ]
    ~sizes:[ ("--size", n) ] ~counts:[ ("--steps", steps) ]
    ~outputs:[ ("--trace", trace); ("--obs-json", obs_json) ]
    ~backend ~ranks;
  Am_obs.Obs.reset ();
  if trace <> None then Am_obs.Obs.set_tracing true;
  Fault_common.with_faults ~app:"cloverleaf3" ~faults ~recover @@ fun fc ~recovering ->
  let pool = ref None in
  let partition f = Flag_common.usage_on_refusal ~app:"cloverleaf3" f in
  let t =
    match (if check then "check" else backend) with
    | "check" ->
      let t = App.create ~n () in
      Ops3.set_backend t.App.ctx Ops3.Check;
      Am_core.Trace.set_enabled (Ops3.trace t.App.ctx) true;
      t
    | "seq" -> App.create ~n ()
    | "shared" ->
      let p = Am_taskpool.Pool.create () in
      pool := Some p;
      App.create ~backend:(Ops3.Shared { pool = p }) ~n ()
    | "cuda" -> App.create ~backend:(Ops3.Cuda_sim Am_ops.Exec.default_cuda_config3) ~n ()
    | "mpi" ->
      let t = App.create ~n () in
      partition (fun () -> Ops3.partition t.App.ctx ~n_ranks:ranks ~ref_zsize:n);
      t
    | "pencil" ->
      let t = App.create ~n () in
      let py, pz = Flag_common.grid_shape ranks in
      Printf.printf "pencil decomposition: %dx%d ranks\n%!" py pz;
      partition (fun () ->
          Ops3.partition_pencil t.App.ctx ~py ~pz ~ref_ysize:n ~ref_zsize:n);
      t
    | "hybrid" ->
      let p = Am_taskpool.Pool.create () in
      pool := Some p;
      let t = App.create ~n () in
      partition (fun () -> Ops3.partition t.App.ctx ~n_ranks:ranks ~ref_zsize:n);
      Ops3.set_rank_execution t.App.ctx (Ops3.Rank_shared p);
      t
    | _ -> assert false (* rejected by check_flags *)
  in
  if analyze then Am_core.Trace.set_enabled (Ops3.trace t.App.ctx) true;
  Perf_common.enable perf (Ops3.trace t.App.ctx);
  Printf.printf "cloverleaf3: %d^3 cells, %d steps, backend %s\n%!" n steps backend;
  (match Fault_common.injector fc with
  | Some f -> Ops3.set_fault_injector t.App.ctx f
  | None -> ());
  Fault_common.arm fc ~recovering
    ~recover:(fun path -> Ops3.recover_from_file t.App.ctx ~path)
    ~enable:(fun () ->
      Ops3.enable_checkpointing t.App.ctx;
      Ops3.request_checkpoint t.App.ctx);
  let t0 = Unix.gettimeofday () in
  for i = 1 to steps do
    let dt = App.hydro_step t in
    Fault_common.maybe_persist fc (Ops3.checkpoint_session t.App.ctx) (fun path ->
        Ops3.checkpoint_to_file t.App.ctx ~path);
    if i mod 5 = 0 || i = steps then begin
      let s = App.field_summary t in
      Printf.printf "  step %4d  dt %.5f  mass %.6f  ie %.4f  ke %.6f\n%!" i dt
        s.App.mass s.App.ie s.App.ke
    end
  done;
  Printf.printf "wall time: %s\n\n%!" (Am_util.Units.seconds (Unix.gettimeofday () -. t0));
  print_string (Am_core.Profile.report (Ops3.profile t.App.ctx));
  if check || analyze then
    Check_common.report
      (if analyze then Am_analysis.Analysis.static_ops3 t.App.ctx
       else Am_analysis.Analysis.check_ops3 t.App.ctx);
  Perf_common.print perf ~profile:(Ops3.profile t.App.ctx) ~trace:(Ops3.trace t.App.ctx);
  Am_obs.Obs.finish ?trace ?obs_json
    ~roofline_gbs:Am_perfmodel.Machines.(xeon_e5_2697v2.stream_bw)
    ~loops:(Am_core.Profile.obs_rows (Ops3.profile t.App.ctx))
    ();
  match !pool with Some p -> Am_taskpool.Pool.shutdown p | None -> ()

open Cmdliner

let n = Arg.(value & opt int 24 & info [ "size" ] ~doc:"Cube edge length in cells.")
let steps = Arg.(value & opt int 10 & info [ "steps" ] ~doc:"Hydro steps.")
let backend = Arg.(value & opt string "seq" & info [ "backend" ] ~doc:"seq, shared, cuda, mpi, pencil or hybrid.")
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
    (Cmd.info "cloverleaf3" ~doc:"CloverLeaf 3D hydrodynamics proxy application (Ops3)")
    Term.(
      const run $ n $ steps $ backend $ ranks $ Check_common.arg
      $ Check_common.analyze_arg $ trace_arg $ obs_json_arg
      $ Fault_common.faults_arg $ Fault_common.recover_arg $ Perf_common.arg)

let () = exit (Cmd.eval cmd)

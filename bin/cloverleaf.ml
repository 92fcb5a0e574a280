(* CloverLeaf driver: the OPS proxy application from the command line.

     cloverleaf --nx 256 --ny 256 --steps 87 --backend mpi --ranks 8

   Prints the field summary every few steps (like the original's
   clover.out), the per-loop profile, and optionally verifies against the
   hand-coded baseline. *)

module Ops = Am_ops.Ops
module App = Am_cloverleaf.App

let run nx ny steps backend ranks summary_every verify van_leer check
    analyze trace obs_json faults recover perf =
  Check_common.guard @@ fun () ->
  Flag_common.check_flags ~app:"cloverleaf"
    ~backends:[ "seq"; "shared"; "cuda"; "mpi"; "mpi2d"; "hybrid" ]
    ~sizes:[ ("--nx", nx); ("--ny", ny); ("--summary-every", summary_every) ]
    ~counts:[ ("--steps", steps) ]
    ~outputs:[ ("--trace", trace); ("--obs-json", obs_json) ]
    ~backend ~ranks;
  Am_obs.Obs.reset ();
  if trace <> None then Am_obs.Obs.set_tracing true;
  let advection =
    if van_leer then Am_cloverleaf.App.Van_leer else Am_cloverleaf.App.First_order
  in
  Printf.printf "cloverleaf: %dx%d cells, %d steps, backend %s\n%!" nx ny steps backend;
  Fault_common.with_faults ~app:"cloverleaf" ~faults ~recover @@ fun fc ~recovering ->
  let pool = ref None in
  let partition f = Flag_common.usage_on_refusal ~app:"cloverleaf" f in
  let t =
    match (if check then "check" else backend) with
    | "check" ->
      let t = App.create ~advection ~nx ~ny () in
      Ops.set_backend t.App.ctx Ops.Check;
      Am_core.Trace.set_enabled (Ops.trace t.App.ctx) true;
      t
    | "seq" -> App.create ~advection ~nx ~ny ()
    | "shared" ->
      let p = Am_taskpool.Pool.create () in
      pool := Some p;
      App.create ~backend:(Ops.Shared { pool = p }) ~advection ~nx ~ny ()
    | "cuda" ->
      App.create ~backend:(Ops.Cuda_sim Am_ops.Exec.default_cuda_config) ~advection ~nx
        ~ny ()
    | "mpi" ->
      let t = App.create ~advection ~nx ~ny () in
      partition (fun () -> Ops.partition t.App.ctx ~n_ranks:ranks ~ref_ysize:ny);
      t
    | "mpi2d" ->
      let t = App.create ~advection ~nx ~ny () in
      let px, py = Flag_common.grid_shape ranks in
      Printf.printf "grid decomposition: %dx%d ranks\n%!" px py;
      partition (fun () ->
          Ops.partition_grid t.App.ctx ~px ~py ~ref_xsize:nx ~ref_ysize:ny);
      t
    | "hybrid" ->
      let p = Am_taskpool.Pool.create () in
      pool := Some p;
      let t = App.create ~advection ~nx ~ny () in
      partition (fun () -> Ops.partition t.App.ctx ~n_ranks:ranks ~ref_ysize:ny);
      Ops.set_rank_execution t.App.ctx (Ops.Rank_shared p);
      t
    | _ -> assert false (* rejected by check_flags *)
  in
  if analyze then Am_core.Trace.set_enabled (Ops.trace t.App.ctx) true;
  Perf_common.enable perf (Ops.trace t.App.ctx);
  (match Fault_common.injector fc with
  | Some f -> Ops.set_fault_injector t.App.ctx f
  | None -> ());
  Fault_common.arm fc ~recovering
    ~recover:(fun path -> Ops.recover_from_file t.App.ctx ~path)
    ~enable:(fun () ->
      Ops.enable_checkpointing t.App.ctx;
      Ops.request_checkpoint t.App.ctx);
  let print_summary step =
    let s = App.field_summary t in
    Printf.printf "  step %4d  dt %.5f  mass %.6f  ie %.4f  ke %.6f  press %.3f\n%!"
      step t.App.dt s.App.mass s.App.ie s.App.ke s.App.press
  in
  let t0 = Unix.gettimeofday () in
  print_summary 0;
  for i = 1 to steps do
    ignore (App.hydro_step t);
    Fault_common.maybe_persist fc (Ops.checkpoint_session t.App.ctx) (fun path ->
        Ops.checkpoint_to_file t.App.ctx ~path);
    if i mod summary_every = 0 || i = steps then print_summary i
  done;
  Printf.printf "wall time: %s\n\n%!" (Am_util.Units.seconds (Unix.gettimeofday () -. t0));
  print_string (Am_core.Profile.report (Ops.profile t.App.ctx));
  (match Ops.comm_stats t.App.ctx with
  | Some s ->
    Printf.printf "\ncommunication: %d messages, %s, %d ghost exchanges\n"
      s.Am_simmpi.Comm.messages
      (Am_util.Units.bytes s.Am_simmpi.Comm.bytes)
      s.Am_simmpi.Comm.exchanges
  | None -> ());
  if check || analyze then
    Check_common.report
      (if analyze then Am_analysis.Analysis.static_ops t.App.ctx
       else Am_analysis.Analysis.check_ops t.App.ctx);
  if verify then begin
    let h = Am_cloverleaf.Hand.create ~advection ~nx ~ny () in
    ignore (Am_cloverleaf.Hand.run h ~steps);
    let d =
      Am_util.Fa.rel_discrepancy (App.density t) (Am_cloverleaf.Hand.density h)
    in
    Printf.printf "\nverification vs hand-coded baseline: max discrepancy %.3e %s\n" d
      (if d < 1e-10 then "(PASS)" else "(FAIL)");
    if d >= 1e-10 then exit 1
  end;
  Perf_common.print perf ~profile:(Ops.profile t.App.ctx) ~trace:(Ops.trace t.App.ctx);
  Am_obs.Obs.finish ?trace ?obs_json
    ~roofline_gbs:Am_perfmodel.Machines.(xeon_e5_2697v2.stream_bw)
    ~loops:(Am_core.Profile.obs_rows (Ops.profile t.App.ctx))
    ();
  match !pool with Some p -> Am_taskpool.Pool.shutdown p | None -> ()

open Cmdliner

let nx = Arg.(value & opt int 128 & info [ "nx" ] ~doc:"Cells in x.")
let ny = Arg.(value & opt int 128 & info [ "ny" ] ~doc:"Cells in y.")
let steps = Arg.(value & opt int 50 & info [ "steps" ] ~doc:"Hydro steps.")

let backend =
  Arg.(value & opt string "seq" & info [ "backend" ] ~doc:"seq, shared, cuda, mpi, mpi2d or hybrid.")

let ranks = Arg.(value & opt int 4 & info [ "ranks" ] ~doc:"Simulated MPI ranks.")

let summary_every =
  Arg.(value & opt int 10 & info [ "summary-every" ] ~doc:"Field summary interval.")

let verify =
  Arg.(value & flag & info [ "verify" ] ~doc:"Cross-check against the hand-coded baseline.")

let van_leer =
  Arg.(value & flag & info [ "van-leer" ] ~doc:"Second-order van Leer advection.")

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
    (Cmd.info "cloverleaf" ~doc:"CloverLeaf 2D hydrodynamics proxy application (OPS)")
    Term.(
      const run $ nx $ ny $ steps $ backend $ ranks $ summary_every
      $ verify $ van_leer $ Check_common.arg $ Check_common.analyze_arg
      $ trace_arg $ obs_json_arg
      $ Fault_common.faults_arg $ Fault_common.recover_arg $ Perf_common.arg)

let () = exit (Cmd.eval cmd)

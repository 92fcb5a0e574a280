(* Hydra-sim driver: the production-scale synthetic application.

     hydra --nx 128 --ny 96 --iters 50 --backend mpi --ranks 8 --renumber *)

module Op2 = Am_op2.Op2
module App = Am_hydra.App

let run nx ny iters backend ranks renumber no_multigrid check analyze trace
    obs_json faults recover perf =
  Check_common.guard @@ fun () ->
  Op2_common.check_flags ~app:"hydra" ~sizes:[ ("--nx", nx); ("--ny", ny) ]
    ~counts:[ ("--iters", iters) ]
    ~outputs:[ ("--trace", trace); ("--obs-json", obs_json) ]
    ~backend ~ranks;
  Am_obs.Obs.reset ();
  if trace <> None then Am_obs.Obs.set_tracing true;
  let features = { App.all_features with App.multigrid = not no_multigrid } in
  Fault_common.with_faults ~app:"hydra" ~faults ~recover @@ fun fc ~recovering ->
  let t =
    Flag_common.usage_on_refusal ~app:"hydra" (fun () -> App.create ~features ~nx ~ny ())
  in
  if analyze then Am_core.Trace.set_enabled (Op2.trace t.App.ctx) true;
  Perf_common.enable perf (Op2.trace t.App.ctx);
  Printf.printf "hydra-sim: %d fine cells (+%d coarse), %d loops/iteration\n%!"
    t.App.mesh.Am_mesh.Umesh.n_cells t.App.coarse_mesh.Am_mesh.Umesh.n_cells
    App.loops_per_iteration;
  (* Renumbering must precede partitioning. *)
  if renumber then begin
    let before, after = Op2.renumber t.App.ctx ~through:t.App.edge_cells in
    Printf.printf "renumbered: dual-graph mean bandwidth %.1f -> %.1f\n%!" before after
  end;
  let pool =
    if check then begin
      Op2.set_backend t.App.ctx Op2.Check;
      Am_core.Trace.set_enabled (Op2.trace t.App.ctx) true;
      None
    end
    else
      Op2_common.select_backend t.App.ctx ~backend ~ranks
        ~partition:(fun n_ranks ->
          Op2.partition t.App.ctx ~n_ranks ~strategy:(Op2.Kway_through t.App.edge_cells))
  in
  (match Fault_common.injector fc with
  | Some f -> Op2.set_fault_injector t.App.ctx f
  | None -> ());
  Fault_common.arm fc ~recovering
    ~recover:(fun path -> Op2.recover_from_file t.App.ctx ~path)
    ~enable:(fun () ->
      Op2.enable_checkpointing t.App.ctx;
      Op2.request_checkpoint t.App.ctx);
  let t0 = Unix.gettimeofday () in
  for i = 1 to iters do
    let rms = App.iteration t in
    Fault_common.maybe_persist fc (Op2.checkpoint_session t.App.ctx) (fun path ->
        Op2.checkpoint_to_file t.App.ctx ~path);
    if i mod 10 = 0 || i = iters then Printf.printf "  %4d  %10.5e\n%!" i rms
  done;
  Printf.printf "wall time: %s\n\n%!" (Am_util.Units.seconds (Unix.gettimeofday () -. t0));
  print_string (Am_core.Profile.report (Op2.profile t.App.ctx));
  if check || analyze then
    Check_common.report
      (if analyze then Am_analysis.Analysis.static_op2 t.App.ctx
       else Am_analysis.Analysis.check_op2 t.App.ctx);
  Perf_common.print perf ~profile:(Op2.profile t.App.ctx) ~trace:(Op2.trace t.App.ctx);
  Am_obs.Obs.finish ?trace ?obs_json
    ~roofline_gbs:Am_perfmodel.Machines.(xeon_e5_2697v2.stream_bw)
    ~loops:(Am_core.Profile.obs_rows (Op2.profile t.App.ctx))
    ();
  Option.iter Am_taskpool.Pool.shutdown pool

open Cmdliner

let nx = Arg.(value & opt int 96 & info [ "nx" ] ~doc:"Fine cells in x (even).")
let ny = Arg.(value & opt int 64 & info [ "ny" ] ~doc:"Fine cells in y (even).")
let iters = Arg.(value & opt int 50 & info [ "iters" ] ~doc:"Outer iterations.")

let backend =
  Arg.(
    value
    & opt string "seq"
    & info [ "backend" ] ~doc:"Backend: seq, vec, shared, cuda, mpi or hybrid.")

let ranks = Arg.(value & opt int 4 & info [ "ranks" ] ~doc:"Simulated MPI ranks.")
let renumber = Arg.(value & flag & info [ "renumber" ] ~doc:"Apply RCM renumbering.")

let no_multigrid =
  Arg.(value & flag & info [ "no-multigrid" ] ~doc:"Disable the multigrid cycle.")

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
    (Cmd.info "hydra" ~doc:"Production-scale synthetic RANS pipeline (OP2)")
    Term.(
      const run $ nx $ ny $ iters $ backend $ ranks $ renumber $ no_multigrid
      $ Check_common.arg $ Check_common.analyze_arg $ trace_arg $ obs_json_arg
      $ Fault_common.faults_arg $ Fault_common.recover_arg $ Perf_common.arg)

let () = exit (Cmd.eval cmd)

(* Aero driver: the FEM + matrix-free CG proxy application from the
   command line.

     aero --size 64 --iters 2 --backend mpi --ranks 4 --verify

   Solves -laplacian(phi) = 2 pi^2 sin(pi x) sin(pi y) on the unit square
   with bilinear quad elements, prints per-Newton CG iteration counts, the
   L2 error against the analytic solution, and the per-loop profile. *)

module Op2 = Am_op2.Op2
module App = Am_aero.App
module Umesh = Am_mesh.Umesh

let run n iters backend ranks renumber verify check analyze trace obs_json faults
    recover perf =
  Check_common.guard @@ fun () ->
  Op2_common.check_flags ~app:"aero" ~sizes:[ ("--size", n) ] ~counts:[ ("--iters", iters) ]
    ~outputs:[ ("--trace", trace); ("--obs-json", obs_json) ]
    ~backend ~ranks;
  Am_obs.Obs.reset ();
  if trace <> None then Am_obs.Obs.set_tracing true;
  let mesh = App.generate_mesh ~n in
  Printf.printf "aero: %dx%d cells, %d nodes\n%!" n n mesh.Umesh.n_nodes;
  Fault_common.with_faults ~app:"aero" ~faults ~recover @@ fun fc ~recovering ->
  let t = App.create mesh in
  Perf_common.enable perf (Op2.trace t.App.ctx);
  if analyze then Am_core.Trace.set_enabled (Op2.trace t.App.ctx) true;
  let original_order =
    if renumber then
      Op2_common.renumber t.App.ctx ~through:t.App.cell_nodes ~set:t.App.nodes
        ~size:mesh.Umesh.n_nodes ~dim:1
    else Fun.id
  in
  let pool =
    if check then begin
      Op2.set_backend t.App.ctx Op2.Check;
      Am_core.Trace.set_enabled (Op2.trace t.App.ctx) true;
      None
    end
    else
      Op2_common.select_backend t.App.ctx ~backend ~ranks
        ~partition:(fun n_ranks ->
          Op2.partition t.App.ctx ~n_ranks ~strategy:(Op2.Rcb_on t.App.x))
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
    let cg_iters, rms = App.iteration t in
    Fault_common.maybe_persist fc (Op2.checkpoint_session t.App.ctx) (fun path ->
        Op2.checkpoint_to_file t.App.ctx ~path);
    Printf.printf "  newton %d: %3d CG iterations, update rms %10.5e\n%!" i cg_iters rms
  done;
  Printf.printf "L2 error vs analytic solution: %.3e\n" (App.l2_error t);
  Printf.printf "wall time: %s\n\n%!" (Am_util.Units.seconds (Unix.gettimeofday () -. t0));
  print_string (Am_core.Profile.report (Op2.profile t.App.ctx));
  (match Op2.comm_stats t.App.ctx with
  | Some s ->
    Printf.printf "\ncommunication: %d messages, %s, %d halo exchanges, %d reductions\n"
      s.Am_simmpi.Comm.messages
      (Am_util.Units.bytes s.Am_simmpi.Comm.bytes)
      s.Am_simmpi.Comm.exchanges s.Am_simmpi.Comm.reductions
  | None -> ());
  if check || analyze then
    Check_common.report
      (if analyze then Am_analysis.Analysis.static_op2 t.App.ctx
       else Am_analysis.Analysis.check_op2 t.App.ctx);
  if verify then begin
    let h = Am_aero.Hand.create mesh in
    ignore (Am_aero.Hand.run h ~iters);
    let d =
      Am_util.Fa.rel_discrepancy (original_order (App.solution t)) (Am_aero.Hand.solution h)
    in
    Printf.printf "\nverification vs hand-coded baseline: max discrepancy %.3e %s\n" d
      (if d < 1e-8 then "(PASS)" else "(FAIL)");
    if d >= 1e-8 then exit 1
  end;
  Perf_common.print perf ~profile:(Op2.profile t.App.ctx) ~trace:(Op2.trace t.App.ctx);
  Am_obs.Obs.finish ?trace ?obs_json
    ~roofline_gbs:Am_perfmodel.Machines.(xeon_e5_2697v2.stream_bw)
    ~loops:(Am_core.Profile.obs_rows (Op2.profile t.App.ctx))
    ();
  Option.iter Am_taskpool.Pool.shutdown pool

open Cmdliner

let n = Arg.(value & opt int 48 & info [ "size" ] ~doc:"Cells per side of the unit square.")
let iters = Arg.(value & opt int 2 & info [ "iters" ] ~doc:"Newton iterations.")

let backend =
  Arg.(
    value
    & opt string "seq"
    & info [ "backend" ] ~doc:"Backend: seq, vec, shared, cuda, mpi or hybrid.")

let ranks = Arg.(value & opt int 4 & info [ "ranks" ] ~doc:"Simulated MPI ranks.")

let renumber =
  Arg.(value & flag & info [ "renumber" ] ~doc:"Apply RCM mesh renumbering first.")

let verify =
  Arg.(value & flag & info [ "verify" ] ~doc:"Cross-check against the hand-coded baseline.")

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
    (Cmd.info "aero" ~doc:"2D FEM + matrix-free CG proxy application (OP2)")
    Term.(
      const run $ n $ iters $ backend $ ranks $ renumber $ verify
      $ Check_common.arg $ Check_common.analyze_arg $ trace_arg $ obs_json_arg
      $ Fault_common.faults_arg $ Fault_common.recover_arg $ Perf_common.arg)

let () = exit (Cmd.eval cmd)

(* Airfoil driver: the OP2 proxy application from the command line.

     airfoil --nx 200 --ny 150 --iters 100 --backend mpi --ranks 8 --verify

   Prints the residual history like the original test case, the per-loop
   profile (the data behind Table I), and optionally cross-checks the
   result against the hand-coded baseline. *)

module Op2 = Am_op2.Op2
module App = Am_airfoil.App
module Umesh = Am_mesh.Umesh

let run nx ny iters backend ranks renumber verify check analyze save_to
    mesh_file trace obs_json faults recover perf =
  Check_common.guard @@ fun () ->
  Op2_common.check_flags ~app:"airfoil"
    ~sizes:[ ("--nx", nx); ("--ny", ny) ] ~counts:[ ("--iters", iters) ]
    ~outputs:
      [ ("--trace", trace); ("--obs-json", obs_json); ("--save", save_to); ("--mesh", mesh_file) ]
    ~backend ~ranks;
  Am_obs.Obs.reset ();
  if trace <> None then Am_obs.Obs.set_tracing true;
  (* Meshes load from snapshot files (the HDF5-style input path) or are
     generated; --save-mesh in a previous run produces the file. *)
  let mesh =
    match mesh_file with
    | Some path when Sys.file_exists path ->
      Printf.printf "loading mesh from %s
%!" path;
      Am_sysio.Meshio.load path
    | Some path ->
      let m = Umesh.generate_airfoil ~nx ~ny () in
      Am_sysio.Meshio.save path m;
      Printf.printf "generated mesh written to %s
%!" path;
      m
    | None -> Umesh.generate_airfoil ~nx ~ny ()
  in
  Printf.printf "airfoil: %d cells, %d edges, %d nodes\n%!" mesh.Umesh.n_cells
    mesh.Umesh.n_edges mesh.Umesh.n_nodes;
  Fault_common.with_faults ~app:"airfoil" ~faults ~recover @@ fun fc ~recovering ->
  let t = App.create mesh in
  Perf_common.enable perf (Op2.trace t.App.ctx);
  if analyze then Am_core.Trace.set_enabled (Op2.trace t.App.ctx) true;
  let original_order =
    if renumber then
      Op2_common.renumber t.App.ctx ~through:t.App.edge_cells ~set:t.App.cells
        ~size:mesh.Umesh.n_cells ~dim:4
    else Fun.id
  in
  let pool =
    if check then begin
      Op2.set_backend t.App.ctx Op2.Check;
      Am_core.Trace.set_enabled (Op2.trace t.App.ctx) true;
      None
    end
    else
      Op2_common.select_backend t.App.ctx ~backend ~ranks ~partition:(fun n_ranks ->
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
    if i mod 100 = 0 || i = iters then Printf.printf "  %4d  %10.5e\n%!" i rms
  done;
  Printf.printf "wall time: %s\n\n%!" (Am_util.Units.seconds (Unix.gettimeofday () -. t0));
  print_string (Am_core.Profile.report (Op2.profile t.App.ctx));
  (match Op2.comm_stats t.App.ctx with
  | Some s ->
    Printf.printf "\ncommunication: %d messages, %s, %d halo exchanges\n"
      s.Am_simmpi.Comm.messages
      (Am_util.Units.bytes s.Am_simmpi.Comm.bytes)
      s.Am_simmpi.Comm.exchanges
  | None -> ());
  if check || analyze then
    Check_common.report
      (if analyze then Am_analysis.Analysis.static_op2 t.App.ctx
       else Am_analysis.Analysis.check_op2 t.App.ctx);
  if verify then begin
    let h = Am_airfoil.Hand.create mesh in
    ignore (Am_airfoil.Hand.run h ~iters);
    let d =
      Am_util.Fa.rel_discrepancy (original_order (App.solution t)) (Am_airfoil.Hand.solution h)
    in
    Printf.printf "\nverification vs hand-coded baseline: max discrepancy %.3e %s\n" d
      (if d < 1e-10 then "(PASS)" else "(FAIL)");
    if d >= 1e-10 then exit 1
  end;
  (match save_to with
  | Some path ->
    Am_sysio.Snapshot.save path [ ("q", App.solution t) ];
    Printf.printf "solution written to %s\n" path
  | None -> ());
  Perf_common.print perf ~profile:(Op2.profile t.App.ctx) ~trace:(Op2.trace t.App.ctx);
  Am_obs.Obs.finish ?trace ?obs_json
    ~roofline_gbs:Am_perfmodel.Machines.(xeon_e5_2697v2.stream_bw)
    ~loops:(Am_core.Profile.obs_rows (Op2.profile t.App.ctx))
    ();
  Option.iter Am_taskpool.Pool.shutdown pool

open Cmdliner

let nx = Arg.(value & opt int 120 & info [ "nx" ] ~doc:"Cells in x.")
let ny = Arg.(value & opt int 80 & info [ "ny" ] ~doc:"Cells in y.")
let iters = Arg.(value & opt int 100 & info [ "iters" ] ~doc:"Outer iterations.")

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

let save_to =
  Arg.(
    value
    & opt (some string) None
    & info [ "save" ] ~doc:"Write the final solution to a snapshot file.")

let mesh_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "mesh" ]
        ~doc:"Mesh snapshot file: loaded if it exists, generated and written \
              otherwise (the HDF5-style input path).")


let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ]
        ~doc:"Write a Chrome trace-event JSON of the run to $(docv) (open in \
              chrome://tracing or ui.perfetto.dev).  Enables span tracing."
        ~docv:"FILE")

let obs_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "obs-json" ]
        ~doc:"Write the runtime counter registry as JSON to $(docv)." ~docv:"FILE")

let cmd =
  Cmd.v
    (Cmd.info "airfoil" ~doc:"Non-linear 2D inviscid Euler proxy application (OP2)")
    Term.(
      const run $ nx $ ny $ iters $ backend $ ranks $ renumber $ verify
      $ Check_common.arg $ Check_common.analyze_arg $ save_to $ mesh_file
      $ trace_arg $ obs_json_arg
      $ Fault_common.faults_arg $ Fault_common.recover_arg $ Perf_common.arg)

let () = exit (Cmd.eval cmd)

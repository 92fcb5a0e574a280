(* Workload calibration for the paper-scale experiments.

   Every modelled figure is driven by inputs extracted from *executed*
   programs, not hand-written numbers:

   - the loop sequence of one time step/iteration is traced from a real run
     of the application on a laptop-scale mesh, then re-priced at the
     paper's mesh sizes by scaling the descriptors' set sizes;
   - communication coefficients come from the traffic the distributed
     runtime actually sent at small scale (recorded by the rank simulator),
     extrapolated with the 2D surface law bytes/rank = c * sqrt(n_local).

   The only free constants are the hardware descriptions in
   [Am_perfmodel.Machines] (calibrated once against Table I) and the
   paper-quoted mechanism effects documented where used. *)

module Descr = Am_core.Descr
module Trace = Am_core.Trace
module Model = Am_perfmodel.Model
module Cluster = Am_perfmodel.Cluster
module Op2 = Am_op2.Op2
module Ops = Am_ops.Ops

(* Aggregate a traced iteration: per loop name, executions per iteration and
   one representative descriptor. *)
type loop_profile = { descr : Descr.loop; calls_per_iteration : int }

let group_by_name events =
  let order = ref [] in
  let table = Hashtbl.create 16 in
  List.iter
    (fun (l : Descr.loop) ->
      match Hashtbl.find_opt table l.Descr.loop_name with
      | Some p ->
        Hashtbl.replace table l.Descr.loop_name
          { p with calls_per_iteration = p.calls_per_iteration + 1 }
      | None ->
        Hashtbl.add table l.Descr.loop_name { descr = l; calls_per_iteration = 1 };
        order := l.Descr.loop_name :: !order)
    events;
  (* [order] accumulates reversed; rev_map restores appearance order. *)
  List.rev_map (fun name -> Hashtbl.find table name) !order

(* Flat per-iteration loop list (every execution). *)
let iteration_loops profiles =
  List.concat_map
    (fun p -> List.init p.calls_per_iteration (fun _ -> p.descr))
    profiles

(* ---- Airfoil ---------------------------------------------------------- *)

type traced_app = {
  app_name : string;
  profiles : loop_profile list;
  consts : (string * float array) list; (* op_decl_const registry *)
  footprints : Am_core.Probe.info list;
      (* observed kernel footprints, probed from the traced run's call sites *)
  ref_cells : int; (* iteration elements of the primary set *)
  comm_bytes_per_iter : float; (* measured at [comm_ranks] *)
  comm_ranks : int;
  exchanges_per_iter : int;
  reductions_per_iter : int;
}

let default_nx = 96
let default_ny = 64

let trace_airfoil ?(nx = default_nx) ?(ny = default_ny) () =
  let mesh = Am_mesh.Umesh.generate_airfoil ~nx ~ny () in
  let app = Am_airfoil.App.create mesh in
  Trace.set_enabled (Op2.trace app.Am_airfoil.App.ctx) true;
  ignore (Am_airfoil.App.iteration app);
  let profiles = group_by_name (Trace.events (Op2.trace app.Am_airfoil.App.ctx)) in
  (* Communication: measure one iteration on the partitioned runtime. *)
  let ranks = 4 in
  let mesh2 = Am_mesh.Umesh.generate_airfoil ~nx ~ny () in
  let app2 = Am_airfoil.App.create mesh2 in
  Op2.partition app2.Am_airfoil.App.ctx ~n_ranks:ranks
    ~strategy:(Op2.Kway_through app2.Am_airfoil.App.edge_cells);
  ignore (Am_airfoil.App.iteration app2); (* warm the halos *)
  let stats = Option.get (Op2.comm_stats app2.Am_airfoil.App.ctx) in
  stats.Am_simmpi.Comm.bytes <- 0;
  stats.Am_simmpi.Comm.exchanges <- 0;
  stats.Am_simmpi.Comm.reductions <- 0;
  ignore (Am_airfoil.App.iteration app2);
  {
    app_name = "Airfoil";
    profiles;
    consts = Op2.consts app.Am_airfoil.App.ctx;
    footprints = Op2.footprints app.Am_airfoil.App.ctx;
    ref_cells = mesh.Am_mesh.Umesh.n_cells;
    comm_bytes_per_iter = Float.of_int stats.Am_simmpi.Comm.bytes;
    comm_ranks = ranks;
    exchanges_per_iter = stats.Am_simmpi.Comm.exchanges;
    reductions_per_iter = stats.Am_simmpi.Comm.reductions;
  }

let trace_hydra ?(nx = 64) ?(ny = 48) () =
  let app = Am_hydra.App.create ~nx ~ny () in
  Trace.set_enabled (Op2.trace app.Am_hydra.App.ctx) true;
  ignore (Am_hydra.App.iteration app);
  let profiles = group_by_name (Trace.events (Op2.trace app.Am_hydra.App.ctx)) in
  let ranks = 4 in
  let app2 = Am_hydra.App.create ~nx ~ny () in
  Op2.partition app2.Am_hydra.App.ctx ~n_ranks:ranks
    ~strategy:(Op2.Kway_through app2.Am_hydra.App.edge_cells);
  ignore (Am_hydra.App.iteration app2);
  let stats = Option.get (Op2.comm_stats app2.Am_hydra.App.ctx) in
  stats.Am_simmpi.Comm.bytes <- 0;
  stats.Am_simmpi.Comm.exchanges <- 0;
  stats.Am_simmpi.Comm.reductions <- 0;
  ignore (Am_hydra.App.iteration app2);
  {
    app_name = "Hydra";
    profiles;
    consts = Op2.consts app.Am_hydra.App.ctx;
    footprints = Op2.footprints app.Am_hydra.App.ctx;
    ref_cells = app.Am_hydra.App.mesh.Am_mesh.Umesh.n_cells;
    comm_bytes_per_iter = Float.of_int stats.Am_simmpi.Comm.bytes;
    comm_ranks = ranks;
    exchanges_per_iter = stats.Am_simmpi.Comm.exchanges;
    reductions_per_iter = stats.Am_simmpi.Comm.reductions;
  }

(* Aero: traced for the code generator and the measured tables (it has no
   figure of its own in the paper; its value is the very different loop
   profile — a 13-argument assembly loop and a reduction-per-iteration CG). *)
let trace_aero ?(n = 32) () =
  let app = Am_aero.App.create (Am_aero.App.generate_mesh ~n) in
  Trace.set_enabled (Op2.trace app.Am_aero.App.ctx) true;
  ignore (Am_aero.App.iteration app);
  let profiles = group_by_name (Trace.events (Op2.trace app.Am_aero.App.ctx)) in
  let ranks = 4 in
  let app2 = Am_aero.App.create (Am_aero.App.generate_mesh ~n) in
  Op2.partition app2.Am_aero.App.ctx ~n_ranks:ranks
    ~strategy:(Op2.Rcb_on app2.Am_aero.App.x);
  ignore (Am_aero.App.iteration app2);
  let stats = Option.get (Op2.comm_stats app2.Am_aero.App.ctx) in
  stats.Am_simmpi.Comm.bytes <- 0;
  stats.Am_simmpi.Comm.exchanges <- 0;
  stats.Am_simmpi.Comm.reductions <- 0;
  ignore (Am_aero.App.iteration app2);
  {
    app_name = "Aero";
    profiles;
    consts = Op2.consts app.Am_aero.App.ctx;
    footprints = Op2.footprints app.Am_aero.App.ctx;
    ref_cells = app.Am_aero.App.mesh.Am_mesh.Umesh.n_cells;
    comm_bytes_per_iter = Float.of_int stats.Am_simmpi.Comm.bytes;
    comm_ranks = ranks;
    exchanges_per_iter = stats.Am_simmpi.Comm.exchanges;
    reductions_per_iter = stats.Am_simmpi.Comm.reductions;
  }

let trace_cloverleaf ?(nx = 96) ?(ny = 96) () =
  let app = Am_cloverleaf.App.create ~nx ~ny () in
  (* One settling step so the traced step is representative, then trace. *)
  ignore (Am_cloverleaf.App.hydro_step app);
  Trace.set_enabled (Ops.trace app.Am_cloverleaf.App.ctx) true;
  ignore (Am_cloverleaf.App.hydro_step app);
  let profiles = group_by_name (Trace.events (Ops.trace app.Am_cloverleaf.App.ctx)) in
  (* Comm volume measured on the 2D grid decomposition — what CloverLeaf
     actually runs on Titan — so the cluster model's sqrt(n_local) surface
     law is calibrated against a genuinely 2D perimeter. *)
  let ranks = 4 in
  let app2 = Am_cloverleaf.App.create ~nx ~ny () in
  Ops.partition_grid app2.Am_cloverleaf.App.ctx ~px:2 ~py:2 ~ref_xsize:nx
    ~ref_ysize:ny;
  ignore (Am_cloverleaf.App.hydro_step app2);
  let stats = Option.get (Ops.comm_stats app2.Am_cloverleaf.App.ctx) in
  stats.Am_simmpi.Comm.bytes <- 0;
  stats.Am_simmpi.Comm.exchanges <- 0;
  stats.Am_simmpi.Comm.reductions <- 0;
  ignore (Am_cloverleaf.App.hydro_step app2);
  {
    app_name = "CloverLeaf";
    profiles;
    consts = [];
    footprints = Ops.footprints app.Am_cloverleaf.App.ctx;
    ref_cells = nx * ny;
    comm_bytes_per_iter = Float.of_int stats.Am_simmpi.Comm.bytes;
    comm_ranks = ranks;
    exchanges_per_iter = stats.Am_simmpi.Comm.exchanges;
    reductions_per_iter = stats.Am_simmpi.Comm.reductions;
  }

(* ---- Extension apps (not in the paper; same methodology) --------------- *)

(* TeaLeaf-sim: one implicit step is a dynamic CG iteration count, so the
   traced "iteration" is one whole step at this problem size. *)
let trace_tealeaf ?(n = 24) () =
  let app = Am_tealeaf.App.create ~n () in
  ignore (Am_tealeaf.App.step app); (* settle the first solve *)
  Trace.set_enabled (Am_ops.Ops3.trace app.Am_tealeaf.App.ctx) true;
  ignore (Am_tealeaf.App.step app);
  let profiles =
    group_by_name (Trace.events (Am_ops.Ops3.trace app.Am_tealeaf.App.ctx))
  in
  let ranks = 4 in
  let app2 = Am_tealeaf.App.create ~n () in
  Am_ops.Ops3.partition_pencil app2.Am_tealeaf.App.ctx ~py:2 ~pz:2 ~ref_ysize:n
    ~ref_zsize:n;
  ignore (Am_tealeaf.App.step app2);
  let stats = Option.get (Am_ops.Ops3.comm_stats app2.Am_tealeaf.App.ctx) in
  stats.Am_simmpi.Comm.bytes <- 0;
  stats.Am_simmpi.Comm.exchanges <- 0;
  stats.Am_simmpi.Comm.reductions <- 0;
  ignore (Am_tealeaf.App.step app2);
  {
    app_name = "TeaLeaf";
    profiles;
    consts = [];
    footprints = Am_ops.Ops3.footprints app.Am_tealeaf.App.ctx;
    ref_cells = n * n * n;
    comm_bytes_per_iter = Float.of_int stats.Am_simmpi.Comm.bytes;
    comm_ranks = ranks;
    exchanges_per_iter = stats.Am_simmpi.Comm.exchanges;
    reductions_per_iter = stats.Am_simmpi.Comm.reductions;
  }

let trace_cloverleaf3 ?(n = 24) () =
  let app = Am_cloverleaf3.App.create ~n () in
  ignore (Am_cloverleaf3.App.hydro_step app);
  Trace.set_enabled (Am_ops.Ops3.trace app.Am_cloverleaf3.App.ctx) true;
  ignore (Am_cloverleaf3.App.hydro_step app);
  let profiles =
    group_by_name (Trace.events (Am_ops.Ops3.trace app.Am_cloverleaf3.App.ctx))
  in
  let ranks = 4 in
  let app2 = Am_cloverleaf3.App.create ~n () in
  Am_ops.Ops3.partition_pencil app2.Am_cloverleaf3.App.ctx ~py:2 ~pz:2 ~ref_ysize:n
    ~ref_zsize:n;
  ignore (Am_cloverleaf3.App.hydro_step app2);
  let stats = Option.get (Am_ops.Ops3.comm_stats app2.Am_cloverleaf3.App.ctx) in
  stats.Am_simmpi.Comm.bytes <- 0;
  stats.Am_simmpi.Comm.exchanges <- 0;
  stats.Am_simmpi.Comm.reductions <- 0;
  ignore (Am_cloverleaf3.App.hydro_step app2);
  {
    app_name = "CloverLeaf3D";
    profiles;
    consts = [];
    footprints = Am_ops.Ops3.footprints app.Am_cloverleaf3.App.ctx;
    ref_cells = n * n * n;
    comm_bytes_per_iter = Float.of_int stats.Am_simmpi.Comm.bytes;
    comm_ranks = ranks;
    exchanges_per_iter = stats.Am_simmpi.Comm.exchanges;
    reductions_per_iter = stats.Am_simmpi.Comm.reductions;
  }

(* ---- Paper-scale re-pricing ------------------------------------------- *)

(* Scale every traced loop to a target primary-set size. *)
let scaled_iteration traced ~cells =
  let factor = Float.of_int cells /. Float.of_int traced.ref_cells in
  Model.scale_sequence factor (iteration_loops traced.profiles)

(* Cluster workload at a target global size. *)
let workload traced ~neighbours =
  let n_local = traced.ref_cells / traced.comm_ranks in
  {
    Cluster.workload_name = traced.app_name;
    step_loops = iteration_loops traced.profiles;
    ref_elements = traced.ref_cells;
    halo_bytes_coeff =
      Cluster.calibrate_halo_coeff ~bytes_per_step:traced.comm_bytes_per_iter
        ~ranks:traced.comm_ranks ~n_local;
    exchanges_per_step = max 1 traced.exchanges_per_iter;
    reductions_per_step = max 1 traced.reductions_per_iter;
    neighbours;
  }

(* The full CloverLeaf cycle (predictor-corrector advection with van Leer
   limiters, ideal-gas calls per half step, extra work arrays) moves roughly
   twice the data per cell of the reduced first-order cycle implemented
   here; modelled CloverLeaf times are scaled by this factor so absolute
   magnitudes are comparable with the paper's.  All Original-vs-OPS ratios
   and scaling shapes are unaffected. *)
let clover_paper_traffic_factor = 1.95

(* Paper problem sizes. *)
let airfoil_paper_cells = 2_800_000
let airfoil_paper_iterations = 1000
let hydra_paper_cells = 2_500_000
let hydra_paper_iterations = 20
let clover_fig5_cells = 3840 * 3840
let clover_fig5_steps = 87
let clover_fig6_strong_cells = 15360 * 15360
let clover_fig6_steps = 87

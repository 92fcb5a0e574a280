(* Ablations of the design choices DESIGN.md calls out.

   Each ablation isolates one mechanism of the library and shows its effect
   with real executions (plan statistics, recorded traffic, wall-clock) and,
   where relevant, the analytic device model. *)

module Table = Am_util.Table
module Units = Am_util.Units
module Op2 = Am_op2.Op2
module Ops = Am_ops.Ops
module Umesh = Am_mesh.Umesh
module Csr = Am_mesh.Csr
module Partition = Am_mesh.Partition

let iteration t () = ignore (Am_airfoil.App.iteration t)

(* Timed calls or interleaved pairs per measured row. *)
let repeat = 10

(* ---- Block size vs colour count (shared-memory plans) ------------------ *)

let block_size_sweep ?(nx = 120) ?(ny = 80) () =
  let mesh = Umesh.generate_airfoil ~nx ~ny () in
  let table =
    Table.create
      ~title:"ablation: plan block size (Airfoil res_calc-class loops, shared backend)"
      ~header:[ "block size"; "block colours"; "s/iteration (median)" ]
      ~aligns:[ Table.Right; Right; Right ]
      ()
  in
  List.iter
    (fun block_size ->
      (* Colour count of the res_calc plan at this block size. *)
      let t = Am_airfoil.App.create mesh in
      let args =
        [
          Op2.arg_dat_indirect t.Am_airfoil.App.res t.Am_airfoil.App.edge_cells 0
            Am_core.Access.Inc;
          Op2.arg_dat_indirect t.Am_airfoil.App.res t.Am_airfoil.App.edge_cells 1
            Am_core.Access.Inc;
        ]
      in
      let plan =
        Am_op2.Plan.build ~set_size:t.Am_airfoil.App.edges.Am_op2.Types.set_size
          ~block_size args
      in
      let colors = plan.Am_op2.Plan.block_coloring.Am_mesh.Coloring.n_colors in
      let seconds =
        Am_taskpool.Pool.with_pool (fun pool ->
            let a =
              Am_airfoil.App.create ~backend:(Op2.Shared { pool; block_size }) mesh
            in
            (Timing.sample ~repeat (iteration a)).Am_util.Regress.median)
      in
      Table.add_row table
        [ string_of_int block_size; string_of_int colors; Units.seconds seconds ])
    [ 16; 64; 256; 1024 ];
  Table.print table;
  print_newline ()

(* ---- Partitioner quality ------------------------------------------------ *)

let partitioner_quality ?(nx = 120) ?(ny = 80) ?(ranks = 8) () =
  let mesh = Umesh.generate_airfoil ~nx ~ny () in
  let dual = Umesh.cell_dual_graph mesh in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "ablation: partition quality at %d ranks (Airfoil %dx%d) and the \
            communication it causes"
           ranks nx ny)
      ~header:[ "partitioner"; "edge cut"; "imbalance"; "measured bytes/iter" ]
      ~aligns:[ Table.Left; Right; Right; Right ]
      ()
  in
  let measure strategy_of =
    let t = Am_airfoil.App.create (Umesh.generate_airfoil ~nx ~ny ()) in
    Op2.partition t.Am_airfoil.App.ctx ~n_ranks:ranks ~strategy:(strategy_of t);
    ignore (Am_airfoil.App.iteration t);
    let stats = Option.get (Op2.comm_stats t.Am_airfoil.App.ctx) in
    stats.Am_simmpi.Comm.bytes <- 0;
    ignore (Am_airfoil.App.iteration t);
    stats.Am_simmpi.Comm.bytes
  in
  let row name assignment strategy_of =
    let q = Partition.quality dual ~parts:ranks assignment in
    Table.add_row table
      [
        name;
        string_of_int q.Partition.edge_cut;
        Printf.sprintf "%.1f%%" (100.0 *. q.Partition.imbalance);
        Units.bytes (measure strategy_of);
      ]
  in
  row "naive block" (Partition.block ~n:mesh.Umesh.n_cells ~parts:ranks)
    (fun t -> Op2.Block_on t.Am_airfoil.App.cells);
  row "coordinate RCB"
    (Partition.rcb ~coords:(Umesh.cell_centroids mesh) ~dim:2 ~n:mesh.Umesh.n_cells
       ~parts:ranks)
    (fun t -> Op2.Rcb_on t.Am_airfoil.App.x);
  (* RCB partitions cells by centroid; the runtime strategy uses node
     coordinates, close enough for the comparison. *)
  row "k-way + refinement" (Partition.kway dual ~parts:ranks)
    (fun t -> Op2.Kway_through t.Am_airfoil.App.edge_cells);
  Table.print table;
  print_newline ()

(* ---- Halo-exchange policy (on-demand dirty-bit vs eager) ----------------- *)

(* The paper's runtime exchanges halos on demand, driven by the access
   descriptors: a dataset's halo is refreshed only if a previous loop wrote
   it. This ablation runs the same applications with that tracking disabled
   (exchange before *every* indirect read) and reports the traffic both
   ways — the saving is what the access-execute abstraction knows that a
   bare message-passing runtime does not. *)
let halo_policy ?(ranks = 4) () =
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "ablation: on-demand (dirty-bit) vs eager halo exchanges at %d ranks, \
            one iteration/step" ranks)
      ~header:
        [ "application"; "eager bytes"; "on-demand bytes"; "saved"; "exchanges e/o" ]
      ~aligns:[ Table.Left; Right; Right; Right; Right ]
      ()
  in
  let measure ~warm make_app run_iter set_policy policy =
    let t = make_app () in
    set_policy t policy;
    (* Steady-state apps are warmed so the measured iteration is
       representative; the Aero row measures its first (and only
       hard-working) Newton iteration, CG included. *)
    if warm then run_iter t;
    let stats = Option.get (Op2.comm_stats (fst t)) in
    stats.Am_simmpi.Comm.bytes <- 0;
    stats.Am_simmpi.Comm.exchanges <- 0;
    run_iter t;
    (stats.Am_simmpi.Comm.bytes, stats.Am_simmpi.Comm.exchanges)
  in
  let row ?(warm = true) name make_app run_iter =
    let set_policy t p = Op2.set_halo_policy (fst t) p in
    let eager_bytes, eager_ex = measure ~warm make_app run_iter set_policy Op2.Eager in
    let od_bytes, od_ex = measure ~warm make_app run_iter set_policy Op2.On_demand in
    Table.add_row table
      [
        name;
        Units.bytes eager_bytes;
        Units.bytes od_bytes;
        Printf.sprintf "%.0f%%"
          (100.0 *. (1.0 -. (Float.of_int od_bytes /. Float.of_int eager_bytes)));
        Printf.sprintf "%d/%d" eager_ex od_ex;
      ]
  in
  row "Airfoil 96x64"
    (fun () ->
      let t = Am_airfoil.App.create (Umesh.generate_airfoil ~nx:96 ~ny:64 ()) in
      Op2.partition t.Am_airfoil.App.ctx ~n_ranks:ranks
        ~strategy:(Op2.Kway_through t.Am_airfoil.App.edge_cells);
      (t.Am_airfoil.App.ctx, `Airfoil t))
    (fun (_, app) -> match app with `Airfoil t -> ignore (Am_airfoil.App.iteration t));
  row "Hydra-sim 48x32"
    (fun () ->
      let t = Am_hydra.App.create ~nx:48 ~ny:32 () in
      Op2.partition t.Am_hydra.App.ctx ~n_ranks:ranks
        ~strategy:(Op2.Kway_through t.Am_hydra.App.edge_cells);
      (t.Am_hydra.App.ctx, `Hydra t))
    (fun (_, app) -> match app with `Hydra t -> ignore (Am_hydra.App.iteration t));
  row ~warm:false "Aero 32x32 (assembly + full CG solve)"
    (fun () ->
      let t = Am_aero.App.create (Am_aero.App.generate_mesh ~n:32) in
      Op2.partition t.Am_aero.App.ctx ~n_ranks:ranks
        ~strategy:(Op2.Rcb_on t.Am_aero.App.x);
      (t.Am_aero.App.ctx, `Aero t))
    (fun (_, app) -> match app with `Aero t -> ignore (Am_aero.App.iteration t));
  (* OPS has the same dirty-bit machinery over ghost rows. *)
  let clover_measure policy =
    let t = Am_cloverleaf.App.create ~nx:48 ~ny:48 () in
    Ops.partition t.Am_cloverleaf.App.ctx ~n_ranks:ranks ~ref_ysize:48;
    Ops.set_halo_policy t.Am_cloverleaf.App.ctx policy;
    ignore (Am_cloverleaf.App.hydro_step t);
    let stats = Option.get (Ops.comm_stats t.Am_cloverleaf.App.ctx) in
    stats.Am_simmpi.Comm.bytes <- 0;
    stats.Am_simmpi.Comm.exchanges <- 0;
    ignore (Am_cloverleaf.App.hydro_step t);
    (stats.Am_simmpi.Comm.bytes, stats.Am_simmpi.Comm.exchanges)
  in
  let eager_bytes, eager_ex = clover_measure Ops.Eager in
  let od_bytes, od_ex = clover_measure Ops.On_demand in
  Table.add_row table
    [
      "CloverLeaf 48x48 (OPS)";
      Units.bytes eager_bytes;
      Units.bytes od_bytes;
      Printf.sprintf "%.0f%%"
        (100.0 *. (1.0 -. (Float.of_int od_bytes /. Float.of_int eager_bytes)));
      Printf.sprintf "%d/%d" eager_ex od_ex;
    ];
  Table.print table;
  print_newline ()

(* ---- Decomposition shape (1D rows vs 2D grid) ----------------------------- *)

(* The production OPS decomposes structured blocks in every dimension; at
   scale the 2D grid wins on the surface-to-volume ratio (each rank's halo
   shrinks as its subdomain gets squarer), which is part of why CloverLeaf
   strong-scales on Titan.  Measured here with real exchanges on the rank
   simulator: same application, same rank count, different shape. *)
let decomposition_shape ?(nx = 96) ?(ny = 96) () =
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "ablation: decomposition shape for CloverLeaf %dx%d — measured bytes per \
            hydro step" nx ny)
      ~header:[ "ranks"; "1D rows"; "2D grid"; "grid saves" ]
      ~aligns:[ Table.Right; Right; Right; Right ]
      ()
  in
  let measure partition_fn =
    let t = Am_cloverleaf.App.create ~nx ~ny () in
    partition_fn t.Am_cloverleaf.App.ctx;
    ignore (Am_cloverleaf.App.hydro_step t);
    let stats = Option.get (Ops.comm_stats t.Am_cloverleaf.App.ctx) in
    stats.Am_simmpi.Comm.bytes <- 0;
    ignore (Am_cloverleaf.App.hydro_step t);
    stats.Am_simmpi.Comm.bytes
  in
  List.iter
    (fun (ranks, px, py) ->
      let rows = measure (fun ctx -> Ops.partition ctx ~n_ranks:ranks ~ref_ysize:ny) in
      let grid =
        measure (fun ctx -> Ops.partition_grid ctx ~px ~py ~ref_xsize:nx ~ref_ysize:ny)
      in
      Table.add_row table
        [
          Printf.sprintf "%d (=%dx%d)" ranks px py;
          Units.bytes rows;
          Units.bytes grid;
          Printf.sprintf "%.0f%%"
            (100.0 *. (1.0 -. (Float.of_int grid /. Float.of_int rows)));
        ])
    [ (4, 2, 2); (9, 3, 3); (16, 4, 4) ];
  Table.print table;
  print_newline ()

(* ---- GPU memory strategies (Fig 7's three code paths) ------------------- *)

let gpu_strategies ?(nx = 120) ?(ny = 80) () =
  let mesh = Umesh.generate_airfoil ~nx ~ny () in
  let table =
    Table.create
      ~title:"ablation: GPU-simulator memory strategies (Fig 7), Airfoil"
      ~header:
        [ "strategy"; "host s/iteration (median)"; "modelled K40 (s/1000 iters)" ]
      ~aligns:[ Table.Left; Right; Right ]
      ()
  in
  (* Modelled effect: NOSOA loses coalescing on direct args (treat direct
     traffic as gathered); SOA and STAGE recover it — the reason OP2
     auto-converts to SoA. *)
  let traced = Calibrate.trace_airfoil () in
  let step = Calibrate.scaled_iteration traced ~cells:Calibrate.airfoil_paper_cells in
  let model_time strategy =
    let dev = Am_perfmodel.Machines.nvidia_k40 in
    let style = Am_perfmodel.Model.default_style in
    let base = Am_perfmodel.Model.sequence_time dev style step *. 1000.0 in
    match strategy with
    | Am_op2.Exec_cuda.Global_aos -> base *. 1.45 (* uncoalesced AoS accesses *)
    | Am_op2.Exec_cuda.Global_soa -> base
    | Am_op2.Exec_cuda.Staged -> base *. 0.97 (* shared-memory reuse *)
  in
  List.iter
    (fun strategy ->
      let t =
        Am_airfoil.App.create
          ~backend:(Op2.Cuda_sim { Am_op2.Exec_cuda.block_size = 128; strategy })
          mesh
      in
      let seconds = (Timing.sample ~repeat (iteration t)).Am_util.Regress.median in
      Table.add_row table
        [
          Am_op2.Exec_cuda.strategy_to_string strategy;
          Units.seconds seconds;
          Units.f1 (model_time strategy);
        ])
    [ Am_op2.Exec_cuda.Global_aos; Am_op2.Exec_cuda.Global_soa; Am_op2.Exec_cuda.Staged ];
  Table.print table;
  print_newline ()

(* ---- Checkpoint placement (greedy vs speculative) ------------------------ *)

let checkpoint_placement () =
  let traced = Calibrate.trace_airfoil () in
  let events = Calibrate.iteration_loops traced.Calibrate.profiles in
  let chain = events @ events in
  let table =
    Table.create
      ~title:"ablation: checkpoint placement on the Airfoil loop chain"
      ~header:[ "policy"; "trigger loop"; "units saved" ]
      ~aligns:[ Table.Left; Left; Right ]
      ()
  in
  let name_at i = (List.nth chain i).Am_core.Descr.loop_name in
  let requested = 2 (* a request arriving before res_calc *) in
  let greedy = (Am_checkpoint.Planner.plan_at chain ~trigger:requested).Am_checkpoint.Planner.units in
  Table.add_row table
    [ "greedy (trigger immediately)"; name_at requested; string_of_int greedy ];
  let spec = Am_checkpoint.Planner.speculative_trigger chain ~requested in
  let spec_units = (Am_checkpoint.Planner.plan_at chain ~trigger:spec).Am_checkpoint.Planner.units in
  Table.add_row table
    [ "speculative (wait within period)"; name_at spec; string_of_int spec_units ];
  (* Oracle restricted to the first period: beyond it the recorded horizon
     ends and datasets look (wrongly) dead. *)
  let period = Option.value ~default:9 (Am_checkpoint.Planner.detect_period chain) in
  let best = ref 0 and best_units = ref max_int in
  for i = 0 to period - 1 do
    let u = (Am_checkpoint.Planner.plan_at chain ~trigger:i).Am_checkpoint.Planner.units in
    if u < !best_units then begin best := i; best_units := u end
  done;
  Table.add_row table
    [ "oracle best (within one period)"; name_at !best; string_of_int !best_units ];
  (* Saving everything, for reference. *)
  let all_units =
    List.fold_left
      (fun acc (d : Am_checkpoint.Planner.dataset) -> acc + d.Am_checkpoint.Planner.ds_dim)
      0
      (Am_checkpoint.Planner.datasets chain)
  in
  Table.add_row table [ "save every dataset"; "-"; string_of_int all_units ];
  Table.print table;
  print_newline ()

(* ---- Checkpointing overhead ------------------------------------------------ *)

(* Section VI claims the checkpointing machinery is cheap when idle: the
   per-loop work is one table lookup while no checkpoint is pending.
   Whole Airfoil runs of [iters] iterations, each from a fresh application
   (a session records every loop it sees, so a long-lived one would price
   its own history): without checkpointing, with it enabled but never
   triggered, and with one checkpoint taken mid-run (snapshot costs
   included). *)
let checkpoint_runs ~nx ~ny ~iters =
  let mesh = Umesh.generate_airfoil ~nx ~ny () in
  let run ~enable ~take () =
    let t = Am_airfoil.App.create mesh in
    if enable then Op2.enable_checkpointing t.Am_airfoil.App.ctx;
    ignore (Am_airfoil.App.run t ~iters:(iters / 2));
    if take then Op2.request_checkpoint t.Am_airfoil.App.ctx;
    ignore (Am_airfoil.App.run t ~iters:(iters - (iters / 2)))
  in
  ( run ~enable:false ~take:false,
    run ~enable:true ~take:false,
    run ~enable:true ~take:true )

let checkpoint_overhead ?(nx = 96) ?(ny = 64) ?(iters = 20) () =
  let baseline, idle, taken = checkpoint_runs ~nx ~ny ~iters in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "ablation: checkpointing overhead (Airfoil %dx%d, %d-iteration runs)" nx
           ny iters)
      ~header:[ "configuration"; "run time ÷ no checkpointing" ]
      ~aligns:[ Table.Left; Right ]
      ()
  in
  let row name run =
    Table.add_row table [ name; Timing.ratio (Timing.pairs ~repeat run baseline) ]
  in
  row "enabled, never triggered" idle;
  row "one checkpoint taken mid-run" taken;
  Table.print table;
  print_newline ()

(* ---- Mesh orderings (RCM vs Hilbert) --------------------------------------- *)

let scrambled_airfoil ~nx ~ny =
  Umesh.scramble ~seed:13 (Umesh.generate_airfoil ~nx ~ny ())

(* An Airfoil application on [mesh], renumbered by [order] before any loop
   runs: renumbering is a one-time preprocessing step, outside the timed
   iterations, as the paper's Fig 3 timings have it. *)
let airfoil_ordered mesh order =
  let t = Am_airfoil.App.create mesh in
  order t;
  t

let rcm t =
  ignore (Op2.renumber t.Am_airfoil.App.ctx ~through:t.Am_airfoil.App.edge_cells)

let mesh_orderings ?(nx = 300) ?(ny = 200) () =
  let scrambled = scrambled_airfoil ~nx ~ny in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "ablation: mesh ordering on a scrambled Airfoil %dx%d (measured, seq)" nx ny)
      ~header:[ "ordering"; "dual mean index distance"; "iteration ÷ scrambled" ]
      ~aligns:[ Table.Left; Right; Right ]
      ()
  in
  let row name t ratio =
    let bw =
      Csr.average_bandwidth
        (Am_mesh.Csr.of_map_rows
           ~n_vertices:t.Am_airfoil.App.cells.Am_op2.Types.set_size
           ~n_rows:t.Am_airfoil.App.edges.Am_op2.Types.set_size ~arity:2
           t.Am_airfoil.App.edge_cells.Am_op2.Types.values)
    in
    Table.add_row table [ name; Printf.sprintf "%.0f" bw; ratio ]
  in
  let base = airfoil_ordered scrambled ignore in
  row "scrambled (production order)" base "1 (reference)";
  let ordered name order =
    let t = airfoil_ordered scrambled order in
    row name t (Timing.ratio (Timing.pairs ~repeat (iteration t) (iteration base)))
  in
  ordered "reverse Cuthill-McKee" rcm;
  ordered "Hilbert curve" (fun t ->
      let centroids = Umesh.cell_centroids scrambled in
      let perm =
        Am_mesh.Reorder.hilbert ~coords:centroids ~dim:2
          ~n:scrambled.Umesh.n_cells ()
      in
      Op2.renumber_with t.Am_airfoil.App.ctx ~set:t.Am_airfoil.App.cells ~perm);
  Table.print table;
  print_newline ()

(* ---- Advection scheme (CloverLeaf) ---------------------------------------- *)

let advection_schemes ?(nx = 48) ?(ny = 48) ?(steps = 25) () =
  let table =
    Table.create
      ~title:"ablation: CloverLeaf advection scheme (first-order vs van Leer)"
      ~header:[ "scheme"; "mass drift"; "kinetic energy"; "max interface jump" ]
      ~aligns:[ Table.Left; Right; Right; Right ]
      ()
  in
  let run name advection =
    let t = Am_cloverleaf.App.create ~advection ~nx ~ny () in
    let s0 = Am_cloverleaf.App.field_summary t in
    let s = Am_cloverleaf.App.run t ~steps in
    let d = Am_cloverleaf.App.density t in
    let jump = ref 0.0 in
    for y = 0 to ny - 1 do
      for x = 0 to nx - 2 do
        let j = Float.abs (d.((y * nx) + x + 1) -. d.((y * nx) + x)) in
        if j > !jump then jump := j
      done
    done;
    Table.add_row table
      [
        name;
        Printf.sprintf "%.1e" (Float.abs (s.Am_cloverleaf.App.mass -. s0.Am_cloverleaf.App.mass));
        Printf.sprintf "%.4f" s.Am_cloverleaf.App.ke;
        Printf.sprintf "%.4f" !jump;
      ];
    fun () -> ignore (Am_cloverleaf.App.hydro_step t)
  in
  let first_order = run "first-order donor cell" Am_cloverleaf.App.First_order in
  let van_leer = run "van Leer limited" Am_cloverleaf.App.Van_leer in
  Table.print table;
  Printf.printf
    "  van Leer step ÷ first-order step: %s\n\
    \  (the limiter preserves a sharper interface at modest extra flops)\n\n"
    (Timing.ratio (Timing.pairs ~repeat van_leer first_order))

(* ---- Hydra feature ablations --------------------------------------------- *)

let hydra_features ?(nx = 64) ?(ny = 48) ?(iters = 30) () =
  let table =
    Table.create
      ~title:"ablation: Hydra-sim pipeline features (convergence after 30 iterations)"
      ~header:[ "configuration"; "final rms"; "s/iteration (median)" ]
      ~aligns:[ Table.Left; Right; Right ]
      ()
  in
  List.iter
    (fun (name, features) ->
      let t = Am_hydra.App.create ~features ~nx ~ny () in
      let rms = Am_hydra.App.run t ~iters in
      let s = Timing.sample ~repeat (fun () -> ignore (Am_hydra.App.iteration t)) in
      Table.add_row table
        [ name; Printf.sprintf "%.3e" rms; Units.seconds s.Am_util.Regress.median ])
    [
      ("full pipeline", Am_hydra.App.all_features);
      ("no multigrid", { Am_hydra.App.all_features with Am_hydra.App.multigrid = false });
      ("no viscous flux", { Am_hydra.App.all_features with Am_hydra.App.viscous = false });
      ( "no turbulence sources",
        { Am_hydra.App.all_features with Am_hydra.App.source_terms = false } );
    ];
  Table.print table;
  print_newline ()

let all () =
  block_size_sweep ();
  partitioner_quality ();
  halo_policy ();
  decomposition_shape ();
  gpu_strategies ();
  checkpoint_placement ();
  checkpoint_overhead ();
  mesh_orderings ();
  advection_schemes ();
  hydra_features ()

(* Hydra-sim in OP2 form: the production-scale synthetic application.

   Two mesh levels (fine + 2:1 coarsened) and ~16 distinct kernels executed
   ~50 times per iteration: local timesteps, five Runge-Kutta stages of
   gradient/flux/source loops, and a two-level multigrid correction — the
   loop-count and data-volume profile the paper attributes to Hydra. *)

module Op2 = Am_op2.Op2
module Access = Am_core.Access
module Umesh = Am_mesh.Umesh

(* Feature switches: the full pipeline by default; the benchmark harness
   ablates them individually. *)
type features = { viscous : bool; source_terms : bool; multigrid : bool }

let all_features = { viscous = true; source_terms = true; multigrid = true }

type t = {
  ctx : Op2.ctx;
  features : features;
  mesh : Umesh.t;
  coarse_mesh : Umesh.t;
  (* fine sets *)
  nodes : Op2.set;
  cells : Op2.set;
  edges : Op2.set;
  bedges : Op2.set;
  (* coarse sets *)
  coarse_cells : Op2.set;
  coarse_edges : Op2.set;
  (* fine maps *)
  edge_nodes : Op2.map_t;
  edge_cells : Op2.map_t;
  bedge_nodes : Op2.map_t;
  bedge_cell : Op2.map_t;
  cell_nodes : Op2.map_t;
  (* inter-level and coarse maps *)
  fine_to_coarse : Op2.map_t;
  coarse_edge_cells : Op2.map_t;
  (* fine dats *)
  x : Op2.dat;
  q : Op2.dat;
  qold : Op2.dat;
  adt : Op2.dat;
  res : Op2.dat;
  grad : Op2.dat;
  bound : Op2.dat;
  (* coarse dats *)
  coarse_r : Op2.dat;
  coarse_corr : Op2.dat;
  coarse_acc : Op2.dat;
}

let n_state = Kernels.n_state

(* Initial state: free stream plus a smooth deterministic perturbation, so
   the dissipative dynamics have something to relax. *)
let initial_q (mesh : Umesh.t) =
  let centroids = Umesh.cell_centroids mesh in
  let out = Array.make (mesh.Umesh.n_cells * n_state) 0.0 in
  for c = 0 to mesh.Umesh.n_cells - 1 do
    let cx = centroids.(2 * c) and cy = centroids.((2 * c) + 1) in
    let wobble = 0.05 *. sin (2.0 *. cx) *. cos (3.0 *. cy) in
    for n = 0 to n_state - 1 do
      out.((c * n_state) + n) <- Kernels.qinf.(n) *. (1.0 +. wobble)
    done
  done;
  out

(* 2:1 geometric coarsening map: fine cell (i, j) -> coarse (i/2, j/2). *)
let coarsening_map ~nx ~ny =
  Array.init (nx * ny) (fun c ->
      let i = c mod nx and j = c / nx in
      (i / 2) + ((j / 2) * (nx / 2)))

let create ?backend ?(features = all_features) ~nx ~ny () =
  if nx mod 2 <> 0 || ny mod 2 <> 0 then invalid_arg "Hydra.create: nx, ny must be even";
  let mesh = Umesh.generate_airfoil ~nx ~ny () in
  let coarse_mesh = Umesh.generate_airfoil ~nx:(nx / 2) ~ny:(ny / 2) () in
  let ctx = Op2.create ?backend () in
  Op2.decl_const ctx ~name:"rk_alphas" Kernels.rk_alphas;
  let nodes = Op2.decl_set ctx ~name:"nodes" ~size:mesh.Umesh.n_nodes in
  let cells = Op2.decl_set ctx ~name:"cells" ~size:mesh.Umesh.n_cells in
  let edges = Op2.decl_set ctx ~name:"edges" ~size:mesh.Umesh.n_edges in
  let bedges = Op2.decl_set ctx ~name:"bedges" ~size:mesh.Umesh.n_bedges in
  let coarse_cells =
    Op2.decl_set ctx ~name:"coarse_cells" ~size:coarse_mesh.Umesh.n_cells
  in
  let coarse_edges =
    Op2.decl_set ctx ~name:"coarse_edges" ~size:coarse_mesh.Umesh.n_edges
  in
  let edge_nodes =
    Op2.decl_map ctx ~name:"edge_nodes" ~from_set:edges ~to_set:nodes ~arity:2
      ~values:mesh.Umesh.edge_nodes
  in
  let edge_cells =
    Op2.decl_map ctx ~name:"edge_cells" ~from_set:edges ~to_set:cells ~arity:2
      ~values:mesh.Umesh.edge_cells
  in
  let bedge_nodes =
    Op2.decl_map ctx ~name:"bedge_nodes" ~from_set:bedges ~to_set:nodes ~arity:2
      ~values:mesh.Umesh.bedge_nodes
  in
  let bedge_cell =
    Op2.decl_map ctx ~name:"bedge_cell" ~from_set:bedges ~to_set:cells ~arity:1
      ~values:mesh.Umesh.bedge_cell
  in
  let cell_nodes =
    Op2.decl_map ctx ~name:"cell_nodes" ~from_set:cells ~to_set:nodes ~arity:4
      ~values:mesh.Umesh.cell_nodes
  in
  let fine_to_coarse =
    Op2.decl_map ctx ~name:"fine_to_coarse" ~from_set:cells ~to_set:coarse_cells
      ~arity:1 ~values:(coarsening_map ~nx ~ny)
  in
  let coarse_edge_cells =
    Op2.decl_map ctx ~name:"coarse_edge_cells" ~from_set:coarse_edges
      ~to_set:coarse_cells ~arity:2 ~values:coarse_mesh.Umesh.edge_cells
  in
  let x = Op2.decl_dat ctx ~name:"x" ~set:nodes ~dim:2 ~data:mesh.Umesh.node_coords in
  let q = Op2.decl_dat ctx ~name:"q" ~set:cells ~dim:n_state ~data:(initial_q mesh) in
  let qold = Op2.decl_dat_zero ctx ~name:"qold" ~set:cells ~dim:n_state in
  let adt = Op2.decl_dat_zero ctx ~name:"adt" ~set:cells ~dim:1 in
  let res = Op2.decl_dat_zero ctx ~name:"res" ~set:cells ~dim:n_state in
  let grad = Op2.decl_dat_zero ctx ~name:"grad" ~set:cells ~dim:(2 * n_state) in
  let bound =
    Op2.decl_dat ctx ~name:"bound" ~set:bedges ~dim:1
      ~data:(Array.map Float.of_int mesh.Umesh.bedge_bound)
  in
  let coarse_r = Op2.decl_dat_zero ctx ~name:"coarse_r" ~set:coarse_cells ~dim:n_state in
  let coarse_corr =
    Op2.decl_dat_zero ctx ~name:"coarse_corr" ~set:coarse_cells ~dim:n_state
  in
  let coarse_acc =
    Op2.decl_dat_zero ctx ~name:"coarse_acc" ~set:coarse_cells ~dim:n_state
  in
  {
    ctx; features; mesh; coarse_mesh; nodes; cells; edges; bedges; coarse_cells;
    coarse_edges;
    edge_nodes; edge_cells; bedge_nodes; bedge_cell; cell_nodes; fine_to_coarse;
    coarse_edge_cells; x; q; qold; adt; res; grad; bound; coarse_r; coarse_corr;
    coarse_acc;
  }

let gradients t =
  Op2.par_loop_acc t.ctx ~name:"grad_zero" ~info:Kernels.grad_zero_info t.cells
    [ Op2.arg_dat t.grad Access.Write ]
    Kernels.grad_zero_acc;
  Op2.par_loop_acc t.ctx ~name:"grad_accum" ~info:Kernels.grad_accum_info t.edges
    [
      Op2.arg_dat_indirect t.x t.edge_nodes 0 Access.Read;
      Op2.arg_dat_indirect t.x t.edge_nodes 1 Access.Read;
      Op2.arg_dat_indirect t.q t.edge_cells 0 Access.Read;
      Op2.arg_dat_indirect t.q t.edge_cells 1 Access.Read;
      Op2.arg_dat_indirect t.grad t.edge_cells 0 Access.Inc;
      Op2.arg_dat_indirect t.grad t.edge_cells 1 Access.Inc;
    ]
    Kernels.grad_accum_acc;
  Op2.par_loop_acc t.ctx ~name:"grad_scale" ~info:Kernels.grad_scale_info t.cells
    [ Op2.arg_dat t.adt Access.Read; Op2.arg_dat t.grad Access.Rw ]
    Kernels.grad_scale_acc

let fluxes t =
  Op2.par_loop_acc t.ctx ~name:"flux_inviscid" ~info:Kernels.flux_inviscid_info t.edges
    [
      Op2.arg_dat_indirect t.x t.edge_nodes 0 Access.Read;
      Op2.arg_dat_indirect t.x t.edge_nodes 1 Access.Read;
      Op2.arg_dat_indirect t.q t.edge_cells 0 Access.Read;
      Op2.arg_dat_indirect t.q t.edge_cells 1 Access.Read;
      Op2.arg_dat_indirect t.adt t.edge_cells 0 Access.Read;
      Op2.arg_dat_indirect t.adt t.edge_cells 1 Access.Read;
      Op2.arg_dat_indirect t.res t.edge_cells 0 Access.Inc;
      Op2.arg_dat_indirect t.res t.edge_cells 1 Access.Inc;
    ]
    Kernels.flux_inviscid_acc;
  if t.features.viscous then
  Op2.par_loop_acc t.ctx ~name:"flux_viscous" ~info:Kernels.flux_viscous_info t.edges
    [
      Op2.arg_dat_indirect t.q t.edge_cells 0 Access.Read;
      Op2.arg_dat_indirect t.q t.edge_cells 1 Access.Read;
      Op2.arg_dat_indirect t.grad t.edge_cells 0 Access.Read;
      Op2.arg_dat_indirect t.grad t.edge_cells 1 Access.Read;
      Op2.arg_dat_indirect t.res t.edge_cells 0 Access.Inc;
      Op2.arg_dat_indirect t.res t.edge_cells 1 Access.Inc;
    ]
    Kernels.flux_viscous_acc;
  Op2.par_loop_acc t.ctx ~name:"flux_boundary" ~info:Kernels.flux_boundary_info t.bedges
    [
      Op2.arg_dat_indirect t.x t.bedge_nodes 0 Access.Read;
      Op2.arg_dat_indirect t.x t.bedge_nodes 1 Access.Read;
      Op2.arg_dat_indirect t.q t.bedge_cell 0 Access.Read;
      Op2.arg_dat_indirect t.res t.bedge_cell 0 Access.Inc;
      Op2.arg_dat t.bound Access.Read;
    ]
    Kernels.flux_boundary_acc;
  if t.features.source_terms then
  Op2.par_loop_acc t.ctx ~name:"source" ~info:Kernels.source_info t.cells
    [
      Op2.arg_dat t.q Access.Read;
      Op2.arg_dat t.grad Access.Read;
      Op2.arg_dat t.res Access.Inc;
    ]
    Kernels.source_acc

let multigrid t =
  Op2.par_loop_acc t.ctx ~name:"mg_zero_r" ~info:Kernels.zero6_info t.coarse_cells
    [ Op2.arg_dat t.coarse_r Access.Write ]
    Kernels.zero6_acc;
  Op2.par_loop_acc t.ctx ~name:"mg_zero_corr" ~info:Kernels.zero6_info t.coarse_cells
    [ Op2.arg_dat t.coarse_corr Access.Write ]
    Kernels.zero6_acc;
  Op2.par_loop_acc t.ctx ~name:"mg_zero_acc" ~info:Kernels.zero6_info t.coarse_cells
    [ Op2.arg_dat t.coarse_acc Access.Write ]
    Kernels.zero6_acc;
  Op2.par_loop_acc t.ctx ~name:"mg_restrict" ~info:Kernels.mg_restrict_info t.cells
    [
      Op2.arg_dat t.q Access.Read;
      Op2.arg_dat t.qold Access.Read;
      Op2.arg_dat_indirect t.coarse_r t.fine_to_coarse 0 Access.Inc;
    ]
    Kernels.mg_restrict_acc;
  for _smooth = 1 to 2 do
    Op2.par_loop_acc t.ctx ~name:"mg_smooth_edge" ~info:Kernels.mg_smooth_edge_info
      t.coarse_edges
      [
        Op2.arg_dat_indirect t.coarse_corr t.coarse_edge_cells 0 Access.Read;
        Op2.arg_dat_indirect t.coarse_corr t.coarse_edge_cells 1 Access.Read;
        Op2.arg_dat_indirect t.coarse_acc t.coarse_edge_cells 0 Access.Inc;
        Op2.arg_dat_indirect t.coarse_acc t.coarse_edge_cells 1 Access.Inc;
      ]
      Kernels.mg_smooth_edge_acc;
    Op2.par_loop_acc t.ctx ~name:"mg_smooth_cell" ~info:Kernels.mg_smooth_cell_info
      t.coarse_cells
      [
        Op2.arg_dat t.coarse_r Access.Read;
        Op2.arg_dat t.coarse_acc Access.Rw;
        Op2.arg_dat t.coarse_corr Access.Write;
      ]
      Kernels.mg_smooth_cell_acc
  done;
  Op2.par_loop_acc t.ctx ~name:"mg_prolong" ~info:Kernels.mg_prolong_info t.cells
    [
      Op2.arg_dat_indirect t.coarse_corr t.fine_to_coarse 0 Access.Read;
      Op2.arg_dat t.q Access.Rw;
    ]
    Kernels.mg_prolong_acc

(* One outer iteration: returns the RMS update of the final RK stage. *)
let iteration t =
  Op2.par_loop_acc t.ctx ~name:"save_state" ~info:Kernels.save_state_info t.cells
    [ Op2.arg_dat t.q Access.Read; Op2.arg_dat t.qold Access.Write ]
    Kernels.save_state_acc;
  Op2.par_loop_acc t.ctx ~name:"calc_dt" ~info:Kernels.calc_dt_info t.cells
    [
      Op2.arg_dat_indirect t.x t.cell_nodes 0 Access.Read;
      Op2.arg_dat_indirect t.x t.cell_nodes 1 Access.Read;
      Op2.arg_dat_indirect t.x t.cell_nodes 2 Access.Read;
      Op2.arg_dat_indirect t.x t.cell_nodes 3 Access.Read;
      Op2.arg_dat t.q Access.Read;
      Op2.arg_dat t.adt Access.Write;
    ]
    Kernels.calc_dt_acc;
  let rms = [| 0.0 |] in
  Array.iter
    (fun alpha ->
      gradients t;
      fluxes t;
      Array.fill rms 0 1 0.0;
      Op2.par_loop_acc t.ctx ~name:"rk_stage" ~info:Kernels.rk_stage_info t.cells
        [
          Op2.arg_dat t.qold Access.Read;
          Op2.arg_dat t.q Access.Write;
          Op2.arg_dat t.res Access.Rw;
          Op2.arg_dat t.adt Access.Read;
          Op2.arg_gbl ~name:"alpha" [| alpha |] Access.Read;
          Op2.arg_gbl ~name:"rms" rms Access.Inc;
        ]
        Kernels.rk_stage_acc)
    Kernels.rk_alphas;
  if t.features.multigrid then multigrid t;
  sqrt (rms.(0) /. Float.of_int t.mesh.Umesh.n_cells)

let run t ~iters =
  let rms = ref 0.0 in
  for _ = 1 to iters do
    rms := iteration t
  done;
  !rms

let solution t = Op2.fetch t.ctx t.q

(* Distinct loops executed per iteration (for reporting). *)
let loops_per_iteration = 2 + (5 * 8) + 8

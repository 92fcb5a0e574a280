(* The Airfoil application in OP2 form.

   Declares the mesh (sets, maps, datasets) and runs the published solver
   structure: each iteration saves the state and performs two inner cycles
   of adt_calc -> res_calc -> bres_calc -> update, accumulating an RMS
   residual (printed every 100 iterations in the original). *)

module Op2 = Am_op2.Op2
module Access = Am_core.Access
module Umesh = Am_mesh.Umesh

type t = {
  ctx : Op2.ctx;
  mesh : Umesh.t;
  nodes : Op2.set;
  cells : Op2.set;
  edges : Op2.set;
  bedges : Op2.set;
  edge_nodes : Op2.map_t;
  edge_cells : Op2.map_t;
  bedge_nodes : Op2.map_t;
  bedge_cell : Op2.map_t;
  cell_nodes : Op2.map_t;
  x : Op2.dat;
  q : Op2.dat;
  qold : Op2.dat;
  adt : Op2.dat;
  res : Op2.dat;
  bound : Op2.dat;
  (* Accumulator reused across iterations so the update loop's argument
     signature stays pointer-identical for the cached executor. *)
  rms_buf : float array;
  (* One loop handle per call site: plan + compiled executor are resolved
     once and revalidated with pointer compares on each invocation. *)
  h_save_soln : Op2.handle;
  h_adt_calc : Op2.handle;
  h_res_calc : Op2.handle;
  h_bres_calc : Op2.handle;
  h_update : Op2.handle;
}

(* Free-stream initial state on every cell. *)
let initial_q mesh =
  let out = Array.make (mesh.Umesh.n_cells * 4) 0.0 in
  for c = 0 to mesh.Umesh.n_cells - 1 do
    Array.blit Kernels.qinf 0 out (4 * c) 4
  done;
  out

let create ?backend (mesh : Umesh.t) =
  let ctx = Op2.create ?backend () in
  (* op_decl_const: the constants the kernels close over, registered so the
     code generator can emit them per target. *)
  Op2.decl_const ctx ~name:"gam" [| Kernels.gam |];
  Op2.decl_const ctx ~name:"gm1" [| Kernels.gm1 |];
  Op2.decl_const ctx ~name:"cfl" [| Kernels.cfl |];
  Op2.decl_const ctx ~name:"eps" [| Kernels.eps |];
  Op2.decl_const ctx ~name:"qinf" Kernels.qinf;
  let nodes = Op2.decl_set ctx ~name:"nodes" ~size:mesh.Umesh.n_nodes in
  let cells = Op2.decl_set ctx ~name:"cells" ~size:mesh.Umesh.n_cells in
  let edges = Op2.decl_set ctx ~name:"edges" ~size:mesh.Umesh.n_edges in
  let bedges = Op2.decl_set ctx ~name:"bedges" ~size:mesh.Umesh.n_bedges in
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
  let x = Op2.decl_dat ctx ~name:"x" ~set:nodes ~dim:2 ~data:mesh.Umesh.node_coords in
  let q = Op2.decl_dat ctx ~name:"q" ~set:cells ~dim:4 ~data:(initial_q mesh) in
  let qold = Op2.decl_dat_zero ctx ~name:"qold" ~set:cells ~dim:4 in
  let adt = Op2.decl_dat_zero ctx ~name:"adt" ~set:cells ~dim:1 in
  let res = Op2.decl_dat_zero ctx ~name:"res" ~set:cells ~dim:4 in
  let bound =
    Op2.decl_dat ctx ~name:"bound" ~set:bedges ~dim:1
      ~data:(Array.map Float.of_int mesh.Umesh.bedge_bound)
  in
  {
    ctx; mesh; nodes; cells; edges; bedges; edge_nodes; edge_cells; bedge_nodes;
    bedge_cell; cell_nodes; x; q; qold; adt; res; bound;
    rms_buf = [| 0.0 |];
    h_save_soln = Op2.make_handle ();
    h_adt_calc = Op2.make_handle ();
    h_res_calc = Op2.make_handle ();
    h_bres_calc = Op2.make_handle ();
    h_update = Op2.make_handle ();
  }

(* One outer iteration: save the state, then two inner explicit cycles.
   Returns the RMS residual of the final inner cycle. *)
let iteration t =
  Op2.par_loop_acc t.ctx ~name:"save_soln" ~info:Kernels.save_soln_info
    ~handle:t.h_save_soln t.cells
    [ Op2.arg_dat t.q Access.Read; Op2.arg_dat t.qold Access.Write ]
    Kernels.save_soln_acc;
  let rms = t.rms_buf in
  rms.(0) <- 0.0;
  for _inner = 1 to 2 do
    Op2.par_loop_acc t.ctx ~name:"adt_calc" ~info:Kernels.adt_calc_info
      ~handle:t.h_adt_calc t.cells
      [
        Op2.arg_dat_indirect t.x t.cell_nodes 0 Access.Read;
        Op2.arg_dat_indirect t.x t.cell_nodes 1 Access.Read;
        Op2.arg_dat_indirect t.x t.cell_nodes 2 Access.Read;
        Op2.arg_dat_indirect t.x t.cell_nodes 3 Access.Read;
        Op2.arg_dat t.q Access.Read;
        Op2.arg_dat t.adt Access.Write;
      ]
      Kernels.adt_calc_acc;
    Op2.par_loop_acc t.ctx ~name:"res_calc" ~info:Kernels.res_calc_info
      ~handle:t.h_res_calc t.edges
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
      Kernels.res_calc_acc;
    Op2.par_loop_acc t.ctx ~name:"bres_calc" ~info:Kernels.bres_calc_info
      ~handle:t.h_bres_calc t.bedges
      [
        Op2.arg_dat_indirect t.x t.bedge_nodes 0 Access.Read;
        Op2.arg_dat_indirect t.x t.bedge_nodes 1 Access.Read;
        Op2.arg_dat_indirect t.q t.bedge_cell 0 Access.Read;
        Op2.arg_dat_indirect t.adt t.bedge_cell 0 Access.Read;
        Op2.arg_dat_indirect t.res t.bedge_cell 0 Access.Inc;
        Op2.arg_dat t.bound Access.Read;
      ]
      Kernels.bres_calc_acc;
    Array.fill rms 0 1 0.0;
    Op2.par_loop_acc t.ctx ~name:"update" ~info:Kernels.update_info
      ~handle:t.h_update t.cells
      [
        Op2.arg_dat t.qold Access.Read;
        Op2.arg_dat t.q Access.Write;
        Op2.arg_dat t.res Access.Rw;
        Op2.arg_dat t.adt Access.Read;
        Op2.arg_gbl ~name:"rms" rms Access.Inc;
      ]
      Kernels.update_acc
  done;
  sqrt (rms.(0) /. Float.of_int t.mesh.Umesh.n_cells)

let run t ~iters =
  let rms = ref 0.0 in
  for _ = 1 to iters do
    rms := iteration t
  done;
  !rms

(* Final state in global cell order (any backend). *)
let solution t = Op2.fetch t.ctx t.q

(* Hand-coded Hydra-sim baseline ("Original").

   The same kernels' point forms ([Kernels.*_acc.elem]) driven by a
   minimal direct runner over plain arrays and connectivity tables — no
   declarations, no validation, no plans, no descriptors, no profiling:
   what a hand-parallelised production code's sequential core looks like.
   Executes identically to the OP2 version (the same arithmetic in the
   same order as the generated element walkers, same iteration order), so
   the benchmarks isolate the framework's dispatch cost exactly as the
   paper's Original-vs-OP2-unopt comparison does (Fig 3). *)

module Umesh = Am_mesh.Umesh
module Acc = Am_op2.Op2.Acc

type mode = R | W | I | Rw

type arg =
  | Direct of float array * int * mode
  | Indirect of float array * int * int array * int * int * mode
    (* data, dim, map, arity, index, mode *)
  | Gbl of float array * mode

let add_back data base (scratch : float array) =
  for d = 0 to Array.length scratch - 1 do
    data.(base + d) <- data.(base + d) +. scratch.(d)
  done

(* Direct runner over the kernels' point forms: the structure a hand
   writer inlines.  Read/Write/Rw arguments are addressed in place;
   increments go through a zeroed per-element scratch that is added back
   after the kernel, which is what the element walkers do too, so the
   results agree to the bit. *)
let run_loop ~n args kernel =
  let args = Array.of_list args in
  let accs =
    Array.map
      (function
        | Direct (_, dim, I) | Indirect (_, dim, _, _, _, I) -> Acc.of_array (Array.make dim 0.0)
        | Direct (data, _, _) | Indirect (data, _, _, _, _, _) | Gbl (data, _) -> Acc.of_array data)
      args
  in
  for e = 0 to n - 1 do
    for i = 0 to Array.length args - 1 do
      let a = accs.(i) in
      match args.(i) with
      | Gbl _ -> ()
      | Direct (_, dim, I) | Indirect (_, dim, _, _, _, I) -> Array.fill a.Acc.data 0 dim 0.0
      | Direct (_, dim, _) -> a.Acc.base <- e * dim
      | Indirect (_, dim, map, arity, idx, _) -> a.Acc.base <- map.((e * arity) + idx) * dim
    done;
    kernel accs;
    for i = 0 to Array.length args - 1 do
      let s = accs.(i).Acc.data in
      match args.(i) with
      | Direct (data, dim, I) -> add_back data (e * dim) s
      | Indirect (data, dim, map, arity, idx, I) ->
        add_back data (map.((e * arity) + idx) * dim) s
      | Direct _ | Indirect _ | Gbl _ -> ()
    done
  done

type t = {
  mesh : Umesh.t;
  coarse_mesh : Umesh.t;
  fine_to_coarse : int array;
  x : float array;
  q : float array;
  qold : float array;
  adt : float array;
  res : float array;
  grad : float array;
  bound : float array;
  coarse_r : float array;
  coarse_corr : float array;
  coarse_acc : float array;
}

let n_state = Kernels.n_state

let create ~nx ~ny () =
  if nx mod 2 <> 0 || ny mod 2 <> 0 then invalid_arg "Hydra.Hand.create: even sizes";
  let mesh = Umesh.generate_airfoil ~nx ~ny () in
  let coarse_mesh = Umesh.generate_airfoil ~nx:(nx / 2) ~ny:(ny / 2) () in
  {
    mesh;
    coarse_mesh;
    fine_to_coarse = App.coarsening_map ~nx ~ny;
    x = Array.copy mesh.Umesh.node_coords;
    q = App.initial_q mesh;
    qold = Array.make (mesh.Umesh.n_cells * n_state) 0.0;
    adt = Array.make mesh.Umesh.n_cells 0.0;
    res = Array.make (mesh.Umesh.n_cells * n_state) 0.0;
    grad = Array.make (mesh.Umesh.n_cells * 2 * n_state) 0.0;
    bound = Array.map Float.of_int mesh.Umesh.bedge_bound;
    coarse_r = Array.make (coarse_mesh.Umesh.n_cells * n_state) 0.0;
    coarse_corr = Array.make (coarse_mesh.Umesh.n_cells * n_state) 0.0;
    coarse_acc = Array.make (coarse_mesh.Umesh.n_cells * n_state) 0.0;
  }

let iteration t =
  let m = t.mesh in
  let en = m.Umesh.edge_nodes and ec = m.Umesh.edge_cells in
  let bn = m.Umesh.bedge_nodes and bc = m.Umesh.bedge_cell in
  let cn = m.Umesh.cell_nodes in
  run_loop ~n:m.Umesh.n_cells
    [ Direct (t.q, n_state, R); Direct (t.qold, n_state, W) ]
    Kernels.save_state_acc.Acc.elem;
  run_loop ~n:m.Umesh.n_cells
    [
      Indirect (t.x, 2, cn, 4, 0, R);
      Indirect (t.x, 2, cn, 4, 1, R);
      Indirect (t.x, 2, cn, 4, 2, R);
      Indirect (t.x, 2, cn, 4, 3, R);
      Direct (t.q, n_state, R);
      Direct (t.adt, 1, W);
    ]
    Kernels.calc_dt_acc.Acc.elem;
  let rms = [| 0.0 |] in
  Array.iter
    (fun alpha ->
      run_loop ~n:m.Umesh.n_cells
        [ Direct (t.grad, 2 * n_state, W) ]
        Kernels.grad_zero_acc.Acc.elem;
      run_loop ~n:m.Umesh.n_edges
        [
          Indirect (t.x, 2, en, 2, 0, R);
          Indirect (t.x, 2, en, 2, 1, R);
          Indirect (t.q, n_state, ec, 2, 0, R);
          Indirect (t.q, n_state, ec, 2, 1, R);
          Indirect (t.grad, 2 * n_state, ec, 2, 0, I);
          Indirect (t.grad, 2 * n_state, ec, 2, 1, I);
        ]
        Kernels.grad_accum_acc.Acc.elem;
      run_loop ~n:m.Umesh.n_cells
        [ Direct (t.adt, 1, R); Direct (t.grad, 2 * n_state, Rw) ]
        Kernels.grad_scale_acc.Acc.elem;
      run_loop ~n:m.Umesh.n_edges
        [
          Indirect (t.x, 2, en, 2, 0, R);
          Indirect (t.x, 2, en, 2, 1, R);
          Indirect (t.q, n_state, ec, 2, 0, R);
          Indirect (t.q, n_state, ec, 2, 1, R);
          Indirect (t.adt, 1, ec, 2, 0, R);
          Indirect (t.adt, 1, ec, 2, 1, R);
          Indirect (t.res, n_state, ec, 2, 0, I);
          Indirect (t.res, n_state, ec, 2, 1, I);
        ]
        Kernels.flux_inviscid_acc.Acc.elem;
      run_loop ~n:m.Umesh.n_edges
        [
          Indirect (t.q, n_state, ec, 2, 0, R);
          Indirect (t.q, n_state, ec, 2, 1, R);
          Indirect (t.grad, 2 * n_state, ec, 2, 0, R);
          Indirect (t.grad, 2 * n_state, ec, 2, 1, R);
          Indirect (t.res, n_state, ec, 2, 0, I);
          Indirect (t.res, n_state, ec, 2, 1, I);
        ]
        Kernels.flux_viscous_acc.Acc.elem;
      run_loop ~n:m.Umesh.n_bedges
        [
          Indirect (t.x, 2, bn, 2, 0, R);
          Indirect (t.x, 2, bn, 2, 1, R);
          Indirect (t.q, n_state, bc, 1, 0, R);
          Indirect (t.res, n_state, bc, 1, 0, I);
          Direct (t.bound, 1, R);
        ]
        Kernels.flux_boundary_acc.Acc.elem;
      run_loop ~n:m.Umesh.n_cells
        [
          Direct (t.q, n_state, R);
          Direct (t.grad, 2 * n_state, R);
          Direct (t.res, n_state, I);
        ]
        Kernels.source_acc.Acc.elem;
      Array.fill rms 0 1 0.0;
      run_loop ~n:m.Umesh.n_cells
        [
          Direct (t.qold, n_state, R);
          Direct (t.q, n_state, W);
          Direct (t.res, n_state, Rw);
          Direct (t.adt, 1, R);
          Gbl ([| alpha |], R);
          Gbl (rms, I);
        ]
        Kernels.rk_stage_acc.Acc.elem)
    Kernels.rk_alphas;
  (* Multigrid. *)
  let cm = t.coarse_mesh in
  let cec = cm.Umesh.edge_cells in
  let f2c = t.fine_to_coarse in
  let zero6 = Kernels.zero6_acc.Acc.elem in
  run_loop ~n:cm.Umesh.n_cells [ Direct (t.coarse_r, n_state, W) ] zero6;
  run_loop ~n:cm.Umesh.n_cells [ Direct (t.coarse_corr, n_state, W) ] zero6;
  run_loop ~n:cm.Umesh.n_cells [ Direct (t.coarse_acc, n_state, W) ] zero6;
  run_loop ~n:m.Umesh.n_cells
    [
      Direct (t.q, n_state, R);
      Direct (t.qold, n_state, R);
      Indirect (t.coarse_r, n_state, f2c, 1, 0, I);
    ]
    Kernels.mg_restrict_acc.Acc.elem;
  for _smooth = 1 to 2 do
    run_loop ~n:cm.Umesh.n_edges
      [
        Indirect (t.coarse_corr, n_state, cec, 2, 0, R);
        Indirect (t.coarse_corr, n_state, cec, 2, 1, R);
        Indirect (t.coarse_acc, n_state, cec, 2, 0, I);
        Indirect (t.coarse_acc, n_state, cec, 2, 1, I);
      ]
      Kernels.mg_smooth_edge_acc.Acc.elem;
    run_loop ~n:cm.Umesh.n_cells
      [
        Direct (t.coarse_r, n_state, R);
        Direct (t.coarse_acc, n_state, Rw);
        Direct (t.coarse_corr, n_state, W);
      ]
      Kernels.mg_smooth_cell_acc.Acc.elem
  done;
  run_loop ~n:m.Umesh.n_cells
    [ Indirect (t.coarse_corr, n_state, f2c, 1, 0, R); Direct (t.q, n_state, Rw) ]
    Kernels.mg_prolong_acc.Acc.elem;
  sqrt (rms.(0) /. Float.of_int m.Umesh.n_cells)

let run t ~iters =
  let rms = ref 0.0 in
  for _ = 1 to iters do
    rms := iteration t
  done;
  !rms

let solution t = Array.copy t.q

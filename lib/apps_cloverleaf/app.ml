(* CloverLeaf 2D in OPS form.

   The standard CloverLeaf problem: a square domain with an energetic region
   in the lower-left corner, reflective walls all around, run with the
   staggered-grid hydro cycle of [Kernels]:

     ideal_gas -> viscosity -> calc_dt -> PdV -> ideal_gas -> accelerate ->
     flux_calc -> advec_cell (x,y) -> advec_mom (x,y) -> reset_field

   Ghost-ring boundary conditions (OPS's update_halo) are refreshed with
   [Ops.mirror_halo] after each phase that invalidates them. *)

module Ops = Am_ops.Ops
module Access = Am_core.Access

(* Advection scheme: the published CloverLeaf uses van Leer slope limiting;
   the first-order variant drops the limiter (same loop structure). *)
type advection = First_order | Van_leer

type t = {
  ctx : Ops.ctx;
  advection : advection;
  grid : Ops.block;
  nx : int;
  ny : int;
  dx : float;
  dy : float;
  (* cell-centred *)
  density0 : Ops.dat;
  density1 : Ops.dat;
  energy0 : Ops.dat;
  energy1 : Ops.dat;
  pressure : Ops.dat;
  viscosity : Ops.dat;
  soundspeed : Ops.dat;
  pre_vol : Ops.dat;
  post_vol : Ops.dat;
  (* node-centred *)
  xvel0 : Ops.dat;
  xvel1 : Ops.dat;
  yvel0 : Ops.dat;
  yvel1 : Ops.dat;
  node_flux : Ops.dat;
  node_mass_post : Ops.dat;
  mom_flux : Ops.dat;
  (* x faces *)
  vol_flux_x : Ops.dat;
  mass_flux_x : Ops.dat;
  ener_flux_x : Ops.dat;
  (* y faces *)
  vol_flux_y : Ops.dat;
  mass_flux_y : Ops.dat;
  ener_flux_y : Ops.dat;
  mutable dt : float;
  mutable step : int;
  (* Global-argument buffers hoisted out of the per-step functions, so a
     step allocates none; executors bind each call's buffers, so fresh
     literals would be correct too. *)
  dims_buf : float array; (* [| dx; dy |], constant *)
  vols_buf : float array; (* [| cell volume |], constant *)
  consts_buf : float array; (* [| dx; dy; dt_eff; volume |], refilled per phase *)
  dt_min_buf : float array; (* calc_dt Min accumulator *)
  sums_buf : float array; (* field_summary Inc accumulator *)
  (* One executor handle per distinct (loop, argument-signature) site,
     keyed by site name. *)
  handles : (string, Ops.handle) Hashtbl.t;
}

let handle t key =
  match Hashtbl.find_opt t.handles key with
  | Some h -> h
  | None ->
    let h = Ops.make_handle () in
    Hashtbl.add t.handles key h;
    h

(* Standard test state (clover.in): ambient (rho, e) = (0.2, 1.0); an
   energetic square (1.0, 2.5) in the lower-left quarter. *)
let domain_size = 10.0
let state2_extent = 5.0

let initial_density x y =
  if x < state2_extent && y < state2_extent then 1.0 else 0.2

let initial_energy x y = if x < state2_extent && y < state2_extent then 2.5 else 1.0

(* Stencils (documented with the kernels). *)
let s_pt = Ops.stencil_point
let s_quad_up : Ops.stencil = [| (0, 0); (1, 0); (0, 1); (1, 1) |]
let s_quad_down : Ops.stencil = [| (-1, -1); (0, -1); (-1, 0); (0, 0) |]
let s_p1x : Ops.stencil = [| (0, 0); (1, 0) |]
let s_p1y : Ops.stencil = [| (0, 0); (0, 1) |]
let s_m1x : Ops.stencil = [| (-1, 0); (0, 0) |]
let s_m1y : Ops.stencil = [| (0, -1); (0, 0) |]
let s_4x : Ops.stencil = [| (-2, 0); (-1, 0); (0, 0); (1, 0) |]
let s_4y : Ops.stencil = [| (0, -2); (0, -1); (0, 0); (0, 1) |]

let create ?backend ?(advection = First_order) ~nx ~ny () =
  let ctx = Ops.create ?backend () in
  let grid = Ops.decl_block ctx ~name:"clover_grid" in
  let cell name = Ops.decl_dat ctx ~name ~block:grid ~xsize:nx ~ysize:ny ~halo:2 () in
  let node name =
    Ops.decl_dat ctx ~name ~block:grid ~xsize:(nx + 1) ~ysize:(ny + 1) ~halo:2 ()
  in
  let xface name =
    Ops.decl_dat ctx ~name ~block:grid ~xsize:(nx + 1) ~ysize:ny ~halo:2 ()
  in
  let yface name =
    Ops.decl_dat ctx ~name ~block:grid ~xsize:nx ~ysize:(ny + 1) ~halo:2 ()
  in
  let t =
    {
      ctx;
      advection;
      grid;
      nx;
      ny;
      dx = domain_size /. Float.of_int nx;
      dy = domain_size /. Float.of_int ny;
      density0 = cell "density0";
      density1 = cell "density1";
      energy0 = cell "energy0";
      energy1 = cell "energy1";
      pressure = cell "pressure";
      viscosity = cell "viscosity";
      soundspeed = cell "soundspeed";
      pre_vol = cell "pre_vol";
      post_vol = cell "post_vol";
      xvel0 = node "xvel0";
      xvel1 = node "xvel1";
      yvel0 = node "yvel0";
      yvel1 = node "yvel1";
      node_flux = node "node_flux";
      node_mass_post = node "node_mass_post";
      mom_flux = node "mom_flux";
      vol_flux_x = xface "vol_flux_x";
      mass_flux_x = xface "mass_flux_x";
      ener_flux_x = xface "ener_flux_x";
      vol_flux_y = yface "vol_flux_y";
      mass_flux_y = yface "mass_flux_y";
      ener_flux_y = yface "ener_flux_y";
      dt = 0.0;
      step = 0;
      dims_buf = [| domain_size /. Float.of_int nx; domain_size /. Float.of_int ny |];
      vols_buf =
        [| domain_size /. Float.of_int nx *. (domain_size /. Float.of_int ny) |];
      consts_buf = Array.make 4 0.0;
      dt_min_buf = [| 0.0 |];
      sums_buf = Array.make 5 0.0;
      handles = Hashtbl.create 32;
    }
  in
  (* Initial state, evaluated at cell centres (ghosts included, so the
     reflective boundaries start consistent). *)
  Ops.init ctx t.density0 (fun cx cy _ ->
      initial_density ((Float.of_int cx +. 0.5) *. t.dx) ((Float.of_int cy +. 0.5) *. t.dy));
  Ops.init ctx t.energy0 (fun cx cy _ ->
      initial_energy ((Float.of_int cx +. 0.5) *. t.dx) ((Float.of_int cy +. 0.5) *. t.dy));
  List.iter
    (fun d -> Ops.init ctx d (fun _ _ _ -> 0.0))
    [
      t.density1; t.energy1; t.pressure; t.viscosity; t.soundspeed; t.pre_vol;
      t.post_vol; t.xvel0; t.xvel1; t.yvel0; t.yvel1; t.node_flux; t.node_mass_post;
      t.mom_flux; t.vol_flux_x; t.mass_flux_x; t.ener_flux_x; t.vol_flux_y;
      t.mass_flux_y; t.ener_flux_y;
    ];
  t

let volume t = t.dx *. t.dy

let cells t : Ops.range = { xlo = 0; xhi = t.nx; ylo = 0; yhi = t.ny }
let nodes t : Ops.range = { xlo = 0; xhi = t.nx + 1; ylo = 0; yhi = t.ny + 1 }
let xfaces t : Ops.range = { xlo = 0; xhi = t.nx + 1; ylo = 0; yhi = t.ny }
let yfaces t : Ops.range = { xlo = 0; xhi = t.nx; ylo = 0; yhi = t.ny + 1 }

(* Extended ranges covering the ghost ring, for the reset copies. *)
let cells_ext t : Ops.range = { xlo = -2; xhi = t.nx + 2; ylo = -2; yhi = t.ny + 2 }
let nodes_ext t : Ops.range = { xlo = -2; xhi = t.nx + 3; ylo = -2; yhi = t.ny + 3 }

let mirror_thermo t =
  List.iter (fun d -> Ops.mirror_halo t.ctx d) [ t.density1; t.energy1 ]

(* Free-slip walls: the velocity component normal to each wall is zero on
   the boundary node line itself (the mirror alone leaves it free, and
   momentum advection would otherwise push mass through the wall). *)
let wall_velocities t =
  let zero name dat range =
    Ops.par_loop_acc t.ctx ~name ~info:Kernels.reset_field_info ~handle:(handle t name)
      t.grid range
      [ Ops.arg_dat dat s_pt Access.Write ]
      Kernels.zero_acc
  in
  zero "wall_xvel_w" t.xvel1 { xlo = 0; xhi = 1; ylo = 0; yhi = t.ny + 1 };
  zero "wall_xvel_e" t.xvel1 { xlo = t.nx; xhi = t.nx + 1; ylo = 0; yhi = t.ny + 1 };
  zero "wall_yvel_s" t.yvel1 { xlo = 0; xhi = t.nx + 1; ylo = 0; yhi = 1 };
  zero "wall_yvel_n" t.yvel1 { xlo = 0; xhi = t.nx + 1; ylo = t.ny; yhi = t.ny + 1 }

let mirror_velocities t =
  wall_velocities t;
  Ops.mirror_halo t.ctx t.xvel1 ~sign_x:(-1.0) ~center_x:Ops.Node ~center_y:Ops.Node;
  Ops.mirror_halo t.ctx t.yvel1 ~sign_y:(-1.0) ~center_x:Ops.Node ~center_y:Ops.Node

let ideal_gas t ~predict =
  let density = if predict then t.density1 else t.density0 in
  let energy = if predict then t.energy1 else t.energy0 in
  Ops.par_loop_acc t.ctx ~name:"ideal_gas" ~info:Kernels.ideal_gas_info
    ~handle:(handle t (if predict then "ideal_gas_predict" else "ideal_gas"))
    t.grid (cells t)
    [
      Ops.arg_dat density s_pt Access.Read;
      Ops.arg_dat energy s_pt Access.Read;
      Ops.arg_dat t.pressure s_pt Access.Write;
      Ops.arg_dat t.soundspeed s_pt Access.Write;
    ]
    Kernels.ideal_gas_acc;
  Ops.mirror_halo t.ctx t.pressure;
  Ops.mirror_halo t.ctx t.soundspeed

let viscosity_step t =
  let dims = t.dims_buf in
  Ops.par_loop_acc t.ctx ~name:"viscosity" ~info:Kernels.viscosity_info
    ~handle:(handle t "viscosity") t.grid (cells t)
    [
      Ops.arg_dat t.xvel0 s_quad_up Access.Read;
      Ops.arg_dat t.yvel0 s_quad_up Access.Read;
      Ops.arg_dat t.density0 s_pt Access.Read;
      Ops.arg_dat t.viscosity s_pt Access.Write;
      Ops.arg_gbl ~name:"celldims" dims Access.Read;
    ]
    Kernels.viscosity_acc;
  Ops.mirror_halo t.ctx t.viscosity

let timestep t =
  let dims = t.dims_buf in
  let dt_min = t.dt_min_buf in
  dt_min.(0) <- 0.04 (* g_big clamp: the initial/maximum dt *);
  Ops.par_loop_acc t.ctx ~name:"calc_dt" ~info:Kernels.calc_dt_info
    ~handle:(handle t "calc_dt") t.grid (cells t)
    [
      Ops.arg_dat t.soundspeed s_pt Access.Read;
      Ops.arg_dat t.viscosity s_pt Access.Read;
      Ops.arg_dat t.density0 s_pt Access.Read;
      Ops.arg_dat t.xvel0 s_quad_up Access.Read;
      Ops.arg_dat t.yvel0 s_quad_up Access.Read;
      Ops.arg_gbl ~name:"celldims" dims Access.Read;
      Ops.arg_gbl ~name:"dt" dt_min Access.Min;
    ]
    Kernels.calc_dt_acc;
  t.dt <- dt_min.(0)

(* Refill the shared consts buffer in place (loops are synchronous, so the
   values are stable for the duration of each par_loop). *)
let consts t ~dt =
  t.consts_buf.(0) <- t.dx;
  t.consts_buf.(1) <- t.dy;
  t.consts_buf.(2) <- dt;
  t.consts_buf.(3) <- volume t;
  t.consts_buf

(* Predictor uses the level-0 velocities twice over half the timestep; the
   corrector averages both levels over the full timestep. *)
let pdv t ~predict =
  let xv1 = if predict then t.xvel0 else t.xvel1 in
  let yv1 = if predict then t.yvel0 else t.yvel1 in
  let dt_eff = if predict then 0.5 *. t.dt else t.dt in
  let name = if predict then "PdV_predict" else "PdV" in
  Ops.par_loop_acc t.ctx ~name ~info:Kernels.pdv_info ~handle:(handle t name) t.grid
    (cells t)
    [
      Ops.arg_dat t.xvel0 s_quad_up Access.Read;
      Ops.arg_dat t.yvel0 s_quad_up Access.Read;
      Ops.arg_dat xv1 s_quad_up Access.Read;
      Ops.arg_dat yv1 s_quad_up Access.Read;
      Ops.arg_dat t.density0 s_pt Access.Read;
      Ops.arg_dat t.energy0 s_pt Access.Read;
      Ops.arg_dat t.pressure s_pt Access.Read;
      Ops.arg_dat t.viscosity s_pt Access.Read;
      Ops.arg_dat t.density1 s_pt Access.Write;
      Ops.arg_dat t.energy1 s_pt Access.Write;
      Ops.arg_gbl ~name:"consts" (consts t ~dt:dt_eff) Access.Read;
    ]
    Kernels.pdv_acc;
  mirror_thermo t

let accelerate t =
  Ops.par_loop_acc t.ctx ~name:"accelerate" ~info:Kernels.accelerate_info
    ~handle:(handle t "accelerate") t.grid (nodes t)
    [
      Ops.arg_dat t.density0 s_quad_down Access.Read;
      Ops.arg_dat t.pressure s_quad_down Access.Read;
      Ops.arg_dat t.viscosity s_quad_down Access.Read;
      Ops.arg_dat t.xvel0 s_pt Access.Read;
      Ops.arg_dat t.yvel0 s_pt Access.Read;
      Ops.arg_dat t.xvel1 s_pt Access.Write;
      Ops.arg_dat t.yvel1 s_pt Access.Write;
      Ops.arg_gbl ~name:"consts" (consts t ~dt:t.dt) Access.Read;
    ]
    Kernels.accelerate_acc;
  mirror_velocities t

let flux_calc t =
  let c = consts t ~dt:t.dt in
  Ops.par_loop_acc t.ctx ~name:"flux_calc_x" ~info:Kernels.flux_calc_info
    ~handle:(handle t "flux_calc_x") t.grid (xfaces t)
    [
      Ops.arg_dat t.xvel0 s_p1y Access.Read;
      Ops.arg_dat t.xvel1 s_p1y Access.Read;
      Ops.arg_dat t.vol_flux_x s_pt Access.Write;
      Ops.arg_gbl ~name:"consts" c Access.Read;
    ]
    Kernels.flux_calc_x_acc;
  Ops.par_loop_acc t.ctx ~name:"flux_calc_y" ~info:Kernels.flux_calc_info
    ~handle:(handle t "flux_calc_y") t.grid (yfaces t)
    [
      Ops.arg_dat t.yvel0 s_p1x Access.Read;
      Ops.arg_dat t.yvel1 s_p1x Access.Read;
      Ops.arg_dat t.vol_flux_y s_pt Access.Write;
      Ops.arg_gbl ~name:"consts" c Access.Read;
    ]
    Kernels.flux_calc_y_acc

let advec_cell_sweep t ~dir =
  let vols = t.vols_buf in
  let vol_kernel, vol_name =
    match dir with
    | `X -> (Kernels.advec_vol_x_acc, "advec_vol_x")
    | `Y -> (Kernels.advec_vol_y_acc, "advec_vol_y")
  in
  (* Extended range: the van Leer fluxes read donor pre-volumes from ghost
     cells (ghost volume fluxes are zero, so ghost pre_vol = volume).
     Both sweep directions pass the same argument list to the volume loop,
     so they share one executor handle. *)
  Ops.par_loop_acc t.ctx ~name:vol_name ~info:Kernels.advec_vol_info
    ~handle:(handle t "advec_vol") t.grid (cells_ext t)
    [
      Ops.arg_dat t.vol_flux_x s_p1x Access.Read;
      Ops.arg_dat t.vol_flux_y s_p1y Access.Read;
      Ops.arg_dat t.pre_vol s_pt Access.Write;
      Ops.arg_dat t.post_vol s_pt Access.Write;
      Ops.arg_gbl ~name:"volume" vols Access.Read;
    ]
    vol_kernel;
  (match dir with
  | `X ->
    (match t.advection with
    | First_order ->
      Ops.par_loop_acc t.ctx ~name:"advec_flux_x" ~info:Kernels.advec_flux_info
        ~handle:(handle t "advec_flux_x") t.grid (xfaces t)
        [
          Ops.arg_dat t.vol_flux_x s_pt Access.Read;
          Ops.arg_dat t.density1 s_m1x Access.Read;
          Ops.arg_dat t.energy1 s_m1x Access.Read;
          Ops.arg_dat t.mass_flux_x s_pt Access.Write;
          Ops.arg_dat t.ener_flux_x s_pt Access.Write;
        ]
        Kernels.advec_flux_acc
    | Van_leer ->
      Ops.par_loop_acc t.ctx ~name:"advec_flux_x_vl" ~info:Kernels.advec_flux_vanleer_info
        ~handle:(handle t "advec_flux_x_vl") t.grid (xfaces t)
        [
          Ops.arg_dat t.vol_flux_x s_pt Access.Read;
          Ops.arg_dat t.density1 s_4x Access.Read;
          Ops.arg_dat t.energy1 s_4x Access.Read;
          Ops.arg_dat t.pre_vol s_m1x Access.Read;
          Ops.arg_dat t.mass_flux_x s_pt Access.Write;
          Ops.arg_dat t.ener_flux_x s_pt Access.Write;
        ]
        Kernels.advec_flux_vanleer_acc);
    Ops.par_loop_acc t.ctx ~name:"advec_cell_x" ~info:Kernels.advec_cell_info
      ~handle:(handle t "advec_cell_x") t.grid (cells t)
      [
        Ops.arg_dat t.mass_flux_x s_p1x Access.Read;
        Ops.arg_dat t.ener_flux_x s_p1x Access.Read;
        Ops.arg_dat t.pre_vol s_pt Access.Read;
        Ops.arg_dat t.post_vol s_pt Access.Read;
        Ops.arg_dat t.density1 s_pt Access.Rw;
        Ops.arg_dat t.energy1 s_pt Access.Rw;
      ]
      Kernels.advec_cell_acc
  | `Y ->
    (match t.advection with
    | First_order ->
      Ops.par_loop_acc t.ctx ~name:"advec_flux_y" ~info:Kernels.advec_flux_info
        ~handle:(handle t "advec_flux_y") t.grid (yfaces t)
        [
          Ops.arg_dat t.vol_flux_y s_pt Access.Read;
          Ops.arg_dat t.density1 s_m1y Access.Read;
          Ops.arg_dat t.energy1 s_m1y Access.Read;
          Ops.arg_dat t.mass_flux_y s_pt Access.Write;
          Ops.arg_dat t.ener_flux_y s_pt Access.Write;
        ]
        Kernels.advec_flux_acc
    | Van_leer ->
      Ops.par_loop_acc t.ctx ~name:"advec_flux_y_vl" ~info:Kernels.advec_flux_vanleer_info
        ~handle:(handle t "advec_flux_y_vl") t.grid (yfaces t)
        [
          Ops.arg_dat t.vol_flux_y s_pt Access.Read;
          Ops.arg_dat t.density1 s_4y Access.Read;
          Ops.arg_dat t.energy1 s_4y Access.Read;
          Ops.arg_dat t.pre_vol s_m1y Access.Read;
          Ops.arg_dat t.mass_flux_y s_pt Access.Write;
          Ops.arg_dat t.ener_flux_y s_pt Access.Write;
        ]
        Kernels.advec_flux_vanleer_acc);
    Ops.par_loop_acc t.ctx ~name:"advec_cell_y" ~info:Kernels.advec_cell_info
      ~handle:(handle t "advec_cell_y") t.grid (cells t)
      [
        Ops.arg_dat t.mass_flux_y s_p1y Access.Read;
        Ops.arg_dat t.ener_flux_y s_p1y Access.Read;
        Ops.arg_dat t.pre_vol s_pt Access.Read;
        Ops.arg_dat t.post_vol s_pt Access.Read;
        Ops.arg_dat t.density1 s_pt Access.Rw;
        Ops.arg_dat t.energy1 s_pt Access.Rw;
      ]
      Kernels.advec_cell_acc);
  mirror_thermo t

let advec_mom_sweep t ~dir =
  let vols = t.vols_buf in
  let dir_tag = match dir with `X -> "x" | `Y -> "y" in
  (* Stage 1: plane mass fluxes at nodes. *)
  (match dir with
  | `X ->
    Ops.par_loop_acc t.ctx ~name:"mom_node_flux_x" ~info:Kernels.advec_mom_info
      ~handle:(handle t "mom_node_flux_x") t.grid (nodes t)
      [
        Ops.arg_dat t.mass_flux_x s_m1y Access.Read;
        Ops.arg_dat t.node_flux s_pt Access.Write;
      ]
      Kernels.mom_node_flux_acc
  | `Y ->
    Ops.par_loop_acc t.ctx ~name:"mom_node_flux_y" ~info:Kernels.advec_mom_info
      ~handle:(handle t "mom_node_flux_y") t.grid (nodes t)
      [
        Ops.arg_dat t.mass_flux_y s_m1x Access.Read;
        Ops.arg_dat t.node_flux s_pt Access.Write;
      ]
      Kernels.mom_node_flux_acc);
  (* Stage 2: post-advection nodal mass. *)
  Ops.par_loop_acc t.ctx ~name:"mom_node_mass" ~info:Kernels.advec_mom_info
    ~handle:(handle t "mom_node_mass") t.grid (nodes t)
    [
      Ops.arg_dat t.density1 s_quad_down Access.Read;
      Ops.arg_dat t.node_mass_post s_pt Access.Write;
      Ops.arg_gbl ~name:"volume" vols Access.Read;
    ]
    Kernels.mom_node_mass_acc;
  (* Stages 3-4 for each velocity component; each (direction, component)
     pair is its own argument signature, hence its own handle. *)
  let vel_stencil, flux_stencil =
    match dir with `X -> (s_m1x, s_p1x) | `Y -> (s_m1y, s_p1y)
  in
  List.iter
    (fun (vel_tag, vel) ->
      let site suffix = Printf.sprintf "%s_%s_%s" suffix dir_tag vel_tag in
      Ops.par_loop_acc t.ctx ~name:"mom_flux" ~info:Kernels.advec_mom_info
        ~handle:(handle t (site "mom_flux")) t.grid (nodes t)
        [
          Ops.arg_dat t.node_flux s_pt Access.Read;
          Ops.arg_dat vel vel_stencil Access.Read;
          Ops.arg_dat t.mom_flux s_pt Access.Write;
        ]
        Kernels.mom_flux_acc;
      Ops.par_loop_acc t.ctx ~name:"mom_vel" ~info:Kernels.advec_mom_info
        ~handle:(handle t (site "mom_vel")) t.grid (nodes t)
        [
          Ops.arg_dat t.node_flux flux_stencil Access.Read;
          Ops.arg_dat t.mom_flux flux_stencil Access.Read;
          Ops.arg_dat t.node_mass_post s_pt Access.Read;
          Ops.arg_dat vel s_pt Access.Rw;
        ]
        Kernels.mom_vel_acc)
    [ ("xv", t.xvel1); ("yv", t.yvel1) ];
  mirror_velocities t

let reset_field t =
  let copy name src dst range =
    Ops.par_loop_acc t.ctx ~name ~info:Kernels.reset_field_info ~handle:(handle t name)
      t.grid range
      [ Ops.arg_dat src s_pt Access.Read; Ops.arg_dat dst s_pt Access.Write ]
      Kernels.reset_field_acc
  in
  copy "reset_density" t.density1 t.density0 (cells_ext t);
  copy "reset_energy" t.energy1 t.energy0 (cells_ext t);
  copy "reset_xvel" t.xvel1 t.xvel0 (nodes_ext t);
  copy "reset_yvel" t.yvel1 t.yvel0 (nodes_ext t)

(* One hydro step; returns the dt taken. *)
let hydro_step t =
  ideal_gas t ~predict:false;
  viscosity_step t;
  timestep t;
  pdv t ~predict:true;
  ideal_gas t ~predict:true;
  accelerate t;
  pdv t ~predict:false;
  flux_calc t;
  advec_cell_sweep t ~dir:`X;
  advec_cell_sweep t ~dir:`Y;
  advec_mom_sweep t ~dir:`X;
  advec_mom_sweep t ~dir:`Y;
  reset_field t;
  t.step <- t.step + 1;
  t.dt

type summary = { vol : float; mass : float; ie : float; ke : float; press : float }

let field_summary t =
  let vols = t.vols_buf in
  let sums = t.sums_buf in
  Array.fill sums 0 5 0.0;
  Ops.par_loop_acc t.ctx ~name:"field_summary" ~info:Kernels.field_summary_info
    ~handle:(handle t "field_summary") t.grid (cells t)
    [
      Ops.arg_dat t.density0 s_pt Access.Read;
      Ops.arg_dat t.energy0 s_pt Access.Read;
      Ops.arg_dat t.pressure s_pt Access.Read;
      Ops.arg_dat t.xvel0 s_quad_up Access.Read;
      Ops.arg_dat t.yvel0 s_quad_up Access.Read;
      Ops.arg_gbl ~name:"volume" vols Access.Read;
      Ops.arg_gbl ~name:"sums" sums Access.Inc;
    ]
    Kernels.field_summary_acc;
  { vol = sums.(0); mass = sums.(1); ie = sums.(2); ke = sums.(3); press = sums.(4) }

let run t ~steps =
  for _ = 1 to steps do
    ignore (hydro_step t)
  done;
  field_summary t

(* Final density field in row-major interior order, for validation. *)
let density t = Ops.fetch_interior t.ctx t.density0
let energy t = Ops.fetch_interior t.ctx t.energy0
let xvel t = Ops.fetch_interior t.ctx t.xvel0

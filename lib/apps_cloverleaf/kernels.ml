(* CloverLeaf 2D kernels.

   A compressible-Euler hydrodynamics cycle on a staggered structured grid,
   following the published CloverLeaf mini-app: thermodynamics on cell
   centres, velocities on nodes, fluxes on faces; a Lagrangian step (PdV +
   acceleration) followed by first-order donor-cell advection sweeps and a
   field reset.  Slope limiters of the original are omitted (first-order
   upwind donor cell), which keeps the scheme robust and preserves the
   loop/stencil structure the paper's evaluation depends on.

   Each kernel is written once, over argument accessors ([Ops.Acc]: the
   zero-copy ABI, run with [Ops.par_loop_acc]); the stencil orders are
   documented with each kernel and fixed in [App].  Every dataset has
   dim 1, so [get a p] is stencil point [p] of argument [a].  Each kernel
   is a [let%kernel] (lib/ppx_kernel) with its argument signature after
   the body, [[@@args ...]], one entry per argument in [App]'s call order:
   [label [offsets] dim Access] for a dataset, [gbl length Access] for a
   global.  The labels name layouts: [cell], [node], and [face] or
   [xface]/[yface] for the face fields, so each label's datasets share
   one shape.  The six kernels [App] runs with an x and a y stencil
   ([advec_flux], [advec_flux_vanleer], [advec_cell], [mom_node_flux],
   [mom_flux], [mom_vel]) declare one [[@@args]] per sweep.  The kernel
   value carries the body as written, which Check and footprint probing
   run per point, and one generated range walker per signature with the
   body inlined into a loop nest over a whole box, which the executors run
   with every dataset in place wherever the arguments allow it (they
   stage every argument otherwise).  Accessors therefore
   appear only as [a.(k)] or a [let]-bound name of one, and only under
   [get], [set], [gbl] and [set_gbl]; helpers take floats.  The staged
   [pdv] that [Ops.par_loop] takes is a one-line adapter over [pdv_acc]'s
   point form.
   The hand-coded baseline ([Hand]) re-implements the same arithmetic over
   flat arrays, in the same operation order, and shares only [gamma] and
   [van_leer_limited] with this module.

   The kernels are hot and the library is compiled with [-opaque] and
   without flambda, so a float that crosses a call boundary is boxed.
   Hence the module-local [@inline] accessors, and no local closures
   capturing floats: helpers are top-level [@inline] functions. *)

module Acc = Am_core.Acc

(* Stencil point [p] of a dataset argument; the (centre) point of a
   written one; component [c] of a global. *)
let[@inline] get (a : Acc.t) p = a.Acc.data.(a.Acc.base + a.Acc.off.(p))
let[@inline] set (a : Acc.t) v = a.Acc.data.(a.Acc.base + a.Acc.off.(0)) <- v
let[@inline] gbl (a : Acc.t) c = a.Acc.data.(a.Acc.base + a.Acc.off.(0) + c)
let[@inline] set_gbl (a : Acc.t) c v = a.Acc.data.(a.Acc.base + a.Acc.off.(0) + c) <- v

let gamma = 1.4

(* EoS: p = (gamma-1) * rho * e, soundspeed^2 = gamma * p / rho.
   args: density(R), energy(R), pressure(W), soundspeed(W) — all centre. *)
let%kernel ideal_gas_acc (a : Acc.t array) =
  let density = get a.(0) 0 and energy = get a.(1) 0 in
  let p = (gamma -. 1.0) *. density *. energy in
  set a.(2) p;
  set a.(3) (sqrt (gamma *. p /. density))
[@@args cell [(0,0)] 1 Read, cell [(0,0)] 1 Read, cell [(0,0)] 1 Write, cell [(0,0)] 1 Write]

let ideal_gas_info = { Am_core.Descr.flops = 5.0; transcendentals = 1.0 }

(* Artificial viscosity on compressing cells.
   args:
     0 xvel0   quad stencil [(0,0);(1,0);(0,1);(1,1)] (nodes around cell)
     1 yvel0   same stencil
     2 density (R, centre)
     3 viscosity (W, centre)
     4 celldims (R gbl: [dx; dy]) *)
let%kernel viscosity_acc (a : Acc.t array) =
  let xv = a.(0) and yv = a.(1) in
  let density = get a.(2) 0 in
  let dx = gbl a.(4) 0 and dy = gbl a.(4) 1 in
  (* Velocity divergence from the four corner nodes. *)
  let ugrad = 0.5 *. ((get xv 1 +. get xv 3) -. (get xv 0 +. get xv 2)) /. dx in
  let vgrad = 0.5 *. ((get yv 2 +. get yv 3) -. (get yv 0 +. get yv 1)) /. dy in
  let div = ugrad +. vgrad in
  if div < 0.0 then begin
    let length = Float.min dx dy in
    set a.(3) (2.0 *. density *. (div *. length) *. (div *. length))
  end
  else set a.(3) 0.0
[@@args node [(0,0); (1,0); (0,1); (1,1)] 1 Read, node [(0,0); (1,0); (0,1); (1,1)] 1 Read, cell [(0,0)] 1 Read, cell [(0,0)] 1 Write, gbl 2 Read]

let viscosity_info = { Am_core.Descr.flops = 14.0; transcendentals = 0.0 }

(* Per-cell stable timestep (min reduction).
   args:
     0 soundspeed (R, centre)
     1 viscosity (R, centre)
     2 density (R, centre)
     3 xvel0 quad, 4 yvel0 quad
     5 celldims (R gbl)
     6 dt_min (Min gbl) *)
let%kernel calc_dt_acc (a : Acc.t array) =
  let ss = get a.(0) 0 and visc = get a.(1) 0 and density = get a.(2) 0 in
  let xv = a.(3) and yv = a.(4) in
  let dx = gbl a.(5) 0 and dy = gbl a.(5) 1 in
  let u = 0.25 *. (get xv 0 +. get xv 1 +. get xv 2 +. get xv 3) in
  let v = 0.25 *. (get yv 0 +. get yv 1 +. get yv 2 +. get yv 3) in
  (* Effective signal speed includes the viscous pressure. *)
  let ss_eff = sqrt ((ss *. ss) +. (2.0 *. visc /. density)) in
  let dtx = dx /. (ss_eff +. Float.abs u) in
  let dty = dy /. (ss_eff +. Float.abs v) in
  let dt = 0.5 *. Float.min dtx dty in
  set_gbl a.(6) 0 (Float.min (gbl a.(6) 0) dt)
[@@args
  cell [(0,0)] 1 Read, cell [(0,0)] 1 Read, cell [(0,0)] 1 Read, node [(0,0); (1,0); (0,1); (1,1)] 1 Read,
  node [(0,0); (1,0); (0,1); (1,1)] 1 Read, gbl 2 Read, gbl 1 Min]

let calc_dt_info = { Am_core.Descr.flops = 18.0; transcendentals = 1.0 }

(* PdV compression/expansion work (predictor and corrector share this
   kernel: the predictor passes the time-level-0 velocities twice with half
   the timestep, the corrector both levels with the full timestep — exactly
   as CloverLeaf does).  The corrector's face fluxes equal flux_calc's
   volume fluxes, which is what makes the following advection remap conserve
   mass exactly.
   args:
     0 xvel0 quad stencil [(0,0);(1,0);(0,1);(1,1)], 1 yvel0 quad
     2 xvel1 quad, 3 yvel1 quad
     4 density0 (R), 5 energy0 (R), 6 pressure (R), 7 viscosity (R)
     8 density1 (W), 9 energy1 (W)
     10 consts (R gbl: [dx; dy; dt_effective; volume]) *)
let%kernel pdv_acc (a : Acc.t array) =
  let xv0 = a.(0) and yv0 = a.(1) and xv1 = a.(2) and yv1 = a.(3) in
  let density0 = get a.(4) 0 and energy0 = get a.(5) 0 in
  let pressure = get a.(6) 0 and visc = get a.(7) 0 in
  let consts = a.(10) in
  let dx = gbl consts 0 and dy = gbl consts 1 in
  let dt = gbl consts 2 and volume = gbl consts 3 in
  (* Face fluxes from time-averaged nodal velocities; xarea = dy, yarea = dx
     on a uniform grid. *)
  let left = dy *. (0.25 *. (get xv0 0 +. get xv0 2 +. get xv1 0 +. get xv1 2)) *. dt in
  let right = dy *. (0.25 *. (get xv0 1 +. get xv0 3 +. get xv1 1 +. get xv1 3)) *. dt in
  let bottom = dx *. (0.25 *. (get yv0 0 +. get yv0 1 +. get yv1 0 +. get yv1 1)) *. dt in
  let top = dx *. (0.25 *. (get yv0 2 +. get yv0 3 +. get yv1 2 +. get yv1 3)) *. dt in
  let total_flux = right -. left +. top -. bottom in
  let volume_change = volume /. (volume +. total_flux) in
  let energy_change = (pressure +. visc) /. density0 *. total_flux /. volume in
  set a.(9) (energy0 -. energy_change);
  set a.(8) (density0 *. volume_change)
[@@args
  node [(0,0); (1,0); (0,1); (1,1)] 1 Read, node [(0,0); (1,0); (0,1); (1,1)] 1 Read,
  node [(0,0); (1,0); (0,1); (1,1)] 1 Read, node [(0,0); (1,0); (0,1); (1,1)] 1 Read,
  cell [(0,0)] 1 Read, cell [(0,0)] 1 Read, cell [(0,0)] 1 Read, cell [(0,0)] 1 Read,
  cell [(0,0)] 1 Write, cell [(0,0)] 1 Write, gbl 4 Read]

(* The staged form, for callers of [Ops.par_loop]. *)
let pdv bufs = pdv_acc.Acc.point (Array.map (Acc.of_buffer ~dim:1) bufs)

let pdv_info = { Am_core.Descr.flops = 30.0; transcendentals = 0.0 }

(* Pressure difference across a node in x (right cells minus left) and in
   y (upper cells minus lower), over the values [p0..p3] of the cell quad
   around the node. *)
let[@inline] diff_x p0 p1 p2 p3 dy = ((p1 +. p3) -. (p0 +. p2)) *. 0.5 *. dy
let[@inline] diff_y p0 p1 p2 p3 dx = ((p2 +. p3) -. (p0 +. p1)) *. 0.5 *. dx

(* Nodal acceleration from pressure and viscosity gradients.
   args:
     0 density0  cell quad around node: [(-1,-1);(0,-1);(-1,0);(0,0)]
     1 pressure  same stencil
     2 viscosity same stencil
     3 xvel0 (R, centre), 4 yvel0 (R, centre)
     5 xvel1 (W, centre), 6 yvel1 (W, centre)
     7 consts (R gbl: [dx; dy; dt; volume]) *)
let%kernel accelerate_acc (a : Acc.t array) =
  let d = a.(0) and p = a.(1) and q = a.(2) in
  let consts = a.(7) in
  let dx = gbl consts 0 and dy = gbl consts 1 in
  let dt = gbl consts 2 and volume = gbl consts 3 in
  let nodal_mass = 0.25 *. (get d 0 +. get d 1 +. get d 2 +. get d 3) *. volume in
  let stepbymass = 0.5 *. dt /. nodal_mass in
  set a.(5)
    (get a.(3) 0
    -. stepbymass
       *. (diff_x (get p 0) (get p 1) (get p 2) (get p 3) dy
          +. diff_x (get q 0) (get q 1) (get q 2) (get q 3) dy));
  set a.(6)
    (get a.(4) 0
    -. stepbymass
       *. (diff_y (get p 0) (get p 1) (get p 2) (get p 3) dx
          +. diff_y (get q 0) (get q 1) (get q 2) (get q 3) dx))
[@@args
  cell [(-1,-1); (0,-1); (-1,0); (0,0)] 1 Read, cell [(-1,-1); (0,-1); (-1,0); (0,0)] 1 Read,
  cell [(-1,-1); (0,-1); (-1,0); (0,0)] 1 Read, node [(0,0)] 1 Read, node [(0,0)] 1 Read,
  node [(0,0)] 1 Write, node [(0,0)] 1 Write, gbl 4 Read]

let accelerate_info = { Am_core.Descr.flops = 24.0; transcendentals = 0.0 }

(* Volume fluxes through x-faces from time-averaged velocities.
   args:
     0 xvel0 [(0,0);(0,1)] (nodes on the face)
     1 xvel1 same
     2 vol_flux_x (W, centre)
     3 consts (R gbl: [dx; dy; dt]) *)
let%kernel flux_calc_x_acc (a : Acc.t array) =
  let xv0 = a.(0) and xv1 = a.(1) in
  let dy = gbl a.(3) 1 and dt = gbl a.(3) 2 in
  set a.(2) (0.25 *. dt *. dy *. (get xv0 0 +. get xv0 1 +. get xv1 0 +. get xv1 1))
[@@args node [(0,0); (0,1)] 1 Read, node [(0,0); (0,1)] 1 Read, face [(0,0)] 1 Write, gbl 4 Read]

(* args mirror flux_calc_x with yvel and [(0,0);(1,0)]. *)
let%kernel flux_calc_y_acc (a : Acc.t array) =
  let yv0 = a.(0) and yv1 = a.(1) in
  let dx = gbl a.(3) 0 and dt = gbl a.(3) 2 in
  set a.(2) (0.25 *. dt *. dx *. (get yv0 0 +. get yv0 1 +. get yv1 0 +. get yv1 1))
[@@args node [(0,0); (1,0)] 1 Read, node [(0,0); (1,0)] 1 Read, face [(0,0)] 1 Write, gbl 4 Read]

let flux_calc_info = { Am_core.Descr.flops = 6.0; transcendentals = 0.0 }

(* Advection sweep volumes.
   x-sweep (first): pre_vol = V + net volume flux of both directions,
   post_vol = pre_vol - net x flux.
   args:
     0 vol_flux_x [(0,0);(1,0)]
     1 vol_flux_y [(0,0);(0,1)]
     2 pre_vol (W, centre), 3 post_vol (W, centre)
     4 consts (R gbl: [volume]) *)
let%kernel advec_vol_x_acc (a : Acc.t array) =
  let vfx = a.(0) and vfy = a.(1) in
  let volume = gbl a.(4) 0 in
  let net_x = get vfx 1 -. get vfx 0 in
  let net_y = get vfy 1 -. get vfy 0 in
  let pre = volume +. net_x +. net_y in
  set a.(2) pre;
  set a.(3) (pre -. net_x)
[@@args
  xface [(0,0); (1,0)] 1 Read, yface [(0,0); (0,1)] 1 Read, cell [(0,0)] 1 Write,
  cell [(0,0)] 1 Write, gbl 1 Read]

(* y-sweep (second): only the y flux remains. *)
let%kernel advec_vol_y_acc (a : Acc.t array) =
  let vfy = a.(1) in
  let volume = gbl a.(4) 0 in
  let net_y = get vfy 1 -. get vfy 0 in
  set a.(2) (volume +. net_y);
  set a.(3) volume
[@@args
  xface [(0,0); (1,0)] 1 Read, yface [(0,0); (0,1)] 1 Read, cell [(0,0)] 1 Write,
  cell [(0,0)] 1 Write, gbl 1 Read]

let advec_vol_info = { Am_core.Descr.flops = 6.0; transcendentals = 0.0 }

(* Donor-cell mass and energy fluxes through x-faces.
   args:
     0 vol_flux_x (R, centre on faces)
     1 density1 [(-1,0);(0,0)] (left and right cells of the face)
     2 energy1  same
     3 mass_flux_x (W, centre)
     4 ener_flux_x (W, centre)
   The same kernel serves y-faces with the stencil [(0,-1);(0,0)]. *)
let%kernel advec_flux_acc (a : Acc.t array) =
  let vf = get a.(0) 0 in
  let d = a.(1) and e = a.(2) in
  let donor = if vf > 0.0 then 0 else 1 in
  let mf = vf *. get d donor in
  set a.(3) mf;
  set a.(4) (mf *. get e donor)
[@@args
  face [(0,0)] 1 Read, cell [(-1,0); (0,0)] 1 Read, cell [(-1,0); (0,0)] 1 Read,
  face [(0,0)] 1 Write, face [(0,0)] 1 Write]
[@@args
  face [(0,0)] 1 Read, cell [(0,-1); (0,0)] 1 Read, cell [(0,-1); (0,0)] 1 Read,
  face [(0,0)] 1 Write, face [(0,0)] 1 Write]

let advec_flux_info = { Am_core.Descr.flops = 4.0; transcendentals = 0.0 }

(* Cell update of an advection sweep.
   args:
     0 mass_flux [(0,0);(1,0)] (x) or [(0,0);(0,1)] (y)
     1 ener_flux same
     2 pre_vol (R, centre), 3 post_vol (R, centre)
     4 density1 (Rw, centre), 5 energy1 (Rw, centre) *)
let%kernel advec_cell_acc (a : Acc.t array) =
  let mf = a.(0) and ef = a.(1) in
  let pre_vol = get a.(2) 0 and post_vol = get a.(3) 0 in
  let density = a.(4) and energy = a.(5) in
  let pre_mass = get density 0 *. pre_vol in
  let post_mass = pre_mass +. get mf 0 -. get mf 1 in
  let post_ener = ((get energy 0 *. pre_mass) +. get ef 0 -. get ef 1) /. post_mass in
  set density (post_mass /. post_vol);
  set energy post_ener
[@@args
  face [(0,0); (1,0)] 1 Read, face [(0,0); (1,0)] 1 Read, cell [(0,0)] 1 Read,
  cell [(0,0)] 1 Read, cell [(0,0)] 1 Rw, cell [(0,0)] 1 Rw]
[@@args
  face [(0,0); (0,1)] 1 Read, face [(0,0); (0,1)] 1 Read, cell [(0,0)] 1 Read,
  cell [(0,0)] 1 Read, cell [(0,0)] 1 Rw, cell [(0,0)] 1 Rw]

let advec_cell_info = { Am_core.Descr.flops = 10.0; transcendentals = 0.0 }

(* Momentum advection, stage 1: mass flux through the "left" face of each
   node's control volume (x direction shown; y swaps roles).
   args:
     0 mass_flux_x [(0,-1);(0,0)] (the two face fluxes beside the node)
     1 node_flux (W, centre on nodes) *)
let%kernel mom_node_flux_acc (a : Acc.t array) = set a.(1) (0.5 *. (get a.(0) 0 +. get a.(0) 1))
[@@args face [(0,-1); (0,0)] 1 Read, node [(0,0)] 1 Write]
[@@args face [(-1,0); (0,0)] 1 Read, node [(0,0)] 1 Write]

(* Stage 2: post-advection nodal mass.
   args:
     0 density1 cell quad around node [(-1,-1);(0,-1);(-1,0);(0,0)]
     1 node_mass_post (W, centre)
     2 consts (R gbl: [volume]) *)
let%kernel mom_node_mass_acc (a : Acc.t array) =
  let d = a.(0) in
  set a.(1) (0.25 *. (get d 0 +. get d 1 +. get d 2 +. get d 3) *. gbl a.(2) 0)
[@@args cell [(-1,-1); (0,-1); (-1,0); (0,0)] 1 Read, node [(0,0)] 1 Write, gbl 1 Read]

(* Stage 3: upwinded momentum flux through the node CV's left face.
   args:
     0 node_flux (R, centre)
     1 vel [(-1,0);(0,0)] (x) or [(0,-1);(0,0)] (y)
     2 mom_flux (W, centre) *)
let%kernel mom_flux_acc (a : Acc.t array) =
  let f = get a.(0) 0 in
  let upwind = if f > 0.0 then 0 else 1 in
  set a.(2) (f *. get a.(1) upwind)
[@@args node [(0,0)] 1 Read, node [(-1,0); (0,0)] 1 Read, node [(0,0)] 1 Write]
[@@args node [(0,0)] 1 Read, node [(0,-1); (0,0)] 1 Read, node [(0,0)] 1 Write]

(* Stage 4: velocity update.
   args:
     0 node_flux [(0,0);(1,0)] (x) or [(0,0);(0,1)] (y)
     1 mom_flux same
     2 node_mass_post (R, centre)
     3 vel (Rw, centre) *)
let%kernel mom_vel_acc (a : Acc.t array) =
  let nf = a.(0) and mf = a.(1) in
  let mass_post = get a.(2) 0 in
  let vel = a.(3) in
  (* Mass before this sweep's advection: post + net outflow. *)
  let mass_pre = mass_post +. get nf 1 -. get nf 0 in
  set vel (((get vel 0 *. mass_pre) +. get mf 0 -. get mf 1) /. mass_post)
[@@args node [(0,0); (1,0)] 1 Read, node [(0,0); (1,0)] 1 Read, node [(0,0)] 1 Read, node [(0,0)] 1 Rw]
[@@args node [(0,0); (0,1)] 1 Read, node [(0,0); (0,1)] 1 Read, node [(0,0)] 1 Read, node [(0,0)] 1 Rw]

let advec_mom_info = { Am_core.Descr.flops = 8.0; transcendentals = 0.0 }

(* reset_field: copy the time levels back. args: src (R), dst (W). *)
let%kernel reset_field_acc (a : Acc.t array) = set a.(1) (get a.(0) 0)
[@@args f [(0,0)] 1 Read, f [(0,0)] 1 Write]

let reset_field_info = { Am_core.Descr.flops = 0.0; transcendentals = 0.0 }

(* Wall zeroing of a velocity component. args: vel (W). *)
let%kernel zero_acc (a : Acc.t array) = set a.(0) 0.0
[@@args v [(0,0)] 1 Write]

(* field_summary reductions.
   args:
     0 density0 (R), 1 energy0 (R), 2 pressure (R)
     3 xvel0 quad (nodes around cell), 4 yvel0 quad
     5 consts (R gbl: [volume])
     6 sums (Inc gbl: [vol; mass; internal energy; kinetic energy; pressure]) *)
let%kernel field_summary_acc (a : Acc.t array) =
  let density = get a.(0) 0 and energy = get a.(1) 0 and pressure = get a.(2) 0 in
  let xv = a.(3) and yv = a.(4) in
  let volume = gbl a.(5) 0 in
  let sums = a.(6) in
  let vsqrd =
    0.25
    *. (((get xv 0 *. get xv 0) +. (get xv 1 *. get xv 1) +. (get xv 2 *. get xv 2)
         +. (get xv 3 *. get xv 3))
        +. ((get yv 0 *. get yv 0) +. (get yv 1 *. get yv 1) +. (get yv 2 *. get yv 2)
            +. (get yv 3 *. get yv 3)))
  in
  let cell_mass = density *. volume in
  set_gbl sums 0 (gbl sums 0 +. volume);
  set_gbl sums 1 (gbl sums 1 +. cell_mass);
  set_gbl sums 2 (gbl sums 2 +. (cell_mass *. energy));
  set_gbl sums 3 (gbl sums 3 +. (0.5 *. cell_mass *. vsqrd));
  set_gbl sums 4 (gbl sums 4 +. (volume *. pressure))
[@@args
  cell [(0,0)] 1 Read, cell [(0,0)] 1 Read, cell [(0,0)] 1 Read, node [(0,0); (1,0); (0,1); (1,1)] 1 Read,
  node [(0,0); (1,0); (0,1); (1,1)] 1 Read, gbl 1 Read, gbl 5 Inc]

let field_summary_info = { Am_core.Descr.flops = 26.0; transcendentals = 0.0 }

(* ---- Second-order (van Leer) advection --------------------------------- *)

(* The published CloverLeaf uses van Leer slope limiting on its donor-cell
   fluxes; the first-order kernels above keep the same loop structure with
   the limiter dropped.  Both are selectable in [App] (the ablation harness
   compares them). Uniform grid: the vertex-spacing ratios of the original
   reduce to 1. *)
let[@inline] van_leer_limited ~sigma ~upwind ~donor ~downwind =
  let diffuw = donor -. upwind in
  let diffdw = downwind -. donor in
  if diffuw *. diffdw > 0.0 then begin
    let sigma3 = 1.0 +. sigma in
    let sigma4 = 2.0 -. sigma in
    let magnitude =
      Float.min
        (Float.min (Float.abs diffuw) (Float.abs diffdw))
        (((sigma3 *. Float.abs diffuw) +. (sigma4 *. Float.abs diffdw)) /. 6.0)
    in
    (1.0 -. sigma) *. (if diffdw >= 0.0 then magnitude else -.magnitude)
  end
  else 0.0

(* Van Leer donor fluxes through x-faces.
   args:
     0 vol_flux_x (R, centre on faces)
     1 density1 [(-2,0);(-1,0);(0,0);(1,0)]
     2 energy1  same
     3 pre_vol  [(-1,0);(0,0)] (donor candidates)
     4 mass_flux_x (W), 5 ener_flux_x (W)
   The same function serves the y direction with the stencils rotated. *)
let%kernel advec_flux_vanleer_acc (a : Acc.t array) =
  let vf = get a.(0) 0 in
  let d = a.(1) and e = a.(2) in
  (* Stencil points: 0 = -2, 1 = -1, 2 = 0, 3 = +1 (in the sweep axis). *)
  let positive = vf > 0.0 in
  let upw = if positive then 0 else 3 in
  let don = if positive then 1 else 2 in
  let dnw = if positive then 2 else 1 in
  let pre_don = get a.(3) (if positive then 0 else 1) in
  let sigmat = Float.abs vf /. pre_don in
  let lim_d =
    van_leer_limited ~sigma:sigmat ~upwind:(get d upw) ~donor:(get d don)
      ~downwind:(get d dnw)
  in
  let mf = vf *. (get d don +. lim_d) in
  set a.(4) mf;
  let sigmam = Float.abs mf /. (get d don *. pre_don) in
  let lim_e =
    van_leer_limited ~sigma:sigmam ~upwind:(get e upw) ~donor:(get e don)
      ~downwind:(get e dnw)
  in
  set a.(5) (mf *. (get e don +. lim_e))
[@@args
  face [(0,0)] 1 Read, cell [(-2,0); (-1,0); (0,0); (1,0)] 1 Read,
  cell [(-2,0); (-1,0); (0,0); (1,0)] 1 Read, cell [(-1,0); (0,0)] 1 Read,
  face [(0,0)] 1 Write, face [(0,0)] 1 Write]
[@@args
  face [(0,0)] 1 Read, cell [(0,-2); (0,-1); (0,0); (0,1)] 1 Read,
  cell [(0,-2); (0,-1); (0,0); (0,1)] 1 Read, cell [(0,-1); (0,0)] 1 Read,
  face [(0,0)] 1 Write, face [(0,0)] 1 Write]

let advec_flux_vanleer_info = { Am_core.Descr.flops = 34.0; transcendentals = 0.0 }

(* Hydra-sim kernels.

   Rolls-Royce Hydra is closed source, so this is a synthetic stand-in with
   the structural properties the paper relies on when arguing that Airfoil's
   insights transfer (Section IV):

   - a RANS-like state of 6 components per cell (flow + 2 turbulence
     variables) instead of Airfoil's 4;
   - many more distinct loops per iteration (gradients, viscous and
     inviscid fluxes, sources, 5 Runge-Kutta stages, a 2-level multigrid
     cycle) — "moves many times more data per grid point ... and carries
     out more complex computations";
   - the same access-execute patterns (direct cell loops, edge loops with
     indirect increments, boundary loops), so every backend and optimisation
     of the library is exercised at production shape.

   The arithmetic is deliberately dissipative (fluxes and sources relax the
   state towards the free stream), giving stable, deterministic dynamics
   whose exactness across backends the tests assert.

   Each kernel is a [let%elem_kernel] over argument accessors ([Op2.Acc])
   with its argument signature ([@@args], as App's arguments state them),
   as Airfoil's are: [Op2.par_loop_acc] runs its generated element walker,
   and [Hand.run_loop] its point form ([.Acc.elem]).  An [Inc] dataset
   named by a computed component ([for n = 0 to n_state - 1]) takes the
   walker's zeroed scratch, one named only by literals float locals.  The
   kernels follow the hot-kernel rule of [Am_airfoil.Kernels]:
   module-local [@inline] accessors, helpers that take floats, and no
   local closures over floats, so no per-element allocation under
   [-opaque] without flambda. *)

module Acc = Am_op2.Op2.Acc

let[@inline] get (a : Acc.t) i = a.Acc.data.(a.Acc.base + i)
let[@inline] set (a : Acc.t) i v = a.Acc.data.(a.Acc.base + i) <- v

let n_state = 6

(* Free-stream state the dynamics relax towards. *)
let qinf = [| 1.0; 0.5; 0.0; 2.0; 0.05; 0.4 |]

let%elem_kernel save_state_acc (a : Acc.t array) =
  let q = a.(0) and qold = a.(1) in
  for n = 0 to n_state - 1 do
    set qold n (get q n)
  done
[@@args q 6 Read, qold 6 Write]

let save_state_info = { Am_core.Descr.flops = 0.0; transcendentals = 0.0 }

(* [acc] plus the wave-speed bound of the face from node b to node a,
   given dx = xa - xb and dy = ya - yb. *)
let[@inline] add_face acc u v c dx dy =
  acc +. Float.abs ((u *. dy) -. (v *. dx)) +. (c *. sqrt ((dx *. dx) +. (dy *. dy)))

(* Local timestep from cell geometry and state (sqrt-heavy, like adt_calc):
   the four faces in turn, node k to node k + 1 mod 4.
   args: x1 x2 x3 x4 (R via cell->node), q (R), adt (W). *)
let%elem_kernel calc_dt_acc (a : Acc.t array) =
  let x1 = a.(0) and x2 = a.(1) and x3 = a.(2) and x4 = a.(3) in
  let q = a.(4) and adt = a.(5) in
  let ri = 1.0 /. Float.max 1e-6 (get q 0) in
  let u = ri *. get q 1 and v = ri *. get q 2 in
  let c =
    sqrt (Float.max 1e-12 (0.56 *. ((ri *. get q 3) -. (0.5 *. ((u *. u) +. (v *. v))))))
  in
  let acc = add_face 0.0 u v c (get x1 0 -. get x2 0) (get x1 1 -. get x2 1) in
  let acc = add_face acc u v c (get x2 0 -. get x3 0) (get x2 1 -. get x3 1) in
  let acc = add_face acc u v c (get x3 0 -. get x4 0) (get x3 1 -. get x4 1) in
  let acc = add_face acc u v c (get x4 0 -. get x1 0) (get x4 1 -. get x1 1) in
  set adt 0 (acc /. 0.9)
[@@args
  x (cell_nodes 4 0) 2 Read, x (cell_nodes 4 1) 2 Read, x (cell_nodes 4 2) 2 Read,
  x (cell_nodes 4 3) 2 Read, q 6 Read, adt 1 Write]

let calc_dt_info = { Am_core.Descr.flops = 45.0; transcendentals = 6.0 }

(* Zero the gradient accumulator. args: grad (W, dim 12). *)
let%elem_kernel grad_zero_acc (a : Acc.t array) =
  for i = 0 to (2 * n_state) - 1 do
    set a.(0) i 0.0
  done
[@@args grad 12 Write]

let grad_zero_info = { Am_core.Descr.flops = 0.0; transcendentals = 0.0 }

(* Edge-based gradient accumulation (Green-Gauss).
   args: x1 x2 (R via edge->node), q1 q2 (R via edge->cell),
         grad1 grad2 (Inc via edge->cell, dim 12). *)
let%elem_kernel grad_accum_acc (a : Acc.t array) =
  let x1 = a.(0) and x2 = a.(1) in
  let q1 = a.(2) and q2 = a.(3) in
  let g1 = a.(4) and g2 = a.(5) in
  let dx = get x1 0 -. get x2 0 and dy = get x1 1 -. get x2 1 in
  for n = 0 to n_state - 1 do
    let avg = 0.5 *. (get q1 n +. get q2 n) in
    set g1 (2 * n) (get g1 (2 * n) +. (avg *. dy));
    set g1 ((2 * n) + 1) (get g1 ((2 * n) + 1) -. (avg *. dx));
    set g2 (2 * n) (get g2 (2 * n) -. (avg *. dy));
    set g2 ((2 * n) + 1) (get g2 ((2 * n) + 1) +. (avg *. dx))
  done
[@@args
  x (edge_nodes 2 0) 2 Read, x (edge_nodes 2 1) 2 Read, q (edge_cells 2 0) 6 Read,
  q (edge_cells 2 1) 6 Read, grad (edge_cells 2 0) 12 Inc, grad (edge_cells 2 1) 12 Inc]

let grad_accum_info = { Am_core.Descr.flops = 48.0; transcendentals = 0.0 }

(* Normalise gradients by (approximate) cell volume. args: adt (R), grad (Rw). *)
let%elem_kernel grad_scale_acc (a : Acc.t array) =
  let adt = a.(0) and grad = a.(1) in
  let scale = 1.0 /. (1.0 +. get adt 0) in
  for i = 0 to (2 * n_state) - 1 do
    set grad i (get grad i *. scale)
  done
[@@args adt 1 Read, grad 12 Rw]

let grad_scale_info = { Am_core.Descr.flops = 14.0; transcendentals = 0.0 }

(* Inviscid (central + dissipation) edge flux.
   args: x1 x2 (R), q1 q2 (R), adt1 adt2 (R), res1 res2 (Inc). *)
let%elem_kernel flux_inviscid_acc (a : Acc.t array) =
  let x1 = a.(0) and x2 = a.(1) in
  let q1 = a.(2) and q2 = a.(3) in
  let adt1 = a.(4) and adt2 = a.(5) in
  let r1 = a.(6) and r2 = a.(7) in
  let dx = get x1 0 -. get x2 0 and dy = get x1 1 -. get x2 1 in
  let ri1 = 1.0 /. Float.max 1e-6 (get q1 0) and ri2 = 1.0 /. Float.max 1e-6 (get q2 0) in
  let vol1 = ri1 *. ((get q1 1 *. dy) -. (get q1 2 *. dx)) in
  let vol2 = ri2 *. ((get q2 1 *. dy) -. (get q2 2 *. dx)) in
  let mu = 0.05 *. (get adt1 0 +. get adt2 0) in
  for n = 0 to n_state - 1 do
    let f =
      (0.5 *. ((vol1 *. get q1 n) +. (vol2 *. get q2 n))) +. (mu *. (get q1 n -. get q2 n))
    in
    set r1 n (get r1 n +. f);
    set r2 n (get r2 n -. f)
  done
[@@args
  x (edge_nodes 2 0) 2 Read, x (edge_nodes 2 1) 2 Read, q (edge_cells 2 0) 6 Read,
  q (edge_cells 2 1) 6 Read, adt (edge_cells 2 0) 1 Read, adt (edge_cells 2 1) 1 Read,
  res (edge_cells 2 0) 6 Inc, res (edge_cells 2 1) 6 Inc]

let flux_inviscid_info = { Am_core.Descr.flops = 90.0; transcendentals = 0.0 }

(* Viscous edge flux from state and gradient jumps.
   args: q1 q2 (R), grad1 grad2 (R, dim 12), res1 res2 (Inc). *)
let%elem_kernel flux_viscous_acc (a : Acc.t array) =
  let q1 = a.(0) and q2 = a.(1) in
  let g1 = a.(2) and g2 = a.(3) in
  let r1 = a.(4) and r2 = a.(5) in
  (* Effective viscosity grows with the turbulence variables. *)
  let mu = 0.02 +. (0.1 *. 0.5 *. (get q1 4 +. get q2 4 +. get q1 5 +. get q2 5)) in
  (* Sign convention: residuals are *subtracted* in the RK update
     (q = qold - fac*res), so a diffusive flux contributes (q1 - q2) to r1:
     the high cell loses, the low cell gains. *)
  for n = 0 to n_state - 1 do
    let gjump =
      0.5
      *. ((get g1 (2 * n) -. get g2 (2 * n)) +. (get g1 ((2 * n) + 1) -. get g2 ((2 * n) + 1)))
    in
    let f = mu *. ((get q1 n -. get q2 n) +. (0.1 *. gjump)) in
    set r1 n (get r1 n +. f);
    set r2 n (get r2 n -. f)
  done
[@@args
  q (edge_cells 2 0) 6 Read, q (edge_cells 2 1) 6 Read, grad (edge_cells 2 0) 12 Read,
  grad (edge_cells 2 1) 12 Read, res (edge_cells 2 0) 6 Inc, res (edge_cells 2 1) 6 Inc]

let flux_viscous_info = { Am_core.Descr.flops = 72.0; transcendentals = 0.0 }

(* Boundary relaxation towards the free stream.
   args: x1 x2 (R via bedge->node), q1 (R), res1 (Inc), bound (R direct). *)
let%elem_kernel flux_boundary_acc (a : Acc.t array) =
  let x1 = a.(0) and x2 = a.(1) in
  let q1 = a.(2) and r1 = a.(3) in
  let bound = a.(4) in
  let dx = get x1 0 -. get x2 0 and dy = get x1 1 -. get x2 1 in
  let len = sqrt ((dx *. dx) +. (dy *. dy)) in
  let strength =
    if Float.to_int (get bound 0) = Am_mesh.Umesh.boundary_wall then 0.1 else 0.5
  in
  (* Residuals are subtracted in the update, so relaxation *towards* the
     free stream contributes (q - qinf). *)
  for n = 0 to n_state - 1 do
    set r1 n (get r1 n +. (strength *. len *. (get q1 n -. qinf.(n))))
  done
[@@args
  x (bedge_nodes 2 0) 2 Read, x (bedge_nodes 2 1) 2 Read, q (bedge_cell 1 0) 6 Read,
  res (bedge_cell 1 0) 6 Inc, bound 1 Read]

let flux_boundary_info = { Am_core.Descr.flops = 30.0; transcendentals = 1.0 }

(* Turbulence-like source terms (transcendental-heavy cell loop).
   args: q (R), grad (R), res (Inc). *)
let%elem_kernel source_acc (a : Acc.t array) =
  let q = a.(0) and grad = a.(1) and res = a.(2) in
  let k = Float.max 1e-9 (get q 4) and om = Float.max 1e-9 (get q 5) in
  let production =
    0.01 *. sqrt (k *. om)
    *. ((get grad 2 *. get grad 2) +. (get grad 4 *. get grad 4) +. (get grad 3 *. get grad 5))
  in
  let dissipation_k = 0.09 *. k *. om in
  let dissipation_om = 0.075 *. om *. om in
  (* Residuals are subtracted in the update: dissipation terms enter with a
     positive sign (they decay k and omega), production with a negative. *)
  set res 4 (get res 4 +. dissipation_k -. production);
  set res 5 (get res 5 +. dissipation_om -. (0.5 *. production /. Float.max 1e-6 k *. om))
[@@args q 6 Read, grad 12 Read, res 6 Inc]

let source_info = { Am_core.Descr.flops = 28.0; transcendentals = 2.0 }

(* One Runge-Kutta stage: q = qold - (alpha/adt) * res, residual reset;
   the final stage also accumulates the RMS update.
   args: qold (R), q (W), res (Rw), adt (R), alpha (R gbl), rms (Inc gbl). *)
let%elem_kernel rk_stage_acc (a : Acc.t array) =
  let qold = a.(0) and q = a.(1) and res = a.(2) in
  let adt = a.(3) and alpha = a.(4) and rms = a.(5) in
  let fac = get alpha 0 /. get adt 0 in
  for n = 0 to n_state - 1 do
    let del = fac *. get res n in
    set q n (get qold n -. del);
    set res n 0.0;
    set rms 0 (get rms 0 +. (del *. del))
  done
[@@args qold 6 Read, q 6 Write, res 6 Rw, adt 1 Read, gbl 1 Read, gbl 1 Inc]

let rk_stage_info = { Am_core.Descr.flops = 30.0; transcendentals = 0.0 }

(* ---- Multigrid ---- *)

(* Restrict the fine update onto the coarse level.
   args: q (R), qold (R), coarse_r (Inc via fine->coarse map, dim 6). *)
let%elem_kernel mg_restrict_acc (a : Acc.t array) =
  let q = a.(0) and qold = a.(1) and cr = a.(2) in
  for n = 0 to n_state - 1 do
    set cr n (get cr n +. (0.25 *. (get q n -. get qold n)))
  done
[@@args q 6 Read, qold 6 Read, coarse (fine_to_coarse 1 0) 6 Inc]

let mg_restrict_info = { Am_core.Descr.flops = 18.0; transcendentals = 0.0 }

(* Jacobi smoothing, edge accumulation: acc += neighbour correction.
   args: corr1 corr2 (R via coarse edge->cell), acc1 acc2 (Inc). *)
let%elem_kernel mg_smooth_edge_acc (a : Acc.t array) =
  let c1 = a.(0) and c2 = a.(1) in
  let a1 = a.(2) and a2 = a.(3) in
  for n = 0 to n_state - 1 do
    set a1 n (get a1 n +. get c2 n);
    set a2 n (get a2 n +. get c1 n)
  done
[@@args
  corr (coarse_edge_cells 2 0) 6 Read, corr (coarse_edge_cells 2 1) 6 Read,
  acc (coarse_edge_cells 2 0) 6 Inc, acc (coarse_edge_cells 2 1) 6 Inc]

let mg_smooth_edge_info = { Am_core.Descr.flops = 12.0; transcendentals = 0.0 }

(* Jacobi smoothing, cell update: corr = 0.5*(r + acc/4); acc reset.
   args: coarse_r (R), acc (Rw), corr (W). *)
let%elem_kernel mg_smooth_cell_acc (a : Acc.t array) =
  let r = a.(0) and acc = a.(1) and corr = a.(2) in
  for n = 0 to n_state - 1 do
    set corr n (0.5 *. (get r n +. (0.25 *. get acc n)));
    set acc n 0.0
  done
[@@args r 6 Read, acc 6 Rw, corr 6 Write]

let mg_smooth_cell_info = { Am_core.Descr.flops = 18.0; transcendentals = 0.0 }

(* Prolong the smoothed coarse correction back to the fine level.
   args: corr (R via fine->coarse), q (Rw). *)
let%elem_kernel mg_prolong_acc (a : Acc.t array) =
  let corr = a.(0) and q = a.(1) in
  for n = 0 to n_state - 1 do
    set q n (get q n +. (0.2 *. get corr n))
  done
[@@args corr (fine_to_coarse 1 0) 6 Read, q 6 Rw]

let mg_prolong_info = { Am_core.Descr.flops = 12.0; transcendentals = 0.0 }

(* Zero a coarse accumulator. args: dat (W, dim 6). *)
let%elem_kernel zero6_acc (a : Acc.t array) =
  for n = 0 to n_state - 1 do
    set a.(0) n 0.0
  done
[@@args d 6 Write]

let zero6_info = { Am_core.Descr.flops = 0.0; transcendentals = 0.0 }

(* Runge-Kutta stage coefficients (5-stage, as Hydra's default scheme). *)
let rk_alphas = [| 0.0533; 0.1263; 0.2375; 0.4414; 1.0 |]

(* The five Airfoil kernels (Giles et al.), reimplemented from the published
   OP2 test case: a non-linear 2D inviscid Euler solver on an unstructured
   quad mesh, cell-centred state q = (rho, rho*u, rho*v, rho*E), explicit
   time stepping with local timesteps (adt) and artificial dissipation.

   Each kernel is written once, over argument accessors ([Op2.Acc]: the
   zero-copy ABI), as a [let%elem_kernel] with its argument signature
   ([@@args]: per argument a dataset label, its map, arity and slot when
   indirect, its dim and access mode, as App's arguments state them).
   The rewriter (lib/ppx_kernel) binds it to a kernel value whose point
   form is the function as written and whose element walker runs the body
   inlined over an element range with those dims, arities and slots as
   constants: one map load per (map, slot) per element, the Incs and
   [rms] in float locals.  [Op2.par_loop_acc] takes the value and checks
   each call's arguments against the signature; [dune describe pp
   lib/apps_airfoil/kernels.ml] shows the expansion.  The staged form
   that [Op2.par_loop] takes is a one-line adapter over the point form.
   The hand-coded baseline ([Hand]) re-implements the same arithmetic
   over flat arrays, in the same operation order, so "Original" and "OP2"
   runs agree to rounding and the comparisons isolate the framework, not
   the maths.

   The kernels are hot and the library is compiled with [-opaque] and
   without flambda, so a float that crosses a call boundary is boxed.
   Hence the module-local [@inline] accessors, and no local closures
   capturing floats: helpers are top-level [@inline] functions, and they
   take floats, since the rewriter refuses an accessor passed to a
   function. *)

module Acc = Am_op2.Op2.Acc

let[@inline] get (a : Acc.t) i = a.Acc.data.(a.Acc.base + i)
let[@inline] set (a : Acc.t) i v = a.Acc.data.(a.Acc.base + i) <- v

let gam = 1.4
let gm1 = gam -. 1.0
let cfl = 0.9
let eps = 0.05

(* Free-stream state for Mach 0.4 flow, as in the OP2 test case. *)
let qinf =
  let mach = 0.4 in
  let p = 1.0 and r = 1.0 in
  let u = sqrt (gam *. p /. r) *. mach in
  let e = (p /. (r *. gm1)) +. (0.5 *. u *. u) in
  [| r; r *. u; 0.0; r *. e |]

(* save_soln: qold <- q (direct over cells). *)
let%elem_kernel save_soln_acc (a : Acc.t array) =
  let q = a.(0) and qold = a.(1) in
  for n = 0 to 3 do
    set qold n (get q n)
  done
[@@args q 4 Read, qold 4 Write]

let save_soln = Acc.staged save_soln_acc.Acc.elem
let save_soln_info = { Am_core.Descr.flops = 0.0; transcendentals = 0.0 }

(* Wave-speed bound of the face from node b to node a, given
   dx = xa - xb and dy = ya - yb. *)
let[@inline] face u v c dx dy =
  Float.abs ((u *. dy) -. (v *. dx)) +. (c *. sqrt ((dx *. dx) +. (dy *. dy)))

(* adt_calc: local timestep of a cell from its four corner nodes.
   args: x1 x2 x3 x4 (R, via cell->node), q (R, direct), adt (W, direct). *)
let%elem_kernel adt_calc_acc (a : Acc.t array) =
  let x1 = a.(0) and x2 = a.(1) and x3 = a.(2) and x4 = a.(3) in
  let q = a.(4) and adt = a.(5) in
  let ri = 1.0 /. get q 0 in
  let u = ri *. get q 1 and v = ri *. get q 2 in
  let c = sqrt (gam *. gm1 *. ((ri *. get q 3) -. (0.5 *. ((u *. u) +. (v *. v))))) in
  let acc =
    face u v c (get x2 0 -. get x1 0) (get x2 1 -. get x1 1)
    +. face u v c (get x3 0 -. get x2 0) (get x3 1 -. get x2 1)
    +. face u v c (get x4 0 -. get x3 0) (get x4 1 -. get x3 1)
    +. face u v c (get x1 0 -. get x4 0) (get x1 1 -. get x4 1)
  in
  set adt 0 (acc /. cfl)
[@@args
  x (cell_nodes 4 0) 2 Read, x (cell_nodes 4 1) 2 Read, x (cell_nodes 4 2) 2 Read,
  x (cell_nodes 4 3) 2 Read, q 4 Read, adt 1 Write]

let adt_calc = Acc.staged adt_calc_acc.Acc.elem
let adt_calc_info = { Am_core.Descr.flops = 40.0; transcendentals = 5.0 }

(* res_calc: flux through an interior edge.
   args: x1 x2 (R, edge->node), q1 q2 (R, edge->cell), adt1 adt2 (R,
   edge->cell), res1 res2 (Inc, edge->cell). *)
let%elem_kernel res_calc_acc (a : Acc.t array) =
  let x1 = a.(0) and x2 = a.(1) in
  let q1 = a.(2) and q2 = a.(3) in
  let adt1 = a.(4) and adt2 = a.(5) in
  let res1 = a.(6) and res2 = a.(7) in
  let dx = get x1 0 -. get x2 0 and dy = get x1 1 -. get x2 1 in
  let ri1 = 1.0 /. get q1 0 in
  let p1 =
    gm1 *. (get q1 3 -. (0.5 *. ri1 *. ((get q1 1 *. get q1 1) +. (get q1 2 *. get q1 2))))
  in
  let vol1 = ri1 *. ((get q1 1 *. dy) -. (get q1 2 *. dx)) in
  let ri2 = 1.0 /. get q2 0 in
  let p2 =
    gm1 *. (get q2 3 -. (0.5 *. ri2 *. ((get q2 1 *. get q2 1) +. (get q2 2 *. get q2 2))))
  in
  let vol2 = ri2 *. ((get q2 1 *. dy) -. (get q2 2 *. dx)) in
  let mu = 0.5 *. (get adt1 0 +. get adt2 0) *. eps in
  let f0 =
    (0.5 *. ((vol1 *. get q1 0) +. (vol2 *. get q2 0))) +. (mu *. (get q1 0 -. get q2 0))
  in
  let f1 =
    (0.5 *. ((vol1 *. get q1 1) +. (vol2 *. get q2 1)))
    +. (mu *. (get q1 1 -. get q2 1))
    +. (0.5 *. ((p1 +. p2) *. dy))
  in
  let f2 =
    (0.5 *. ((vol1 *. get q1 2) +. (vol2 *. get q2 2)))
    +. (mu *. (get q1 2 -. get q2 2))
    -. (0.5 *. ((p1 +. p2) *. dx))
  in
  let f3 =
    (0.5 *. ((vol1 *. (get q1 3 +. p1)) +. (vol2 *. (get q2 3 +. p2))))
    +. (mu *. (get q1 3 -. get q2 3))
  in
  set res1 0 (get res1 0 +. f0);
  set res2 0 (get res2 0 -. f0);
  set res1 1 (get res1 1 +. f1);
  set res2 1 (get res2 1 -. f1);
  set res1 2 (get res1 2 +. f2);
  set res2 2 (get res2 2 -. f2);
  set res1 3 (get res1 3 +. f3);
  set res2 3 (get res2 3 -. f3)
[@@args
  x (edge_nodes 2 0) 2 Read, x (edge_nodes 2 1) 2 Read, q (edge_cells 2 0) 4 Read,
  q (edge_cells 2 1) 4 Read, adt (edge_cells 2 0) 1 Read, adt (edge_cells 2 1) 1 Read,
  res (edge_cells 2 0) 4 Inc, res (edge_cells 2 1) 4 Inc]

let res_calc = Acc.staged res_calc_acc.Acc.elem
let res_calc_info = { Am_core.Descr.flops = 78.0; transcendentals = 0.0 }

(* bres_calc: flux through a boundary edge.
   args: x1 x2 (R, bedge->node), q1 adt1 (R, bedge->cell), res1 (Inc,
   bedge->cell), bound (R, direct). Wall boundaries contribute only the
   pressure term; far-field boundaries flux against the free stream. *)
let%elem_kernel bres_calc_acc (a : Acc.t array) =
  let x1 = a.(0) and x2 = a.(1) in
  let q1 = a.(2) and adt1 = a.(3) and res1 = a.(4) in
  let bound = a.(5) in
  let dx = get x1 0 -. get x2 0 and dy = get x1 1 -. get x2 1 in
  let ri1 = 1.0 /. get q1 0 in
  let p1 =
    gm1 *. (get q1 3 -. (0.5 *. ri1 *. ((get q1 1 *. get q1 1) +. (get q1 2 *. get q1 2))))
  in
  if Float.to_int (get bound 0) = Am_mesh.Umesh.boundary_wall then begin
    set res1 1 (get res1 1 +. (p1 *. dy));
    set res1 2 (get res1 2 -. (p1 *. dx))
  end
  else begin
    let vol1 = ri1 *. ((get q1 1 *. dy) -. (get q1 2 *. dx)) in
    let ri2 = 1.0 /. qinf.(0) in
    let p2 =
      gm1 *. (qinf.(3) -. (0.5 *. ri2 *. ((qinf.(1) *. qinf.(1)) +. (qinf.(2) *. qinf.(2)))))
    in
    let vol2 = ri2 *. ((qinf.(1) *. dy) -. (qinf.(2) *. dx)) in
    let mu = get adt1 0 *. eps in
    let f0 =
      (0.5 *. ((vol1 *. get q1 0) +. (vol2 *. qinf.(0)))) +. (mu *. (get q1 0 -. qinf.(0)))
    in
    let f1 =
      (0.5 *. ((vol1 *. get q1 1) +. (vol2 *. qinf.(1))))
      +. (0.5 *. ((p1 +. p2) *. dy))
      +. (mu *. (get q1 1 -. qinf.(1)))
    in
    let f2 =
      (0.5 *. ((vol1 *. get q1 2) +. (vol2 *. qinf.(2))))
      -. (0.5 *. ((p1 +. p2) *. dx))
      +. (mu *. (get q1 2 -. qinf.(2)))
    in
    let f3 =
      (0.5 *. ((vol1 *. (get q1 3 +. p1)) +. (vol2 *. (qinf.(3) +. p2))))
      +. (mu *. (get q1 3 -. qinf.(3)))
    in
    set res1 0 (get res1 0 +. f0);
    set res1 1 (get res1 1 +. f1);
    set res1 2 (get res1 2 +. f2);
    set res1 3 (get res1 3 +. f3)
  end
[@@args
  x (bedge_nodes 2 0) 2 Read, x (bedge_nodes 2 1) 2 Read, q (bedge_cell 1 0) 4 Read,
  adt (bedge_cell 1 0) 1 Read, res (bedge_cell 1 0) 4 Inc, bound 1 Read]

let bres_calc = Acc.staged bres_calc_acc.Acc.elem
let bres_calc_info = { Am_core.Descr.flops = 60.0; transcendentals = 0.0 }

(* update: explicit step with the local timestep, residual reset and RMS
   accumulation. args: qold (R), q (W), res (Rw), adt (R), rms (Inc gbl). *)
let%elem_kernel update_acc (a : Acc.t array) =
  let qold = a.(0) and q = a.(1) and res = a.(2) in
  let adt = a.(3) and rms = a.(4) in
  let adti = 1.0 /. get adt 0 in
  for n = 0 to 3 do
    let del = adti *. get res n in
    set q n (get qold n -. del);
    set res n 0.0;
    set rms 0 (get rms 0 +. (del *. del))
  done
[@@args qold 4 Read, q 4 Write, res 4 Rw, adt 1 Read, gbl 1 Inc]

let update = Acc.staged update_acc.Acc.elem
let update_info = { Am_core.Descr.flops = 16.0; transcendentals = 0.0 }

(* TeaLeaf-sim: implicit 3D heat conduction solved with conjugate gradients
   on the Ops3 API.

   TeaLeaf is another UK Mini-App Consortium proxy (the suite the paper
   cites alongside CloverLeaf): a linear heat-conduction solve per time
   step, dominated by sparse matrix-vector products (here the 7-point
   stencil), dot-product reductions and axpy updates — a very different
   loop profile from CloverLeaf's hydro cycle (reduction-heavy, iterative)
   that exercises the structured abstraction's global reductions hard.

   Backward-Euler step for u_t = div(k grad u):
     (I - dt * L_k) u^{n+1} = u^n
   solved by CG with the 7-point variable-coefficient Laplacian; face
   conductivities are harmonic means of cell conductivities, zero-flux
   boundaries via zero ghost conductivity. *)

module Ops3 = Am_ops.Ops3
module Access = Am_core.Access
module Acc = Am_core.Acc

type t = {
  ctx : Ops3.ctx;
  grid : Ops3.block;
  n : int;
  dt : float;
  u : Ops3.dat; (* temperature *)
  kappa : Ops3.dat; (* cell conductivity *)
  r : Ops3.dat; (* CG residual *)
  p : Ops3.dat; (* CG search direction *)
  w : Ops3.dat; (* A p *)
  mutable cg_iterations : int; (* total over the run *)
}

let matvec_info = { Am_core.Descr.flops = 30.0; transcendentals = 0.0 }
let dot_info = { Am_core.Descr.flops = 2.0; transcendentals = 0.0 }
let axpy_info = { Am_core.Descr.flops = 4.0; transcendentals = 0.0 }

let create ?backend ?(n = 16) ?(dt = 0.5) () =
  let ctx = Ops3.create ?backend () in
  let grid = Ops3.decl_block ctx ~name:"tea_grid" in
  let field name = Ops3.decl_dat ctx ~name ~block:grid ~xsize:n ~ysize:n ~zsize:n () in
  let t =
    {
      ctx;
      grid;
      n;
      dt;
      u = field "u";
      kappa = field "kappa";
      r = field "r";
      p = field "p";
      w = field "w";
      cg_iterations = 0;
    }
  in
  (* A hot corner region and spatially varying conductivity (TeaLeaf's
     standard two-state setup); ghost conductivity zero = insulated walls. *)
  Ops3.init ctx t.u (fun x y z _ ->
      if x < n / 3 && y < n / 3 && z < n / 3 then 10.0 else 0.1);
  Ops3.init ctx t.kappa (fun x y z _ ->
      let inside c = c >= 0 && c < n in
      if inside x && inside y && inside z then
        if (x + y + z) mod 7 < 4 then 1.0 else 0.1
      else 0.0);
  t

(* The loops run the declared kernels of [Kernels] (one range walker each,
   every dataset in place) and pass no handle: each call finds its entry
   in the context's call-site table. *)

(* The staged form of [Kernels.matvec_acc], for callers of [Ops3.par_loop]:
   args p (R, 7pt), kappa (R, 7pt), w (W, centre), consts gbl [dt]. *)
let matvec_kernel bufs = Kernels.matvec_acc.Acc.point (Array.map (Acc.of_buffer ~dim:1) bufs)

let dot t a b =
  let acc = [| 0.0 |] in
  Ops3.par_loop_acc t.ctx ~name:"cg_dot" ~info:dot_info t.grid (Ops3.interior t.u)
    [
      Ops3.arg_dat a Ops3.stencil_point Access.Read;
      Ops3.arg_dat b Ops3.stencil_point Access.Read;
      Ops3.arg_gbl ~name:"dot" acc Access.Inc;
    ]
    Kernels.dot_acc;
  acc.(0)

let matvec t ~src ~dst =
  Ops3.par_loop_acc t.ctx ~name:"cg_matvec" ~info:matvec_info t.grid (Ops3.interior t.u)
    [
      Ops3.arg_dat src Ops3.stencil_7pt Access.Read;
      Ops3.arg_dat t.kappa Ops3.stencil_7pt Access.Read;
      Ops3.arg_dat dst Ops3.stencil_point Access.Write;
      Ops3.arg_gbl ~name:"dt" [| t.dt |] Access.Read;
    ]
    Kernels.matvec_acc

(* dst := a + alpha * b (centre-only).  When [dst] is [a] or [b] that
   operand is the loop's one [Rw] argument, so the walker runs in place. *)
let axpy t ~a ~alpha ~b ~dst =
  let point d = Ops3.arg_dat d Ops3.stencil_point in
  let alpha = Ops3.arg_gbl ~name:"alpha" [| alpha |] Access.Read in
  let loop args k =
    Ops3.par_loop_acc t.ctx ~name:"cg_axpy" ~info:axpy_info t.grid (Ops3.interior t.u) args k
  in
  if dst == a then loop [ point a Access.Rw; point b Access.Read; alpha ] Kernels.axpy_a_acc
  else if dst == b then loop [ point a Access.Read; point b Access.Rw; alpha ] Kernels.axpy_b_acc
  else
    loop [ point a Access.Read; point b Access.Read; point dst Access.Write; alpha ]
      Kernels.axpy_acc

(* One backward-Euler step: solve (I - dt L) u' = u by CG. Returns the CG
   iterations used. *)
let step ?(tol = 1e-9) ?(max_iters = 200) t =
  (* r = b - A u = u - A u; p = r *)
  matvec t ~src:t.u ~dst:t.w;
  Ops3.par_loop_acc t.ctx ~name:"cg_init" ~info:axpy_info t.grid (Ops3.interior t.u)
    [
      Ops3.arg_dat t.u Ops3.stencil_point Access.Read;
      Ops3.arg_dat t.w Ops3.stencil_point Access.Read;
      Ops3.arg_dat t.r Ops3.stencil_point Access.Write;
      Ops3.arg_dat t.p Ops3.stencil_point Access.Write;
    ]
    Kernels.init_acc;
  let rr = ref (dot t t.r t.r) in
  let iters = ref 0 in
  while !rr > tol && !iters < max_iters do
    matvec t ~src:t.p ~dst:t.w;
    let alpha = !rr /. dot t t.p t.w in
    axpy t ~a:t.u ~alpha ~b:t.p ~dst:t.u;
    axpy t ~a:t.r ~alpha:(-.alpha) ~b:t.w ~dst:t.r;
    let rr' = dot t t.r t.r in
    axpy t ~a:t.r ~alpha:(rr' /. !rr) ~b:t.p ~dst:t.p;
    rr := rr';
    incr iters
  done;
  t.cg_iterations <- t.cg_iterations + !iters;
  !iters

let run t ~steps =
  for _ = 1 to steps do
    ignore (step t)
  done

let temperature t = Ops3.fetch_interior t.ctx t.u

let total_heat t =
  let acc = [| 0.0 |] in
  Ops3.par_loop_acc t.ctx ~name:"tea_sum" ~info:dot_info t.grid (Ops3.interior t.u)
    [
      Ops3.arg_dat t.u Ops3.stencil_point Access.Read;
      Ops3.arg_gbl ~name:"sum" acc Access.Inc;
    ]
    Kernels.sum_acc;
  acc.(0)

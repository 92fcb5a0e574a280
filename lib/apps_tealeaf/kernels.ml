(* TeaLeaf kernels: the conjugate-gradient loops of the implicit heat
   solve, and the total-heat sum.

   Each kernel is written once, over argument accessors ([Ops3.Acc]: the
   zero-copy ABI, run with [Ops3.par_loop_acc]), as a [let%kernel] with
   its argument signature after the body, [[@@args ...]], one entry per
   argument in [App]'s call order: [label [offsets] dim Access] for a
   dataset, [gbl length Access] for a global.  Every field is one n^3
   dataset of dim 1 with the default ghost shell, so one layout label,
   [c], names them all and the walker keeps one index.  The rewriter
   (lib/ppx_kernel) binds each to a kernel value whose point form is the
   function as written and whose range walker runs the body inlined over
   a whole box, compiled to C (kernels_walkers.c); [dune describe pp
   lib/apps_tealeaf/kernels.ml] shows the expansion.

   The CG updates write one of their operands, so each is declared with
   that operand [Rw] ([axpy_a_acc]: a := a + alpha b, [axpy_b_acc]: b :=
   a + alpha b): an aliased Write beside a Read of the same dataset would
   stage every argument.  Every kernel evaluates the same floating-point
   operations in the same order as the staged closures it replaced.

   The kernels are hot and the library is compiled with [-opaque] and
   without flambda, so a float that crosses a call boundary is boxed.
   Hence the module-local [@inline] accessors, and helpers that are
   top-level [@inline] functions over floats. *)

module Acc = Am_core.Acc

(* Stencil point [p] of a dataset argument; the (centre) point of a
   written one; component [c] of a global. *)
let[@inline] get (a : Acc.t) p = a.Acc.data.(a.Acc.base + a.Acc.off.(p))
let[@inline] set (a : Acc.t) v = a.Acc.data.(a.Acc.base + a.Acc.off.(0)) <- v
let[@inline] gbl (a : Acc.t) c = a.Acc.data.(a.Acc.base + a.Acc.off.(0) + c)
let[@inline] set_gbl (a : Acc.t) c v = a.Acc.data.(a.Acc.base + a.Acc.off.(0) + c) <- v

(* A face's conductivity: the harmonic mean of its two cells', zero
   against an insulated (zero-conductivity) ghost cell. *)
let[@inline] harmonic a b = if a +. b <= 0.0 then 0.0 else 2.0 *. a *. b /. (a +. b)

(* A p with the variable-coefficient 7-point operator:
     (A p)(c) = p(c) - dt * sum_faces k_face * (p(nb) - p(c))
   args: p (R, 7pt: centre, -x, +x, -y, +y, -z, +z), kappa (R, 7pt),
   w (W, centre), consts gbl [dt].  The six faces are written out as
   literal stencil points, summed from 0.0 in point order, so the native
   walker reads each through an offset loaded once per call. *)
let%kernel matvec_acc (a : Acc.t array) =
  let p = a.(0) and k = a.(1) in
  let dt = gbl a.(3) 0 in
  let p0 = get p 0 and k0 = get k 0 in
  let acc =
    0.0
    +. (harmonic k0 (get k 1) *. (get p 1 -. p0))
    +. (harmonic k0 (get k 2) *. (get p 2 -. p0))
    +. (harmonic k0 (get k 3) *. (get p 3 -. p0))
    +. (harmonic k0 (get k 4) *. (get p 4 -. p0))
    +. (harmonic k0 (get k 5) *. (get p 5 -. p0))
    +. (harmonic k0 (get k 6) *. (get p 6 -. p0))
  in
  set a.(2) (p0 -. (dt *. acc))
[@@args
  c [(0,0,0); (-1,0,0); (1,0,0); (0,-1,0); (0,1,0); (0,0,-1); (0,0,1)] 1 Read,
  c [(0,0,0); (-1,0,0); (1,0,0); (0,-1,0); (0,1,0); (0,0,-1); (0,0,1)] 1 Read,
  c [(0,0,0)] 1 Write, gbl 1 Read]

(* acc += a * b.  args: a (R), b (R), acc (Inc gbl). *)
let%kernel dot_acc (a : Acc.t array) =
  set_gbl a.(2) 0 (gbl a.(2) 0 +. (get a.(0) 0 *. get a.(1) 0))
[@@args c [(0,0,0)] 1 Read, c [(0,0,0)] 1 Read, gbl 1 Inc]

(* r = u - w; p = r.  args: u (R), w (R), r (W), p (W). *)
let%kernel init_acc (a : Acc.t array) =
  let r = get a.(0) 0 -. get a.(1) 0 in
  set a.(2) r;
  set a.(3) r
[@@args c [(0,0,0)] 1 Read, c [(0,0,0)] 1 Read, c [(0,0,0)] 1 Write, c [(0,0,0)] 1 Write]

(* dst := a + alpha * b.  args: a (R), b (R), dst (W), alpha (R gbl). *)
let%kernel axpy_acc (a : Acc.t array) = set a.(2) (get a.(0) 0 +. (gbl a.(3) 0 *. get a.(1) 0))
[@@args c [(0,0,0)] 1 Read, c [(0,0,0)] 1 Read, c [(0,0,0)] 1 Write, gbl 1 Read]

(* a := a + alpha * b (u += alpha p, r -= alpha w).  args: a (Rw), b (R),
   alpha (R gbl). *)
let%kernel axpy_a_acc (a : Acc.t array) = set a.(0) (get a.(0) 0 +. (gbl a.(2) 0 *. get a.(1) 0))
[@@args c [(0,0,0)] 1 Rw, c [(0,0,0)] 1 Read, gbl 1 Read]

(* b := a + alpha * b (p = r + beta p).  args: a (R), b (Rw), alpha (R
   gbl). *)
let%kernel axpy_b_acc (a : Acc.t array) = set a.(1) (get a.(0) 0 +. (gbl a.(2) 0 *. get a.(1) 0))
[@@args c [(0,0,0)] 1 Read, c [(0,0,0)] 1 Rw, gbl 1 Read]

(* sum += u.  args: u (R), sum (Inc gbl). *)
let%kernel sum_acc (a : Acc.t array) = set_gbl a.(1) 0 (gbl a.(1) 0 +. get a.(0) 0)
[@@args c [(0,0,0)] 1 Read, gbl 1 Inc]

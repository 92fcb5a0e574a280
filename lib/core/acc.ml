(* Argument accessors: the zero-copy kernel ABI of both libraries (the
   paper's Fig 7 OP_ACC).

   An accessor is one kernel argument seen as a window into a float array:
   component [c] of stencil point [p] is [data.(base + off.(p) + c)].  The
   executors bind an accessor once per loop and then only move [base] per
   iteration — for OP2 to [e * dim] (direct) or [map value * dim]
   (indirect), for OPS to the iteration point's flat index in the padded
   dataset — so the kernel reads and writes the dataset in place.  [off]
   holds one flat delta per declared stencil point: OP2 arguments are the
   single-point case [off = [|0|]], an OPS argument's deltas are its
   stencil offsets scaled by the dataset's row and column strides.

   Staged addressing is the same ABI over a staging buffer with [base = 0]
   and point-major deltas [off.(p) = p * dim].  For a canary-padded buffer
   (the Check backend, footprint probing) the table covers every whole
   point the buffer holds, so a read of an undeclared stencil point or of
   a component past [dim] lands in the pad, where it is observed, instead
   of raising an index error on the table.

   Indexing is the ordinary bounds-checked array access.  There are
   deliberately no [get]/[set] functions here: libraries are compiled with
   [-opaque] in the dev profile and flambda is off, so a call into this
   module would never be inlined and would box every float it passes or
   returns.  Kernel modules define their own [@inline] accessors, as
   [Am_airfoil.Kernels] and [Am_cloverleaf.Kernels] do. *)

type t = { data : float array; mutable base : int; off : int array }

(* Shared by every single-point accessor; never written. *)
let single = [| 0 |]

(* A base-0 single-point accessor over a buffer. *)
let of_array data = { data; base = 0; off = single }

(* A base-0 accessor over a point-major buffer of [dim]-component points:
   one delta per whole point the buffer holds. *)
let of_buffer ~dim data =
  { data; base = 0; off = Array.init (Array.length data / dim) (fun p -> p * dim) }

(* The staged form of a single-point accessor kernel (OP2): it runs over
   base-0 accessors on the staging buffers it is handed. *)
let staged kernel bufs = kernel (Array.map of_array bufs)

(* A structured-mesh kernel value, in two forms of one kernel.  [point]
   runs the kernel once, at the points the accessors' bases name.  [row
   accs steps n] runs it at [n] consecutive points, starting from the
   bases the accessors hold and advancing argument [k]'s base by
   [steps.(k)] after each point; it may leave the bases moved, so callers
   set them before every call.  [let%kernel] (lib/ppx_kernel) generates
   [row] from the body of [point]. *)
type kernel = { point : t array -> unit; row : t array -> int array -> int -> unit }

(* The kernel value of a plain point function: its row form calls it once
   per point. *)
let lift point =
  {
    point;
    row =
      (fun a steps n ->
        for _ = 1 to n do
          point a;
          for k = 0 to Array.length a - 1 do
            a.(k).base <- a.(k).base + steps.(k)
          done
        done);
  }

(* ---- Element walkers: the unstructured (OP2) kernel value ---------------- *)

(* How an element walker addresses one OP2 argument: the dataset array
   ([||] for a global), the map table ([||] for a direct argument or a
   global), the map's arity and the argument's slot in it, and the
   dataset's dim.  Built once per compiled executor.  Element [e] of an
   argument is at [map.(e * arity + idx) * dim] when indirect and at
   [e * dim] when direct. *)
type addr = { adata : float array; amap : int array; arity : int; idx : int; adim : int }

(* One worker's view of a loop for an element walker.  [addrs] and [incs]
   (the staged Inc arguments, in argument order) belong to the compiled
   executor; [bufs] to the worker's frame.  [bufs.(k)] is [||] when
   argument [k] is addressed in place, and otherwise the buffer the kernel
   sees at base 0: a global's accumulator, or a staged Inc's per-element
   scratch. *)
type walk = { addrs : addr array; incs : int array; bufs : float array array }

(* An unstructured-mesh kernel value: one kernel, with an element walker
   when it was generated.  [elem] runs the kernel once, at the bases the
   accessors hold.  [elems w lo hi] runs it at every element of [lo, hi),
   in order; per element it computes each in-place base from [w.addrs],
   zeroes every staged Inc scratch, runs the kernel, then adds every
   scratch component back to memory, in argument order.  It is only called
   when every dataset argument is in place or a staged Inc.
   [let%elem_kernel] (lib/ppx_kernel) generates [elems] from the body of
   [elem]; a plain point function has none, and runs on the executors'
   point walker. *)
type elem_kernel = { elem : t array -> unit; elems : (walk -> int -> int -> unit) option }

(* A generated walker stages through these two when its loop stages an
   Inc its body never writes.  Zero every staged Inc scratch of [w]. *)
let zero_incs w =
  for s = 0 to Array.length w.incs - 1 do
    let z = w.bufs.(w.incs.(s)) in
    Array.fill z 0 (Array.length z) 0.0
  done

(* Add every staged Inc scratch of [w] to memory at element [e], in
   argument order. *)
let add_incs w e =
  for s = 0 to Array.length w.incs - 1 do
    let k = w.incs.(s) in
    let a = w.addrs.(k) and z = w.bufs.(k) in
    let d = a.adata in
    let t = (if Array.length a.amap = 0 then e else a.amap.((e * a.arity) + a.idx)) * a.adim in
    for c = 0 to Array.length z - 1 do
      d.(t + c) <- d.(t + c) +. z.(c)
    done
  done

(* The kernel value of a plain OP2 point function. *)
let lift_elem elem = { elem; elems = None }

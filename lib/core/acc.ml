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

(* An indirect argument's map, as a kernel declares it: a label local to
   the signature (two arguments with one map label pass one map), the
   map's arity and the argument's slot in it. *)
type via = { map : string; arity : int; slot : int }

(* One argument of a kernel's declared signature: the facts OP2's
   [op_arg_dat] and [op_arg_gbl] state.  A dataset argument has a label
   local to the signature (two arguments with one label pass one dataset),
   a dim, an access mode and, when indirect, its map; a global has a
   length and an access mode. *)
type arg_sig =
  | Dat of { label : string; dim : int; access : Access.t; via : via option }
  | Gbl of { len : int; access : Access.t }

(* Where an element walker finds one argument's arrays: the dataset array
   ([||] for a global) and the map table ([||] for a direct argument or a
   global).  Built once per compiled executor. *)
type addr = { adata : float array; amap : int array }

(* One worker's view of a loop for an element walker: the executor's
   [addrs], and the worker's [bufs] — [bufs.(k)] is a global's
   accumulator (a copy of a [Read] global), or an [Inc] argument's
   per-element scratch. *)
type walk = { addrs : addr array; bufs : float array array }

(* A generated element walker and the signature it was generated for.
   [elems w lo hi] runs the kernel at every element of [lo, hi), in order,
   with the signature's dims, arities and slots as constants: per element
   it loads each distinct (map, slot) once, runs the body inlined over the
   datasets in place, and adds every [Inc] argument's components back to
   memory, in argument order and then component order.  It is only called
   on arguments that match [signature] (the loop checks them first) and
   when every dataset argument is in place or an AoS [Inc]. *)
type walker = { kname : string; signature : arg_sig array; elems : walk -> int -> int -> unit }

(* An unstructured-mesh kernel value: one kernel, with an element walker
   when it was generated.  [elem] runs the kernel once, at the bases the
   accessors hold.  [let%elem_kernel] (lib/ppx_kernel) generates [walker]
   from the body of [elem] and its declared signature; a plain point
   function has none, and runs on the executors' point walker. *)
type elem_kernel = { elem : t array -> unit; walker : walker option }

(* The kernel value of a plain OP2 point function. *)
let lift_elem elem = { elem; walker = None }

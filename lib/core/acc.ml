(* Argument accessors: the kernel ABI of both libraries (the paper's Fig 7
   OP_ACC), and the kernel values that carry generated walkers.

   An accessor is one kernel argument seen as a window into a float array:
   component [c] of stencil point [p] is [data.(base + off.(p) + c)].  A
   kernel is written once over accessors, its point form.  The executors
   address datasets in place only through a generated walker (a
   [let%kernel]'s range walker, a [let%elem_kernel]'s element walker),
   which the rewriter expands from the point form's body with each
   accessor use turned into direct indexing, and compiles to C: the
   walker the executors call is native, and its OCaml form stays beside
   it as the tests' reference ([reference], [reference_elem]).
   Everywhere else the point form runs on staged addressing: accessors
   over staging buffers with [base = 0] and point-major deltas [off.(p) =
   p * dim], an OP2 argument being the single-point case [off = [|0|]],
   built once per frame.  For a canary-padded buffer (the Check backend,
   footprint probing) the table covers every whole point the buffer
   holds, so a read of an undeclared stencil point or of a component past
   [dim] lands in the pad, where it is observed, instead of raising an
   index error on the table.  [base] stays mutable for runners that move
   an accessor themselves, as Hydra's hand-coded one does.

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

(* ---- Range walkers: the structured (OPS) kernel value -------------------- *)

(* One argument of a structured kernel's declared signature: a dataset
   with its layout label (local to the signature: arguments with one label
   pass datasets of one shape, so they share one index), its stencil as
   literal (x, y, z) offsets in declaration order, its dim and its access
   mode; or a global with its length and access mode. *)
type grid_sig =
  | Grid_dat of {
      label : string;
      stencil : (int * int * int) array;
      dim : int;
      access : Access.t;
    }
  | Grid_gbl of { len : int; access : Access.t }

(* Where a range walker finds one argument.  A dataset's place is its view:
   the array, the flat index of point (0, 0, 0), the plane and row strides,
   and the argument's table of flat stencil deltas.  A global's is the
   worker's buffer in [pdata], the other fields unused. *)
type place = { pdata : float array; pbase : int; pplane : int; prow : int; poff : int array }

(* A generated range walker and the signature it was generated for.
   [range places xlo xhi ylo yhi zlo zhi] runs the kernel at every point of
   the box, z outermost, x innermost: the body inlined, one index per
   layout label, each literal stencil offset and each [Read] global
   component loaded once per call, and an [Inc]/[Min]/[Max] global named
   by literal components kept in float locals and stored into its buffer
   after the box.  It is only called on arguments that match [signature]
   (the loop checks them first) when every dataset argument is in place
   and the views of each label agree.

   [range] is the native walker: the body compiled to C from the same
   expansion (lib/ppx_kernel), which first proves the whole box inside
   every array it addresses and raises [Invalid_argument] naming the
   kernel and the argument when it is not ([native_failure]).  [reference]
   is the same walker in OCaml, bounds-checked point by point: the
   executors run [range], the tests hold it to [reference] bit for bit. *)
type range_walker = {
  kname : string;
  signature : grid_sig array;
  range : place array -> int -> int -> int -> int -> int -> int -> unit;
  reference : place array -> int -> int -> int -> int -> int -> int -> unit;
}

(* What a native walker's failed check returns, [walker] being "range" or
   "element": the check's kind in the low four bits, above them the
   argument, or for an index outside a module-level float array that
   array's number in [arrays]. *)
let native_failure walker kname arrays status =
  let k = status lsr 4 in
  let what =
    match status land 15 with
    | 1 -> "the places array does not hold one place per declared argument"
    | 2 -> "a negative plane or row stride"
    | 3 -> "the box reaches outside the dataset's array"
    | 4 -> "an entry of the offset table reaches outside the dataset's array over the box"
    | 5 -> "the global's buffer is shorter than its declared length"
    | 6 -> "a computed stencil point is outside the argument's offset table"
    | 7 -> "a computed component is outside the argument's array"
    | 8 -> "the walk does not hold one address and one buffer per declared argument"
    | 9 -> "the range starts below element 0"
    | 10 -> "the dataset's array is shorter than the range needs"
    | 11 -> "the map table is shorter than the range needs"
    | 12 -> "a map entry is outside a dataset the argument's (map, slot) reaches"
    | 13 -> "the Inc scratch buffer is shorter than the argument's dim"
    | _ -> "an index is outside the float array " ^ List.nth arrays k
  in
  invalid_arg
    (match status land 15 with
    | 1 | 8 | 9 | 14 -> Printf.sprintf "native %s walker %s: %s" walker kname what
    | _ -> Printf.sprintf "native %s walker %s, argument %d: %s" walker kname k what)

(* A structured-mesh kernel value: one kernel, with a range walker per
   declared signature.  [point] runs the kernel once, at the points the
   accessors' bases name.  [let%kernel] (lib/ppx_kernel) generates one
   walker per [[@@args]] signature from the body of [point]; a call runs
   the walker whose stencils equal its arguments'.  A plain point function
   has none, and always runs staged, on the executors' point walker. *)
type kernel = { point : t array -> unit; walkers : range_walker array }

(* The kernel value of a plain point function: the always-staged
   reference the tests run generated kernels against. *)
let lift point = { point; walkers = [||] }

(* [k] with every walker running its OCaml reference. *)
let reference k =
  { k with walkers = Array.map (fun w -> { w with range = w.reference }) k.walkers }

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
   when every dataset argument is in place or an AoS [Inc].

   [elems] is the native walker: the body compiled to C from the same
   expansion (lib/ppx_kernel), which first proves [lo, hi) inside every
   direct dataset and map table and every buffer it reads at least its
   declared length, then checks each map entry it loads against the
   datasets it reaches, and raises [Invalid_argument] naming the kernel
   and the argument when a check fails ([native_failure]).  [reference]
   is the same walker in OCaml, bounds-checked element by element: the
   executors run [elems], the tests hold it to [reference] bit for bit. *)
type walker = {
  kname : string;
  signature : arg_sig array;
  elems : walk -> int -> int -> unit;
  reference : walk -> int -> int -> unit;
}

(* An unstructured-mesh kernel value: one kernel, with an element walker
   when it was generated.  [elem] runs the kernel once, at the bases the
   accessors hold.  [let%elem_kernel] (lib/ppx_kernel) generates [walker]
   from the body of [elem] and its declared signature; a plain point
   function has none, and always runs staged, on the executors' point
   walker. *)
type elem_kernel = { elem : t array -> unit; walker : walker option }

(* The kernel value of a plain OP2 point function. *)
let lift_elem elem = { elem; walker = None }

(* [k] with its element walker running its OCaml reference. *)
let reference_elem k =
  { k with walker = Option.map (fun w -> { w with elems = w.reference }) k.walker }

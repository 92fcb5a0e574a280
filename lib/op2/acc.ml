(* Argument accessors: the zero-copy kernel ABI (the paper's Fig 7 OP_ACC).

   An accessor is one kernel argument seen as a window into a float array:
   component [i] of the argument is [data.(base + i)].  The executors bind
   an accessor once per loop and then only move [base] per element — to
   [e * dim] for a direct AoS argument, to [map value * dim] for an
   indirect one — so the kernel reads and writes the dataset in place.
   Staged addressing is the same ABI over a staging buffer with
   [base = 0]; see [Exec_common] for which arguments take which mode.

   Indexing is the ordinary bounds-checked array access: a component index
   past the argument's [dim] is not trapped here (it reaches the next
   element's values), but footprint probing and the Check backend run the
   same kernel over canary-padded staging buffers and report it, naming
   the loop, argument and slot.

   There are deliberately no [get]/[set] functions here: libraries are
   compiled with [-opaque] in the dev profile and flambda is off, so a
   call into this module would never be inlined and would box every float
   it passes or returns.  Kernel modules define their own [@inline]
   accessors, as [Am_airfoil.Kernels] does. *)

type t = { data : float array; mutable base : int }

let of_array data = { data; base = 0 }

(* The staged form of an accessor kernel: it runs over base-0 accessors on
   the staging buffers it is handed. *)
let staged kernel bufs = kernel (Array.map of_array bufs)

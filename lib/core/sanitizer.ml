(* The sanitizer's guard policy, one for both libraries: what each argument
   of a kernel call on the [Check] backend starts as, and what is checked
   after the kernel.

   Each library's Check walks its elements or points and addresses its
   arguments only through the call site's compiled gather and scatter
   closures (OP2's [Exec_check], OPS's [Exec.run_check]); every kernel call
   runs through [point], which stages each argument in a canary-padded
   buffer and holds it to its access descriptor:

   - a [Read] buffer is gathered, snapshot, and must come back bitwise
     unchanged (a kernel writing a Read argument corrupts shared staging on
     the vectorised backends and loses updates on all of them);
   - a [Write] buffer is poisoned with the canary instead of gathered, so a
     kernel that reads the previous value, or leaves a component unwritten,
     surfaces as a NaN in the output (the descriptor promised the old value
     was dead, which halo and checkpoint planning exploit);
   - an [Rw] buffer is gathered and must not turn NaN inside the kernel, an
     [Inc] buffer starts at zero and must come back free of NaN: a NaN
     there was computed from some other argument's poison;
   - [pad_of dim] canary slots past the declared ones must survive the
     kernel: a write there would be silent corruption elsewhere, and a read
     of an undeclared stencil point or component lands there and poisons
     whatever it flows into;
   - a global's buffer persists across the call, as on Seq, and a [Read]
     global must come back bitwise unchanged;
   - an [Invalid_argument] raised inside the kernel (an index past the pad)
     becomes a violation.

   Every violation raises [Violation] naming the loop, the argument and its
   dataset, and the element or point.  A written argument is scattered
   only after its checks pass, so a clean run leaves memory bitwise as Seq
   does. *)

module Counters = Am_obs.Counters
module Obs = Am_obs.Obs

exception Violation of string

(* A quiet NaN with a recognisable mantissa: kernels do not produce this
   bit pattern, so a changed canary means an out-of-range write. *)
let canary_bits = 0x7FF8DEADBEEF0001L
let canary = Int64.float_of_bits canary_bits

(* Inlined, so the floats it compares stay unboxed: the guards call it on
   every slot of every argument of every element. *)
let[@inline] same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Canary slots past the declared ones of a [dim]-component argument: at
   least a whole point, so a component index below [2 dim] lands in the
   pad.  Footprint probing pads by the same width ([Probe]). *)
let pad_of dim = max 2 dim

type arg = {
  name : string; (* the dataset or global, for diagnostics *)
  access : Access.t;
  global : bool;
  slots : int; (* declared: points * dim for a dataset, a global's length *)
  buf : float array; (* slots + pad, canaries in the tail *)
  snapshot : float array; (* a Read or Rw argument's bits before the kernel *)
}

(* A dataset argument of [points] stencil points of [dim] components,
   staged at every element or point. *)
let dat ~name ~access ~points ~dim =
  let slots = points * dim in
  {
    name;
    access;
    global = false;
    slots;
    buf = Array.make (slots + pad_of dim) canary;
    snapshot = Array.make slots 0.0;
  }

(* A global argument over the call's buffer [values]: a copy of a [Read],
   [Min] or [Max] global, zeros for an [Inc]. *)
let gbl ~name ~access values =
  let slots = Array.length values in
  let buf = Array.make (slots + pad_of slots) canary in
  (match access with
  | Access.Read | Access.Min | Access.Max -> Array.blit values 0 buf 0 slots
  | Access.Inc -> Array.fill buf 0 slots 0.0
  | Access.Write | Access.Rw -> invalid_arg "Check: Write/Rw access on a global argument");
  { name; access; global = true; slots; buf; snapshot = Array.copy values }

(* One loop call on Check: its arguments, and their buffers, which are
   what the kernel sees (through base-0 accessors for an accessor kernel)
   and what the call's globals fold from. *)
type call = { loop : string; args : arg array; bufs : float array array }

let call ~loop ~elements args =
  Counters.incr Obs.check_loops;
  Counters.add Obs.check_elements elements;
  let args = Array.of_list args in
  { loop; args; bufs = Array.map (fun g -> g.buf) args }

let violation fmt =
  Printf.ksprintf
    (fun s ->
      Counters.incr Obs.check_violations;
      raise (Violation s))
    fmt

(* A violation of argument [arg] (its dataset, map or global [name]) at
   [at], an element, a point or a range. *)
let fail ~loop ~arg ~name ~at fmt =
  Printf.ksprintf
    (fun what -> violation "check: loop %s, arg %d (%s), %s: %s" loop arg name at what)
    fmt

let fail_arg c ~at i fmt = fail ~loop:c.loop ~arg:i ~name:c.args.(i).name ~at:(at ()) fmt

(* Argument [i]'s declared slots before the kernel.  The loops are
   written out: a staging buffer holds a few slots, and [Array.blit] and
   [Array.fill] would cost a C call each. *)
let enter ~gather i g =
  if not g.global then begin
    let buf = g.buf in
    match g.access with
    | Access.Read | Access.Rw ->
      gather i buf;
      let snapshot = g.snapshot in
      for s = 0 to g.slots - 1 do
        snapshot.(s) <- buf.(s)
      done
    | Access.Write ->
      for s = 0 to g.slots - 1 do
        buf.(s) <- canary
      done
    | Access.Inc ->
      for s = 0 to g.slots - 1 do
        buf.(s) <- 0.0
      done
    | Access.Min | Access.Max -> ()
  end

(* Argument [i] after the kernel: its pad, then what its access promised. *)
let leave c ~at i g =
  let buf = g.buf and n = g.slots in
  for s = n to Array.length buf - 1 do
    if not (same_bits buf.(s) canary) then
      fail_arg c ~at i "kernel wrote past the %d declared slot(s) of its staging buffer" n
  done;
  match g.access with
  | Access.Read ->
    for s = 0 to n - 1 do
      if not (same_bits buf.(s) g.snapshot.(s)) then
        fail_arg c ~at i "kernel wrote slot %d of a Read %s (%.17g -> %.17g)" s
          (if g.global then "global" else "argument")
          g.snapshot.(s) buf.(s)
    done
  | Access.Write ->
    for s = 0 to n - 1 do
      if Float.is_nan buf.(s) then
        fail_arg c ~at i
          "component %d of a Write argument is NaN after the kernel: the kernel read the \
           (poisoned) previous value or never wrote the slot"
          s
    done
  | Access.Rw ->
    for s = 0 to n - 1 do
      if Float.is_nan buf.(s) && not (Float.is_nan g.snapshot.(s)) then
        fail_arg c ~at i
          "component %d of an Rw argument became NaN inside the kernel (derived from \
           another argument's poisoned Write buffer)"
          s
    done
  | Access.Inc when not g.global ->
    for s = 0 to n - 1 do
      if Float.is_nan buf.(s) then
        fail_arg c ~at i
          "increment component %d is NaN (derived from another argument's poisoned Write \
           buffer)"
          s
    done
  | Access.Inc | Access.Min | Access.Max -> ()

(* One kernel call under every guard.  [gather i buf] fills dataset
   argument [i]'s declared slots from memory, [scatter i buf] writes them
   back (adds them, for an [Inc]); both are the library's compiled
   closures at the current element or point, which [at ()] names for a
   diagnostic. *)
let point c ~kernel ~gather ~scatter ~at =
  let args = c.args in
  for i = 0 to Array.length args - 1 do
    enter ~gather i args.(i)
  done;
  (try kernel ()
   with Invalid_argument msg ->
     violation
       "check: loop %s, %s: kernel raised Invalid_argument (%s) — out-of-range \
        staging-buffer index"
       c.loop (at ()) msg);
  for i = 0 to Array.length args - 1 do
    let g = args.(i) in
    leave c ~at i g;
    if not g.global then
      match g.access with
      | Access.Write | Access.Rw | Access.Inc -> scatter i g.buf
      | Access.Read | Access.Min | Access.Max -> ()
  done

(* Sanitizer executor: sequential traversal with access-descriptor guards,
   for blocks of every rank.

   Every argument is staged whatever the kernel form: one staging buffer
   per argument with [dim] values per declared stencil point, which an
   accessor kernel sees through a base-0 accessor whose offset table also
   covers the pad.  Under this executor every buffer carries a tail of
   canary slots holding a distinguished NaN bit pattern, [Read] buffers
   are snapshot and compared bitwise after the kernel, [Write] buffers are
   poisoned with NaN instead of gathered, and written buffers are rejected
   if any component comes back NaN.  Together these catch the three
   descriptor lies the library's planning depends on not happening:
   writing a [Read] argument, reading a [Write] argument's previous value,
   and indexing a stencil point that was never declared (the read lands in
   the canary tail and the NaN propagates into whatever the kernel
   writes).  Violations raise {!Violation} naming the loop, argument,
   dataset and iteration point, printed in the block's own rank: (x),
   (x,y) or (x,y,z).

   Clean runs produce results identical to [Exec.run_seq]. *)

module Access = Am_core.Access
module Counters = Am_obs.Counters
module Obs = Am_obs.Obs
open Types

exception Violation of string

let canary_bits = 0x7FF8DEADBEEF0002L
let canary = Int64.float_of_bits canary_bits
let is_canary v = Int64.equal (Int64.bits_of_float v) canary_bits
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

type guarded =
  | G_dat of {
      dat : dat;
      stencil : stencil;
      access : Access.t;
      stride : stride;
      buf : float array; (* points*dim + pad, canaries in the tail *)
      snapshot : float array; (* points*dim; pre-kernel bits for Read/Rw *)
    }
  | G_gbl of {
      gname : string;
      user_buf : float array;
      access : Access.t;
      buf : float array; (* persists across points, like the seq backend *)
      snapshot : float array;
    }
  | G_idx of { buf : float array (* the indices, then two canaries *) }

let violation fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt

let fail ~rank ~name ~arg_i ~what ~x ~y ~z fmt =
  Printf.ksprintf
    (fun s ->
      Counters.incr Obs.check_violations;
      violation "check: loop %s, arg %d (%s), point %s: %s" name arg_i what
        (point_to_string ~rank x y z) s)
    fmt

let pad_of dim = max 2 dim

let guard_args args =
  List.map
    (function
      | Arg_dat { dat; stencil; access; stride } ->
        let n = dat.dim * npoints stencil in
        G_dat
          {
            dat;
            stencil;
            access;
            stride;
            buf = Array.make (n + pad_of dat.dim) canary;
            snapshot = Array.make n 0.0;
          }
      | Arg_gbl { name; buf; access } ->
        let dim = Array.length buf in
        let b = Array.make (dim + pad_of dim) canary in
        (match access with
        | Access.Read | Access.Min | Access.Max -> Array.blit buf 0 b 0 dim
        | Access.Inc -> Array.fill b 0 dim 0.0
        | Access.Write | Access.Rw ->
          invalid_arg "ops: Write/Rw access on a global argument");
        G_gbl { gname = name; user_buf = buf; access; buf = b; snapshot = Array.copy buf }
      | Arg_idx n -> G_idx { buf = Array.make (n + 2) canary })
    args

let gather ~rank ~name ~arg_i g ~x ~y ~z =
  match g with
  | G_gbl _ -> ()
  | G_idx { buf } ->
    let n = Array.length buf - 2 in
    buf.(0) <- Float.of_int x;
    if n > 1 then buf.(1) <- Float.of_int y;
    if n > 2 then buf.(2) <- Float.of_int z
  | G_dat { dat; stencil; access; stride; buf; snapshot } -> (
    match access with
    | Access.Read | Access.Rw ->
      let bx = stride_x stride x and by = stride_y stride y and bz = stride_z stride z in
      for p = 0 to npoints stencil - 1 do
        for c = 0 to dat.dim - 1 do
          let v =
            get dat ~x:(bx + ox stencil p) ~y:(by + oy stencil p) ~z:(bz + oz stencil p) ~c
          in
          buf.((p * dat.dim) + c) <- v;
          snapshot.((p * dat.dim) + c) <- v
        done
      done
    | Access.Write -> Array.fill buf 0 (dat.dim * npoints stencil) canary
    | Access.Inc -> Array.fill buf 0 (dat.dim * npoints stencil) 0.0
    | Access.Min | Access.Max ->
      fail ~rank ~name ~arg_i ~what:dat.dat_name ~x ~y ~z "Min/Max access on a dataset")

let check_and_scatter ~rank ~name ~arg_i g ~x ~y ~z =
  let fail ~what fmt = fail ~rank ~name ~arg_i ~what ~x ~y ~z fmt in
  match g with
  | G_idx { buf } ->
    let n = Array.length buf - 2 in
    for d = n to n + 1 do
      if not (is_canary buf.(d)) then
        fail ~what:"idx" "kernel wrote past the %d iteration-index slot(s)" n
    done;
    if
      (not (same_bits buf.(0) (Float.of_int x)))
      || (n > 1 && not (same_bits buf.(1) (Float.of_int y)))
      || (n > 2 && not (same_bits buf.(2) (Float.of_int z)))
    then fail ~what:"idx" "kernel wrote the (read-only) index buffer"
  | G_gbl { gname; user_buf; access; buf; snapshot } -> (
    let dim = Array.length user_buf in
    for d = dim to Array.length buf - 1 do
      if not (is_canary buf.(d)) then
        fail ~what:gname "kernel wrote past the %d declared component(s) of the global" dim
    done;
    match access with
    | Access.Read ->
      for d = 0 to dim - 1 do
        if not (same_bits buf.(d) snapshot.(d)) then
          fail ~what:gname "kernel wrote component %d of a Read global (%.17g -> %.17g)" d
            snapshot.(d) buf.(d)
      done
    | Access.Inc | Access.Min | Access.Max -> ()
    | Access.Write | Access.Rw -> assert false)
  | G_dat { dat; stencil; access; buf; snapshot; _ } -> (
    let what = dat.dat_name in
    let n = dat.dim * npoints stencil in
    for d = n to Array.length buf - 1 do
      if not (is_canary buf.(d)) then
        fail ~what
          "kernel wrote past the %d declared stencil value(s): undeclared stencil point \
           or out-of-range component index"
          n
    done;
    match access with
    | Access.Read ->
      for d = 0 to n - 1 do
        if not (same_bits buf.(d) snapshot.(d)) then
          fail ~what "kernel wrote slot %d of a Read argument (%.17g -> %.17g)" d
            snapshot.(d) buf.(d)
      done
    | Access.Write ->
      (* Center-only by validation: scatter slot p = 0. *)
      for c = 0 to dat.dim - 1 do
        if Float.is_nan buf.(c) then
          fail ~what
            "component %d of a Write argument is NaN after the kernel: the kernel read \
             the (poisoned) previous value or never wrote the slot"
            c;
        set dat ~x ~y ~z ~c buf.(c)
      done
    | Access.Rw ->
      for c = 0 to dat.dim - 1 do
        if Float.is_nan buf.(c) && not (Float.is_nan snapshot.(c)) then
          fail ~what
            "component %d of an Rw argument became NaN inside the kernel (derived from \
             another argument's poisoned Write buffer)"
            c;
        set dat ~x ~y ~z ~c buf.(c)
      done
    | Access.Inc ->
      for c = 0 to dat.dim - 1 do
        if Float.is_nan buf.(c) then
          fail ~what
            "increment component %d is NaN (derived from another argument's poisoned \
             Write buffer)"
            c;
        set dat ~x ~y ~z ~c (get dat ~x ~y ~z ~c +. buf.(c))
      done
    | Access.Min | Access.Max -> assert false)

let merge_gbl = function
  | G_dat _ | G_idx _ -> ()
  | G_gbl { user_buf; access; buf; _ } -> Am_loop.Loop.fold access user_buf buf

let run ~rank ~name ~range ~args ~kernel =
  Counters.incr Obs.check_loops;
  Counters.add Obs.check_elements (range_size range);
  let guarded = Array.of_list (guard_args args) in
  let buffers =
    Array.map
      (function G_dat { buf; _ } -> buf | G_gbl { buf; _ } -> buf | G_idx { buf } -> buf)
      guarded
  in
  let call =
    match kernel with
    | Exec.Staged k -> fun () -> k buffers
    | Exec.Accessor k ->
      let accs = Exec.staged_accessors args buffers in
      fun () -> k.Am_core.Acc.point accs
  in
  for z = range.zlo to range.zhi - 1 do
    for y = range.ylo to range.yhi - 1 do
      for x = range.xlo to range.xhi - 1 do
        Array.iteri (fun i g -> gather ~rank ~name ~arg_i:i g ~x ~y ~z) guarded;
        (try call ()
         with Invalid_argument msg ->
           Counters.incr Obs.check_violations;
           violation
             "check: loop %s, point %s: kernel raised Invalid_argument (%s) — \
              out-of-range staging-buffer index"
             name (point_to_string ~rank x y z) msg);
        Array.iteri (fun i g -> check_and_scatter ~rank ~name ~arg_i:i g ~x ~y ~z) guarded
      done
    done
  done;
  Array.iter merge_gbl guarded

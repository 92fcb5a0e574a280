(* Sanitizer backend: the sequential executor wrapped in access guards.

   Every argument is staged through a canary-padded buffer and checked
   against its declared access descriptor after each kernel invocation:

   - [Read] buffers are snapshot before the kernel and must be bitwise
     unchanged after it (a kernel writing a Read argument corrupts shared
     staging on the vectorised backends and loses updates on all of them);
   - [Write] buffers are poisoned with NaN instead of gathered, so a kernel
     that reads the previous value — or leaves a component unwritten —
     surfaces as a NaN in the output (the descriptor promised the library
     the old value was dead, which halo and checkpoint planning exploit);
   - [Inc] buffers start at zero and must come back finite — a NaN increment
     means the kernel computed it from some other argument's poison;
   - two canary slots past the declared [dim] hold a distinguished NaN bit
     pattern and must survive the kernel untouched (an out-of-bounds write
     into the staging pad would be silent data corruption elsewhere).

   Every argument is staged whatever the kernel form: an accessor kernel
   gets base-0 accessors over the guarded buffers, so the canary pad sits
   right past each argument's declared components.  Violations raise with
   the loop, argument index, dataset name and element coordinates.
   Results of a clean run are identical to [Exec_seq]. *)

module Access = Am_core.Access
module Counters = Am_obs.Counters
module Obs = Am_obs.Obs
open Types

exception Violation of string

(* A quiet NaN with a recognisable mantissa: kernels do not produce this bit
   pattern, so a changed canary means an out-of-range write. *)
let canary_bits = 0x7FF8DEADBEEF0001L
let canary = Int64.float_of_bits canary_bits
let pad = 2

let is_canary x = Int64.equal (Int64.bits_of_float x) canary_bits

type guarded =
  | G_dat of {
      dat : dat;
      access : Access.t;
      map : (map_t * int) option;
      buf : float array; (* dim + pad slots, canaries in the tail *)
      snapshot : float array; (* Read/Rw: pre-kernel bits for comparison *)
    }
  | G_gbl of {
      name : string;
      user_buf : float array;
      access : Access.t;
      buf : float array; (* persists across elements, like the seq backend *)
      snapshot : float array;
    }

let violation fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt

let fail ~name ~arg_i ~what ~elem fmt =
  Printf.ksprintf
    (fun s ->
      Counters.incr Obs.check_violations;
      violation "check: loop %s, arg %d (%s), element %d: %s" name arg_i what elem s)
    fmt

let guard_args args =
  List.map
    (function
      | Arg_dat { dat; map; access } ->
        G_dat
          {
            dat;
            access;
            map;
            buf = Array.make (dat.dim + pad) canary;
            snapshot = Array.make dat.dim 0.0;
          }
      | Arg_gbl { name; buf; access } ->
        let dim = Array.length buf in
        let g =
          G_gbl
            {
              name;
              user_buf = buf;
              access;
              buf = Array.make (dim + pad) canary;
              snapshot = Array.copy buf;
            }
        in
        (match access with
        | Access.Read | Access.Min | Access.Max ->
          (match g with G_gbl { buf = b; _ } -> Array.blit buf 0 b 0 dim | _ -> ())
        | Access.Inc ->
          (match g with G_gbl { buf = b; _ } -> Array.fill b 0 dim 0.0 | _ -> ())
        | Access.Write | Access.Rw ->
          invalid_arg "op2: Write/Rw access on a global argument");
        g)
    args

(* Flat base index of the element this argument touches at iteration point
   [e]; also the element coordinate reported in diagnostics. *)
let target_of ~map e =
  match map with None -> e | Some (m, k) -> m.values.((e * m.arity) + k)

let value_ix dat ~elem ~d =
  match dat.layout with
  | Aos -> (elem * dat.dim) + d
  | Soa -> (d * dat_n_elems dat) + elem

let gather_dat ~name ~arg_i g e =
  match g with
  | G_gbl _ -> ()
  | G_dat { dat; access; map; buf; snapshot } -> (
    let elem = target_of ~map e in
    match access with
    | Access.Read | Access.Rw ->
      for d = 0 to dat.dim - 1 do
        let v = dat.data.(value_ix dat ~elem ~d) in
        buf.(d) <- v;
        snapshot.(d) <- v
      done
    | Access.Write ->
      (* No gather: the descriptor says the previous value is dead. *)
      Array.fill buf 0 dat.dim canary
    | Access.Inc -> Array.fill buf 0 dat.dim 0.0
    | Access.Min | Access.Max ->
      fail ~name ~arg_i ~what:dat.dat_name ~elem "Min/Max access on a dat argument")

let check_and_scatter ~name ~arg_i g e =
  match g with
  | G_gbl { name = gname; user_buf; access; buf; snapshot } ->
    let dim = Array.length user_buf in
    for d = 0 to pad - 1 do
      if not (is_canary buf.(dim + d)) then
        fail ~name ~arg_i ~what:gname ~elem:e
          "kernel wrote past the %d declared component(s) of the global" dim
    done;
    (match access with
    | Access.Read ->
      for d = 0 to dim - 1 do
        if
          not
            (Int64.equal (Int64.bits_of_float buf.(d))
               (Int64.bits_of_float snapshot.(d)))
        then
          fail ~name ~arg_i ~what:gname ~elem:e
            "kernel wrote component %d of a Read global (%.17g -> %.17g)" d
            snapshot.(d) buf.(d)
      done
    | Access.Inc | Access.Min | Access.Max -> ()
    | Access.Write | Access.Rw -> assert false)
  | G_dat { dat; access; map; buf; snapshot } -> (
    let elem = target_of ~map e in
    for d = 0 to pad - 1 do
      if not (is_canary buf.(dat.dim + d)) then
        fail ~name ~arg_i ~what:dat.dat_name ~elem
          "kernel wrote past the %d declared component(s) of the staging buffer"
          dat.dim
      done;
    match access with
    | Access.Read ->
      for d = 0 to dat.dim - 1 do
        if
          not
            (Int64.equal (Int64.bits_of_float buf.(d))
               (Int64.bits_of_float snapshot.(d)))
        then
          fail ~name ~arg_i ~what:dat.dat_name ~elem
            "kernel wrote component %d of a Read argument (%.17g -> %.17g)" d
            snapshot.(d) buf.(d)
      done
    | Access.Write ->
      for d = 0 to dat.dim - 1 do
        if Float.is_nan buf.(d) then
          fail ~name ~arg_i ~what:dat.dat_name ~elem
            "component %d of a Write argument is NaN after the kernel: the \
             kernel read the (poisoned) previous value or never wrote the slot"
            d;
        dat.data.(value_ix dat ~elem ~d) <- buf.(d)
      done
    | Access.Rw ->
      for d = 0 to dat.dim - 1 do
        if Float.is_nan buf.(d) && not (Float.is_nan snapshot.(d)) then
          fail ~name ~arg_i ~what:dat.dat_name ~elem
            "component %d of an Rw argument became NaN inside the kernel \
             (derived from another argument's poisoned Write buffer)"
            d;
        dat.data.(value_ix dat ~elem ~d) <- buf.(d)
      done
    | Access.Inc ->
      for d = 0 to dat.dim - 1 do
        if Float.is_nan buf.(d) then
          fail ~name ~arg_i ~what:dat.dat_name ~elem
            "increment component %d is NaN (derived from another argument's \
             poisoned Write buffer)"
            d;
        let j = value_ix dat ~elem ~d in
        dat.data.(j) <- dat.data.(j) +. buf.(d)
      done
    | Access.Min | Access.Max -> assert false)

let merge_gbl = function
  | G_dat _ -> ()
  | G_gbl { user_buf; access; buf; _ } -> Am_loop.Loop.fold access user_buf buf

let run ~name ~set_size ~args ~kernel =
  Counters.incr Obs.check_loops;
  Counters.add Obs.check_elements set_size;
  let guarded = Array.of_list (guard_args args) in
  let buffers =
    Array.map (function G_dat { buf; _ } -> buf | G_gbl { buf; _ } -> buf) guarded
  in
  let kernel = Exec_common.staged_view kernel in
  for e = 0 to set_size - 1 do
    Array.iteri (fun i g -> gather_dat ~name ~arg_i:i g e) guarded;
    (try kernel buffers
     with Invalid_argument msg ->
       Counters.incr Obs.check_violations;
       violation "check: loop %s, element %d: kernel raised Invalid_argument \
                  (%s) — out-of-range staging-buffer index"
         name e msg);
    Array.iteri (fun i g -> check_and_scatter ~name ~arg_i:i g e) guarded
  done;
  Array.iter merge_gbl guarded

(* Execution engines of the OPS backends.

   A kernel comes in one of two forms ([kernel]).  A staged kernel
   receives one staging buffer per argument ([float array array],
   point-major: component [c] of stencil point [p] at [buf.(p*dim + c)]);
   an accessor kernel receives one [Acc.t] per argument — the paper's Fig 7
   OP_ACC — and reads component [c] of point [p] as
   [data.(base + off.(p) + c)].  All engines share one per-worker [frame]
   that addresses each argument in one of two modes:

   - in place: the accessor points into the dataset's padded array, [off]
     is the argument's table of flat stencil deltas ([build_offsets]) and
     the executor only sets [base] to [vbase + y*vrow + x*vcol] before each
     point.  No copy and no per-argument closure call.  Accessor kernels
     take this mode for unit-stride Read/Write/Rw dats whose dataset no
     other argument of the loop writes ([in_place_flags]: a kernel writing
     in place must not see its own write through a second argument, which
     staging would have hidden);
   - staged: a gather closure fills a per-worker staging buffer before the
     kernel and a scatter closure writes the centre point back (written
     arguments are centre-only by validation).  Every argument of a staged
     kernel takes this mode, and so do an accessor kernel's Inc dats,
     aliased dats, strided (restrict/prolong) reads, globals and the
     iteration index: the accessor then points at the buffer with
     [base = 0] and [off.(p) = p*dim].  An increment therefore starts from
     a zeroed scratch and is added to memory after the kernel under both
     forms, so Inc rounding — and with it every bitwise cross-backend
     guarantee — does not depend on the kernel form.

   Because writes target only the iteration point, structured loops are
   race-free under any disjoint partition of the range — no colouring is
   needed, which is why OPS parallelises rows directly (and why its OpenMP
   backend handles NUMA better than hand-coded code, Fig 5).

   Data is addressed through affine [view]s (base + y*row + x*col), so each
   argument compiles to one [int array] of flat offsets — one delta per
   stencil point — shared by the in-place accessor and the staged gather.
   The distributed backends substitute rank-local window views, and the
   tiled GPU simulator its scratch-tile views (affine too), without
   touching the traversal logic.  Staging copies use unsafe indexing;
   [validate_args] proves every stencil stays inside the addressable
   padded box over the whole range before execution starts. *)

module Access = Am_core.Access
module Acc = Am_core.Acc
open Types

(* Affine addressing window: component [c] of logical point (x, y) lives at
   [vbase + y*vrow + x*vcol + c] in [vdata]. *)
type view = { vdata : float array; vbase : int; vrow : int; vcol : int }

let dat_view dat =
  let pw = dat.xsize + (2 * dat.halo) in
  {
    vdata = dat.data;
    vbase = ((dat.halo * pw) + dat.halo) * dat.dim;
    vrow = pw * dat.dim;
    vcol = dat.dim;
  }

(* Bounds-checked accessors for the cold paths (tile staging, write-back). *)
let vget v ~x ~y ~c = v.vdata.(v.vbase + (y * v.vrow) + (x * v.vcol) + c)
let vset v ~x ~y ~c value = v.vdata.(v.vbase + (y * v.vrow) + (x * v.vcol) + c) <- value

type kernel = Staged of (float array array -> unit) | Accessor of (Acc.t array -> unit)

type compiled_arg =
  | C_dat of {
      view : view;
      dim : int;
      stencil : stencil;
      access : Access.t;
      stride : stride;
      offsets : int array; (* flat delta per stencil point *)
      in_place : bool; (* an accessor kernel addresses it in place *)
      gather : float array -> int -> int -> unit; (* staging buffer, x, y *)
      scatter : float array -> int -> int -> unit;
    }
  | C_gbl of { user_buf : float array; access : Access.t }
  | C_idx

type resolvers = { resolve_dat : dat -> view }

let global_resolvers = { resolve_dat = dat_view }

let ignore3 _ _ _ = ()

(* Per-stencil-point flat deltas from the iteration point's base index. *)
let build_offsets view stencil =
  Array.map (fun (dx, dy) -> (dy * view.vrow) + (dx * view.vcol)) stencil

let build_gather view ~offsets ~dim ~access ~stride =
  let { vdata; vbase; vrow; vcol } = view in
  let np = Array.length offsets in
  match access with
  | Access.Inc ->
    if dim = 1 then fun buf _ _ -> Array.unsafe_set buf 0 0.0
    else fun buf _ _ -> Array.fill buf 0 dim 0.0
  | Access.Read | Access.Rw | Access.Write ->
    if is_unit_stride stride then begin
      if np = 1 && dim = 1 then
        let o = offsets.(0) in
        fun buf x y ->
          Array.unsafe_set buf 0
            (Array.unsafe_get vdata (vbase + (y * vrow) + (x * vcol) + o))
      else if dim = 1 then
        fun buf x y ->
          let base = vbase + (y * vrow) + (x * vcol) in
          for p = 0 to np - 1 do
            Array.unsafe_set buf p
              (Array.unsafe_get vdata (base + Array.unsafe_get offsets p))
          done
      else
        fun buf x y ->
          let base = vbase + (y * vrow) + (x * vcol) in
          for p = 0 to np - 1 do
            let src = base + Array.unsafe_get offsets p in
            for d = 0 to dim - 1 do
              Array.unsafe_set buf ((p * dim) + d) (Array.unsafe_get vdata (src + d))
            done
          done
    end
    else
      fun buf x y ->
        let bx, by = apply_stride stride ~x ~y in
        let base = vbase + (by * vrow) + (bx * vcol) in
        for p = 0 to np - 1 do
          let src = base + Array.unsafe_get offsets p in
          for d = 0 to dim - 1 do
            Array.unsafe_set buf ((p * dim) + d) (Array.unsafe_get vdata (src + d))
          done
        done
  | Access.Min | Access.Max -> invalid_arg "ops: Min/Max access on a dataset"

(* Scatters are center-only and unit-stride by validation. *)
let build_scatter view ~dim ~access =
  let { vdata; vbase; vrow; vcol } = view in
  match access with
  | Access.Read -> ignore3
  | Access.Write | Access.Rw ->
    if dim = 1 then
      fun buf x y ->
        Array.unsafe_set vdata (vbase + (y * vrow) + (x * vcol)) (Array.unsafe_get buf 0)
    else
      fun buf x y ->
        let base = vbase + (y * vrow) + (x * vcol) in
        for d = 0 to dim - 1 do
          Array.unsafe_set vdata (base + d) (Array.unsafe_get buf d)
        done
  | Access.Inc ->
    if dim = 1 then
      fun buf x y ->
        let j = vbase + (y * vrow) + (x * vcol) in
        Array.unsafe_set vdata j (Array.unsafe_get vdata j +. Array.unsafe_get buf 0)
    else
      fun buf x y ->
        let base = vbase + (y * vrow) + (x * vcol) in
        for d = 0 to dim - 1 do
          let j = base + d in
          Array.unsafe_set vdata j (Array.unsafe_get vdata j +. Array.unsafe_get buf d)
        done
  | Access.Min | Access.Max -> invalid_arg "ops: Min/Max access on a dataset"

(* Which arguments an accessor kernel may address in place: a unit-stride
   Read of a dataset no argument writes, a Write/Rw of a dataset no other
   argument touches.  Anything else would let the kernel observe a write
   that staging hides until after it returns. *)
let in_place_flags args =
  let refs id =
    List.length
      (List.filter
         (function Arg_dat { dat; _ } -> dat.dat_id = id | Arg_gbl _ | Arg_idx -> false)
         args)
  in
  let written id =
    List.exists
      (function
        | Arg_dat { dat; access; _ } -> dat.dat_id = id && Access.writes access
        | Arg_gbl _ | Arg_idx -> false)
      args
  in
  List.map
    (function
      | Arg_dat { dat; access; stride; _ } when is_unit_stride stride -> (
        match access with
        | Access.Read -> not (written dat.dat_id)
        | Access.Write | Access.Rw -> refs dat.dat_id = 1
        | Access.Inc | Access.Min | Access.Max -> false)
      | Arg_dat _ | Arg_gbl _ | Arg_idx -> false)
    args

let compile_dat view ~dim ~stencil ~access ~stride ~in_place =
  let offsets = build_offsets view stencil in
  C_dat
    {
      view; dim; stencil; access; stride; offsets; in_place;
      gather = build_gather view ~offsets ~dim ~access ~stride;
      scatter = build_scatter view ~dim ~access;
    }

let compile ?(resolvers = global_resolvers) args =
  let one arg in_place =
    match arg with
    | Arg_dat { dat; stencil; access; stride } ->
      compile_dat (resolvers.resolve_dat dat) ~dim:dat.dim ~stencil ~access ~stride
        ~in_place
    | Arg_gbl { buf; access; _ } -> C_gbl { user_buf = buf; access }
    | Arg_idx -> C_idx
  in
  Array.of_list (List.map2 one args (in_place_flags args))

(* Freshness of a cached executor against the live arguments: dataset
   backing arrays are compared physically (window substitution or any data
   replacement invalidates). *)
let compiled_matches compiled args =
  Array.length compiled = List.length args
  && List.for_all2
       (fun c arg ->
         match (c, arg) with
         | C_dat cd, Arg_dat { dat; stencil; access; stride } ->
           cd.view.vdata == dat.data && cd.access = access && cd.stencil = stencil
           && cd.stride = stride
         | C_gbl cg, Arg_gbl { buf; access; _ } ->
           cg.user_buf == buf && cg.access = access
         | C_idx, Arg_idx -> true
         | (C_dat _ | C_gbl _ | C_idx), _ -> false)
       (Array.to_list compiled) args

let has_globals compiled =
  Array.exists (function C_gbl _ -> true | C_dat _ | C_idx -> false) compiled

(* ---- Frames: one worker's state for one loop call ---------------------- *)

(* The per-point work of one argument: move an in-place accessor's base,
   gather (and later scatter) a staged argument's buffer, or store the
   iteration index. *)
type slot =
  | In_place of { acc : Acc.t; vbase : int; vrow : int; vcol : int }
  | Staged_arg of {
      buf : float array;
      gather : float array -> int -> int -> unit;
      scatter : float array -> int -> int -> unit;
    }
  | Idx_arg of float array

(* [bufs] holds the staging buffers ([||] for in-place arguments), the
   global accumulators and the index buffer; [accs] the accessor of every
   argument; [before] the per-point work run before the kernel, in
   argument order; [after] the scatters of the staged arguments that
   write. *)
type frame = {
  compiled : compiled_arg array;
  kernel : kernel;
  bufs : float array array;
  accs : Acc.t array;
  before : slot array;
  after : slot array;
}

let addressed_in_place kernel = function
  | C_dat { in_place; _ } -> (
    in_place && match kernel with Accessor _ -> true | Staged _ -> false)
  | C_gbl _ | C_idx -> false

let make_buffers compiled kernel =
  Array.map
    (fun c ->
      match c with
      | C_dat { dim; stencil; _ } ->
        if addressed_in_place kernel c then [||]
        else Array.make (dim * Array.length stencil) 0.0
      | C_idx -> Array.make 2 0.0
      | C_gbl { user_buf; access } -> (
        match access with
        | Access.Read | Access.Min | Access.Max -> Array.copy user_buf
        | Access.Inc -> Array.make (Array.length user_buf) 0.0
        | Access.Write | Access.Rw ->
          invalid_arg "ops: Write/Rw access on a global argument"))
    compiled

(* The frame of [compiled] over the given buffers (shared, not copied). *)
let frame_of compiled kernel bufs =
  let accs =
    Array.mapi
      (fun i c ->
        match c with
        | C_dat { view; offsets; _ } when addressed_in_place kernel c ->
          { Acc.data = view.vdata; base = 0; off = offsets }
        | C_dat { dim; _ } -> Acc.of_buffer ~dim bufs.(i)
        | C_gbl _ | C_idx -> Acc.of_array bufs.(i))
      compiled
  in
  let before = ref [] and after = ref [] in
  Array.iteri
    (fun i c ->
      match c with
      | C_gbl _ -> ()
      | C_idx -> before := Idx_arg bufs.(i) :: !before
      | C_dat { view; _ } when addressed_in_place kernel c ->
        before :=
          In_place { acc = accs.(i); vbase = view.vbase; vrow = view.vrow; vcol = view.vcol }
          :: !before
      | C_dat { access; gather; scatter; _ } ->
        let s = Staged_arg { buf = bufs.(i); gather; scatter } in
        before := s :: !before;
        if Access.writes access then after := s :: !after)
    compiled;
  {
    compiled;
    kernel;
    bufs;
    accs;
    before = Array.of_list (List.rev !before);
    after = Array.of_list (List.rev !after);
  }

let make_frame compiled kernel = frame_of compiled kernel (make_buffers compiled kernel)

(* A fresh frame starting from [f]'s buffer contents (its global values):
   one per worker or per tile of the wavefront executor. *)
let copy_frame f = frame_of f.compiled f.kernel (Array.map Array.copy f.bufs)

(* Point every argument at (x, y): move in-place bases, gather staged
   buffers (an Inc buffer is zeroed), store the iteration index. *)
let[@inline] enter before x y =
  for i = 0 to Array.length before - 1 do
    match Array.unsafe_get before i with
    | In_place { acc; vbase; vrow; vcol } -> acc.Acc.base <- vbase + (y * vrow) + (x * vcol)
    | Staged_arg { buf; gather; _ } -> gather buf x y
    | Idx_arg buf ->
      buf.(0) <- Float.of_int x;
      buf.(1) <- Float.of_int y
  done

(* Write (x, y)'s staged results back (an Inc buffer is added). *)
let[@inline] leave after x y =
  for i = 0 to Array.length after - 1 do
    match Array.unsafe_get after i with
    | Staged_arg { buf; scatter; _ } -> scatter buf x y
    | In_place _ | Idx_arg _ -> ()
  done

let traverse f ~range kernel views =
  let before = f.before and after = f.after in
  for y = range.ylo to range.yhi - 1 do
    for x = range.xlo to range.xhi - 1 do
      enter before x y;
      kernel views;
      leave after x y
    done
  done

(* Every point of [range], rows outermost, with the kernel form matched
   once here rather than per point.  Also the slab runner of the
   lazy-chain tiled executors: the caller owns the frame — which persists
   across slabs so global accumulations keep the eager traversal order —
   and merges globals once after the whole chain. *)
let run_range f ~range =
  match f.kernel with
  | Staged k -> traverse f ~range k f.bufs
  | Accessor k -> traverse f ~range k f.accs

let arg_dim = function
  | Arg_dat { dat; _ } -> dat.dim
  | Arg_gbl { buf; _ } -> Array.length buf
  | Arg_idx -> 2

(* The kernel as a function of staging buffers, for the engines that stage
   every argument themselves (Check, footprint probing): accessors over
   point-major buffers, whose offset tables cover every whole point a
   buffer holds — a canary pad included. *)
let staged_accessors args bufs =
  Array.of_list (List.mapi (fun i arg -> Acc.of_buffer ~dim:(arg_dim arg) bufs.(i)) args)

let staged_view args = function
  | Staged k -> k
  | Accessor k -> fun bufs -> k (staged_accessors args bufs)

(* ---- Global reductions -------------------------------------------------- *)

let merge_globals compiled buffers =
  Array.iteri
    (fun i c ->
      match c with
      | C_dat _ | C_idx -> ()
      | C_gbl { user_buf; access } -> (
        let acc = buffers.(i) in
        match access with
        | Access.Read -> ()
        | Access.Inc ->
          for d = 0 to Array.length user_buf - 1 do
            user_buf.(d) <- user_buf.(d) +. acc.(d)
          done
        | Access.Min ->
          for d = 0 to Array.length user_buf - 1 do
            user_buf.(d) <- Float.min user_buf.(d) acc.(d)
          done
        | Access.Max ->
          for d = 0 to Array.length user_buf - 1 do
            user_buf.(d) <- Float.max user_buf.(d) acc.(d)
          done
        | Access.Write | Access.Rw -> assert false))
    compiled

(* Fold a frame's global accumulators into the user buffers. *)
let merge_frame f = if has_globals f.compiled then merge_globals f.compiled f.bufs

(* One level of the per-worker reduction tree: fold [src]'s global partials
   into [dst]'s (Inc/Min/Max are associative and commutative). *)
let combine_globals compiled dst src =
  Array.iteri
    (fun i c ->
      match c with
      | C_dat _ | C_idx -> ()
      | C_gbl { access; _ } -> (
        let a = dst.(i) and b = src.(i) in
        match access with
        | Access.Read -> ()
        | Access.Inc ->
          for d = 0 to Array.length a - 1 do
            a.(d) <- a.(d) +. b.(d)
          done
        | Access.Min ->
          for d = 0 to Array.length a - 1 do
            a.(d) <- Float.min a.(d) b.(d)
          done
        | Access.Max ->
          for d = 0 to Array.length a - 1 do
            a.(d) <- Float.max a.(d) b.(d)
          done
        | Access.Write | Access.Rw -> assert false))
    compiled

(* Pairwise tree reduction of per-worker frames' accumulators into the user
   buffers (replaces the mutex-serialised per-chunk merge). *)
let merge_worker_globals compiled frames =
  match frames with
  | [] -> ()
  | frames ->
    let traced = Am_obs.Obs.tracing () in
    if traced then Am_obs.Obs.begin_span ~cat:Am_obs.Tracer.Reduce "merge_globals";
    let arr = Array.of_list (List.map (fun f -> f.bufs) frames) in
    let n = ref (Array.length arr) in
    while !n > 1 do
      let half = (!n + 1) / 2 in
      for i = 0 to !n - half - 1 do
        combine_globals compiled arr.(i) arr.(half + i)
      done;
      n := half
    done;
    merge_globals compiled arr.(0);
    if traced then Am_obs.Obs.end_span ()

(* ---- Sequential ----------------------------------------------------- *)

let run_seq ?resolvers ?compiled ~range ~args ~kernel () =
  let compiled =
    match compiled with Some c -> c | None -> compile ?resolvers args
  in
  let f = make_frame compiled kernel in
  run_range f ~range;
  merge_frame f

(* ---- Shared memory ("OpenMP") --------------------------------------- *)

let run_shared ?resolvers ?compiled pool ~range ~args ~kernel =
  let compiled =
    match compiled with Some c -> c | None -> compile ?resolvers args
  in
  let frames =
    Am_taskpool.Pool.parallel_for_local pool ~lo:range.ylo ~hi:range.yhi
      ~local:(fun () -> make_frame compiled kernel)
      ~body:(fun f ylo yhi -> run_range f ~range:{ range with ylo; yhi })
  in
  if has_globals compiled then merge_worker_globals compiled frames

(* ---- GPU simulator --------------------------------------------------- *)

type cuda_strategy = Cuda_global | Cuda_tiled

type cuda_config = { tile_x : int; tile_y : int; strategy : cuda_strategy }

let default_cuda_config = { tile_x = 32; tile_y = 4; strategy = Cuda_tiled }

(* Staged tile execution: every dataset argument is copied (with the
   stencil-extent ring) into a scratch tile, the kernel works on the
   scratch — in place or staged, exactly as on global memory, through a
   frame over the scratch views — and written center regions are copied
   back: the structure of OPS's shared-memory CUDA kernels. *)
let run_cuda ?compiled config ~range ~args ~kernel =
  let compiled =
    match compiled with Some c -> c | None -> compile args
  in
  let f = make_frame compiled kernel in
  let xtiles = (range.xhi - range.xlo + config.tile_x - 1) / config.tile_x in
  let ytiles = (range.yhi - range.ylo + config.tile_y - 1) / config.tile_y in
  for ty = 0 to ytiles - 1 do
    for tx = 0 to xtiles - 1 do
      let txlo = range.xlo + (tx * config.tile_x) in
      let txhi = min range.xhi (txlo + config.tile_x) in
      let tylo = range.ylo + (ty * config.tile_y) in
      let tyhi = min range.yhi (tylo + config.tile_y) in
      let tile = { xlo = txlo; xhi = txhi; ylo = tylo; yhi = tyhi } in
      match config.strategy with
      | Cuda_global -> run_range f ~range:tile
      | Cuda_tiled ->
        (* Build a staged view per dataset argument.  The gather covers the
           tile plus the stencil-extent ring, clamped to the dataset's
           addressable box: ring corners the stencil never reaches may fall
           outside the ghost ring when the range itself extends into it
           (validation guarantees actual reads stay inside). *)
        let args_arr = Array.of_list args in
        let staged =
          Array.mapi
            (fun i c ->
              match c with
              | C_dat { stride; _ } when not (is_unit_stride stride) ->
                (* Grid-transfer reads bypass the scratch tile (their
                   footprint is not tile-shaped); they read global memory
                   directly, as OPS's generated multigrid kernels do. *)
                c
              | C_dat { view; dim; stencil; access; stride; in_place; _ } ->
                let dat =
                  match args_arr.(i) with
                  | Arg_dat { dat; _ } -> dat
                  | Arg_gbl _ | Arg_idx -> assert false
                in
                let ext = stencil_extent stencil in
                let sxlo = tile.xlo - ext and sxhi = tile.xhi + ext in
                let sylo = tile.ylo - ext and syhi = tile.yhi + ext in
                let w = sxhi - sxlo in
                let scratch = Array.make (w * (syhi - sylo) * dim) 0.0 in
                let sview =
                  {
                    vdata = scratch;
                    vbase = (((-sylo) * w) - sxlo) * dim;
                    vrow = w * dim;
                    vcol = dim;
                  }
                in
                if Access.reads access || access = Access.Write then begin
                  let gxlo = max sxlo (x_min dat) and gxhi = min sxhi (x_max dat) in
                  let gylo = max sylo (y_min dat) and gyhi = min syhi (y_max dat) in
                  for y = gylo to gyhi - 1 do
                    for x = gxlo to gxhi - 1 do
                      for c = 0 to dim - 1 do
                        vset sview ~x ~y ~c (vget view ~x ~y ~c)
                      done
                    done
                  done
                end;
                compile_dat sview ~dim ~stencil ~access ~stride ~in_place
              | (C_gbl _ | C_idx) as c -> c)
            compiled
        in
        (* The tile's frame shares the loop frame's buffers, so global
           accumulators persist across tiles. *)
        run_range (frame_of staged kernel f.bufs) ~range:tile;
        (* Write back center regions of written datasets; increment-only
           scratch tiles start from zero, so they are added. *)
        Array.iteri
          (fun i c ->
            match (c, staged.(i)) with
            | C_dat { view; dim; access; _ }, C_dat { view = sview; _ }
              when Access.writes access ->
              for y = tile.ylo to tile.yhi - 1 do
                for x = tile.xlo to tile.xhi - 1 do
                  for d = 0 to dim - 1 do
                    let v = vget sview ~x ~y ~c:d in
                    if access = Access.Inc then
                      vset view ~x ~y ~c:d (vget view ~x ~y ~c:d +. v)
                    else vset view ~x ~y ~c:d v
                  done
                done
              done
            | _ -> ())
          compiled
    done
  done;
  merge_frame f

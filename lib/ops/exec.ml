(* Execution engines of the OPS backends, one set for every block rank.

   A kernel comes in one of two forms ([kernel]).  A staged kernel
   receives one staging buffer per argument ([float array array],
   point-major: component [c] of stencil point [p] at [buf.(p*dim + c)]);
   an accessor kernel receives one [Acc.t] per argument — the paper's Fig 7
   OP_ACC — and reads component [c] of point [p] as
   [data.(base + off.(p) + c)].  Data is addressed through affine rank-3
   [view]s, so component [c] of point (x, y, z) lives at
   [vbase + z*vplane + y*vrow + x*vcol + c]; 1D and 2D blocks simply
   iterate z (and y) over [0, 1).  Each argument compiles to one [int
   array] of flat offsets — one delta per stencil point — shared by the
   in-place accessor and the staged gather.  The engines address each
   argument in one of two modes:

   - in place: the accessor points into the dataset's padded array, [off]
     is the argument's table of flat stencil deltas ([build_offsets]) and
     the executor only sets [base] to the view's index of the point before
     each point.  No copy and no per-argument closure call.  Accessor
     kernels take this mode for unit-stride Read/Write/Rw dats whose
     dataset no other argument of the loop writes ([in_place]: a kernel
     writing in place must not see its own write through a second
     argument, which staging would have hidden);
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

   An accessor kernel is a kernel value ([Acc.kernel]) with a point form
   and, when [let%kernel] generated it, one range walker per declared
   signature, with the body inlined into a loop nest over a whole box.  A
   frame runs the walker whose signature the arguments match when every
   dataset argument is in place and the views of each layout label agree
   ([range_walker]): once per range it is handed (Seq's range, a worker's
   chunk, a Cuda_sim tile, a rank window's core or boundary box), over
   each argument's place (its view and offset table, or a global's
   buffer).  Otherwise — a staged argument, a lifted point function, a
   staged Cuda_sim tile whose scratch views of one label differ — the
   frame's point walker calls the point form at every point, and so do
   the engines that stage every argument themselves (Check, footprint
   probing), which therefore see the kernel as written.

   A staged kernel walks its compiled arguments directly; only an accessor
   kernel's frame builds accessors and per-point slots, or places, so a
   handle-less staged loop — compiled afresh on every call and every rank
   — costs no more than its buffers.

   Because writes target only the iteration point, structured loops are
   race-free under any disjoint partition of the range — no colouring is
   needed, which is why OPS parallelises the outermost axis directly (and
   why its OpenMP backend handles NUMA better than hand-coded code, Fig 5).
   The distributed backends substitute rank-local window views, and the
   tiled GPU simulator its scratch-tile views (affine too), without
   touching the traversal logic.  Staging copies use unsafe indexing;
   [validate_args] proves every stencil stays inside the addressable
   padded box over the whole range before execution starts. *)

module Access = Am_core.Access
module Acc = Am_core.Acc
open Types

type view = { vdata : float array; vbase : int; vplane : int; vrow : int; vcol : int }

let dat_view dat =
  let px = padded_x dat and py = padded_y dat in
  {
    vdata = dat.data;
    vbase = ((((ghost_z dat * py) + ghost_y dat) * px) + dat.halo) * dat.dim;
    vplane = py * px * dat.dim;
    vrow = px * dat.dim;
    vcol = dat.dim;
  }

(* Bounds-checked accessors for the cold paths (tile staging, write-back). *)
let vget v ~x ~y ~z ~c =
  v.vdata.(v.vbase + (z * v.vplane) + (y * v.vrow) + (x * v.vcol) + c)

let vset v ~x ~y ~z ~c value =
  v.vdata.(v.vbase + (z * v.vplane) + (y * v.vrow) + (x * v.vcol) + c) <- value

type kernel = Staged of (float array array -> unit) | Accessor of Acc.kernel

type compiled_arg =
  | C_dat of {
      view : view;
      dim : int;
      stencil : stencil;
      access : Access.t;
      stride : stride;
      offsets : int array; (* flat delta per stencil point *)
      gather : float array -> int -> int -> int -> unit; (* staging buffer, x, y, z *)
      scatter : float array -> int -> int -> int -> unit;
    }
  | C_gbl of { user_buf : float array; access : Access.t }
  | C_idx of int (* number of iteration indices *)

type resolvers = { resolve_dat : dat -> view }

let global_resolvers = { resolve_dat = dat_view }

let ignore4 _ _ _ _ = ()

(* Per-stencil-point flat deltas from the iteration point's base index. *)
let build_offsets view stencil =
  let n = npoints stencil in
  let offsets = Array.make n 0 in
  for p = 0 to n - 1 do
    offsets.(p) <-
      (oz stencil p * view.vplane) + (oy stencil p * view.vrow) + (ox stencil p * view.vcol)
  done;
  offsets

let build_gather view ~offsets ~dim ~access ~stride =
  let { vdata; vbase; vplane; vrow; vcol } = view in
  let np = Array.length offsets in
  match access with
  | Access.Inc ->
    if dim = 1 then fun buf _ _ _ -> Array.unsafe_set buf 0 0.0
    else fun buf _ _ _ -> Array.fill buf 0 dim 0.0
  | Access.Read | Access.Rw | Access.Write ->
    if is_unit_stride stride then begin
      if np = 1 && dim = 1 then
        let o = offsets.(0) in
        fun buf x y z ->
          Array.unsafe_set buf 0
            (Array.unsafe_get vdata (vbase + (z * vplane) + (y * vrow) + (x * vcol) + o))
      else if dim = 1 then
        fun buf x y z ->
          let base = vbase + (z * vplane) + (y * vrow) + (x * vcol) in
          for p = 0 to np - 1 do
            Array.unsafe_set buf p
              (Array.unsafe_get vdata (base + Array.unsafe_get offsets p))
          done
      else
        fun buf x y z ->
          let base = vbase + (z * vplane) + (y * vrow) + (x * vcol) in
          for p = 0 to np - 1 do
            let src = base + Array.unsafe_get offsets p in
            for d = 0 to dim - 1 do
              Array.unsafe_set buf ((p * dim) + d) (Array.unsafe_get vdata (src + d))
            done
          done
    end
    else
      fun buf x y z ->
        let base =
          vbase + (stride_z stride z * vplane) + (stride_y stride y * vrow)
          + (stride_x stride x * vcol)
        in
        for p = 0 to np - 1 do
          let src = base + Array.unsafe_get offsets p in
          for d = 0 to dim - 1 do
            Array.unsafe_set buf ((p * dim) + d) (Array.unsafe_get vdata (src + d))
          done
        done
  | Access.Min | Access.Max -> invalid_arg "ops: Min/Max access on a dataset"

(* Scatters are center-only and unit-stride by validation. *)
let build_scatter view ~dim ~access =
  let { vdata; vbase; vplane; vrow; vcol } = view in
  match access with
  | Access.Read -> ignore4
  | Access.Write | Access.Rw ->
    if dim = 1 then
      fun buf x y z ->
        Array.unsafe_set vdata
          (vbase + (z * vplane) + (y * vrow) + (x * vcol))
          (Array.unsafe_get buf 0)
    else
      fun buf x y z ->
        let base = vbase + (z * vplane) + (y * vrow) + (x * vcol) in
        for d = 0 to dim - 1 do
          Array.unsafe_set vdata (base + d) (Array.unsafe_get buf d)
        done
  | Access.Inc ->
    if dim = 1 then
      fun buf x y z ->
        let j = vbase + (z * vplane) + (y * vrow) + (x * vcol) in
        Array.unsafe_set vdata j (Array.unsafe_get vdata j +. Array.unsafe_get buf 0)
    else
      fun buf x y z ->
        let base = vbase + (z * vplane) + (y * vrow) + (x * vcol) in
        for d = 0 to dim - 1 do
          let j = base + d in
          Array.unsafe_set vdata j (Array.unsafe_get vdata j +. Array.unsafe_get buf d)
        done
  | Access.Min | Access.Max -> invalid_arg "ops: Min/Max access on a dataset"

let compile_dat view ~dim ~stencil ~access ~stride =
  let offsets = build_offsets view stencil in
  C_dat
    {
      view; dim; stencil; access; stride; offsets;
      gather = build_gather view ~offsets ~dim ~access ~stride;
      scatter = build_scatter view ~dim ~access;
    }

let compile ?(resolvers = global_resolvers) args =
  Array.map
    (function
      | Arg_dat { dat; stencil; access; stride } ->
        compile_dat (resolvers.resolve_dat dat) ~dim:dat.dim ~stencil ~access ~stride
      | Arg_gbl { buf; access; _ } -> C_gbl { user_buf = buf; access }
      | Arg_idx n -> C_idx n)
    (Array.of_list args)

(* Freshness of a cached executor against the live arguments: dataset
   backing arrays are compared physically (window substitution or any data
   replacement invalidates).  The array and the list are walked together,
   so a warm call allocates nothing here. *)
let arg_matches c arg =
  match (c, arg) with
  | C_dat cd, Arg_dat { dat; stencil; access; stride } ->
    cd.view.vdata == dat.data && cd.access = access && cd.stencil = stencil
    && cd.stride = stride
  | C_gbl cg, Arg_gbl { buf; access; _ } -> cg.user_buf == buf && cg.access = access
  | C_idx _, Arg_idx _ -> true
  | (C_dat _ | C_gbl _ | C_idx _), _ -> false

let rec matches_from compiled i = function
  | [] -> i = Array.length compiled
  | arg :: rest ->
    i < Array.length compiled
    && arg_matches compiled.(i) arg
    && matches_from compiled (i + 1) rest

let compiled_matches compiled args = matches_from compiled 0 args

let has_globals compiled =
  Array.exists (function C_gbl _ -> true | C_dat _ | C_idx _ -> false) compiled

(* Whether an accessor kernel may address argument [i] in place: a
   unit-stride Read of a dataset no argument writes, a Write/Rw of a
   dataset no other argument touches.  Anything else would let the kernel
   observe a write that staging hides until after it returns.  Arguments
   share a dataset exactly when they share a backing array. *)
let in_place compiled i =
  match compiled.(i) with
  | C_dat { view; access; stride; _ } when is_unit_stride stride -> (
    let clash j =
      j <> i
      &&
      match compiled.(j) with
      | C_dat c ->
        c.view.vdata == view.vdata && (access <> Access.Read || Access.writes c.access)
      | C_gbl _ | C_idx _ -> false
    in
    match access with
    | Access.Read | Access.Write | Access.Rw ->
      let ok = ref true in
      for j = 0 to Array.length compiled - 1 do
        if clash j then ok := false
      done;
      !ok
    | Access.Inc | Access.Min | Access.Max -> false)
  | C_dat _ | C_gbl _ | C_idx _ -> false

(* One staging buffer per argument; an accessor kernel's in-place
   arguments get none ([||] is what marks them in place), the index
   argument one slot per iteration index. *)
let make_buffers compiled kernel =
  let n = Array.length compiled in
  let bufs = Array.make n [||] in
  for i = 0 to n - 1 do
    bufs.(i) <-
      (match compiled.(i) with
      | C_dat { dim; stencil; _ } -> (
        match kernel with
        | Accessor _ when in_place compiled i -> [||]
        | Accessor _ | Staged _ -> Array.make (dim * npoints stencil) 0.0)
      | C_idx n -> Array.make n 0.0
      | C_gbl { user_buf; access } -> (
        match access with
        | Access.Read | Access.Min | Access.Max -> Array.copy user_buf
        | Access.Inc -> Array.make (Array.length user_buf) 0.0
        | Access.Write | Access.Rw ->
          invalid_arg "ops: Write/Rw access on a global argument"))
  done;
  bufs

(* ---- Frames: one worker's state for one loop call ---------------------- *)

(* The per-point work of one argument of an accessor kernel: move an
   in-place accessor's base (from [row], its view's index of the current
   row's x = 0, set once per row), gather (and later scatter) a staged
   argument's buffer, or store the iteration index. *)
type slot =
  | In_place of {
      acc : Acc.t;
      vbase : int;
      vplane : int;
      vrow : int;
      vcol : int;
      mutable row : int;
    }
  | Staged_arg of {
      buf : float array;
      gather : float array -> int -> int -> int -> unit;
      scatter : float array -> int -> int -> int -> unit;
    }
  | Idx_arg of float array

(* A range walker and what it runs over: one place per argument. *)
type walk = { walker : Acc.range_walker; places : Acc.place array }

(* [bufs] holds the staging buffers, the global accumulators and the index
   buffer.  An accessor kernel's frame adds either [walk], when it runs the
   kernel's range walker, or the point walker's [accs], the accessor of
   every argument, [before], the per-point work run before the kernel in
   argument order, and [after], the scatters of the staged arguments that
   write; a staged kernel's frame leaves them empty and walks
   [compiled]. *)
type frame = {
  compiled : compiled_arg array;
  kernel : kernel;
  bufs : float array array;
  accs : Acc.t array;
  before : slot array;
  after : slot array;
  walk : walk option;
}

(* ---- Range walkers ------------------------------------------------------ *)

(* Whether stencil [s] is exactly the declared offsets.  Closure-free, as
   the per-call check calls it on every dataset argument. *)
let rec points_from (declared : (int * int * int) array) s p =
  p >= Array.length declared
  ||
  let x, y, z = declared.(p) in
  ox s p = x && oy s p = y && oz s p = z && points_from declared s (p + 1)

let stencil_is declared s = Array.length declared = npoints s && points_from declared s 0

(* The first argument of [sg] from [j] on whose layout label is [label]. *)
let rec first_label (sg : Acc.grid_sig array) label j =
  match sg.(j) with
  | Acc.Grid_dat { label = l; _ } when String.equal l label -> j
  | Acc.Grid_dat _ | Acc.Grid_gbl _ -> first_label sg label (j + 1)

(* Whether a walker for [sg] may run over [compiled] with the buffers
   [bufs]: every dataset argument has the declared stencil, is addressed
   in place ([bufs.(i)] empty) and is seen through the same view as its
   label's first argument.  The loop has already held the call to one of
   the kernel's signatures (dims, access modes, lengths, unit strides), so
   the stencils pick the walker.  Allocates nothing. *)
let rec walkable (sg : Acc.grid_sig array) compiled bufs i =
  i >= Array.length compiled
  || (match (sg.(i), compiled.(i)) with
     | Acc.Grid_dat { label; stencil; _ }, C_dat c -> (
       stencil_is stencil c.stencil
       && Array.length bufs.(i) = 0
       &&
       match compiled.(first_label sg label 0) with
       | C_dat f ->
         f.view.vbase = c.view.vbase && f.view.vplane = c.view.vplane
         && f.view.vrow = c.view.vrow && f.view.vcol = c.view.vcol
       | C_gbl _ | C_idx _ -> false)
     | Acc.Grid_gbl _, C_gbl _ -> true
     | (Acc.Grid_dat _ | Acc.Grid_gbl _), _ -> false)
     && walkable sg compiled bufs (i + 1)

(* The walker of [k] from the [w]th on that a frame over [compiled] and
   [bufs] runs, if any. *)
let rec range_walker (k : Acc.kernel) compiled bufs w =
  if w >= Array.length k.Acc.walkers then None
  else
    let walker = k.Acc.walkers.(w) in
    if
      Array.length walker.Acc.signature = Array.length compiled
      && walkable walker.Acc.signature compiled bufs 0
    then Some walker
    else range_walker k compiled bufs (w + 1)

(* Each argument's place: a dataset's view and offset table, a global's
   buffer. *)
let places compiled bufs =
  Array.mapi
    (fun i c ->
      match c with
      | C_dat { view; offsets; _ } ->
        { Acc.pdata = view.vdata; pbase = view.vbase; pplane = view.vplane; prow = view.vrow;
          poff = offsets }
      | C_gbl _ | C_idx _ ->
        { Acc.pdata = bufs.(i); pbase = 0; pplane = 0; prow = 0; poff = Acc.single })
    compiled

(* The frame of [compiled] over the given buffers (shared, not copied). *)
let frame_of compiled kernel bufs =
  match kernel with
  | Staged _ -> { compiled; kernel; bufs; accs = [||]; before = [||]; after = [||]; walk = None }
  | Accessor k -> (
    match range_walker k compiled bufs 0 with
    | Some walker ->
      Am_obs.Counters.incr Am_obs.Obs.ops_walker_frames;
      let walk = Some { walker; places = places compiled bufs } in
      { compiled; kernel; bufs; accs = [||]; before = [||]; after = [||]; walk }
    | None ->
      Am_obs.Counters.incr Am_obs.Obs.ops_point_frames;
      let placed i = Array.length bufs.(i) = 0 in
      let accs =
        Array.mapi
          (fun i c ->
            match c with
            | C_dat { view; offsets; _ } when placed i ->
              { Acc.data = view.vdata; base = 0; off = offsets }
            | C_dat { dim; _ } -> Acc.of_buffer ~dim bufs.(i)
            | C_gbl _ | C_idx _ -> Acc.of_array bufs.(i))
          compiled
      in
      let before = ref [] and after = ref [] in
      Array.iteri
        (fun i c ->
          match c with
          | C_gbl _ -> ()
          | C_idx _ -> before := Idx_arg bufs.(i) :: !before
          | C_dat { view = { vbase; vplane; vrow; vcol; _ }; _ } when placed i ->
            before :=
              In_place { acc = accs.(i); vbase; vplane; vrow; vcol; row = 0 } :: !before
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
        walk = None;
      })

let make_frame compiled kernel = frame_of compiled kernel (make_buffers compiled kernel)

let[@inline] set_idx buf x y z =
  Array.unsafe_set buf 0 (Float.of_int x);
  let n = Array.length buf in
  if n > 1 then Array.unsafe_set buf 1 (Float.of_int y);
  if n > 2 then Array.unsafe_set buf 2 (Float.of_int z)

(* Every point of [range], z outermost, staging every argument through
   the compiled gathers and scatters. *)
let traverse_staged compiled bufs k ~range =
  let n = Array.length compiled in
  for z = range.zlo to range.zhi - 1 do
    for y = range.ylo to range.yhi - 1 do
      for x = range.xlo to range.xhi - 1 do
        for i = 0 to n - 1 do
          match Array.unsafe_get compiled i with
          | C_dat { gather; _ } -> gather (Array.unsafe_get bufs i) x y z
          | C_idx _ -> set_idx (Array.unsafe_get bufs i) x y z
          | C_gbl _ -> ()
        done;
        k bufs;
        for i = 0 to n - 1 do
          match Array.unsafe_get compiled i with
          | C_dat { access = Access.Read; _ } | C_gbl _ | C_idx _ -> ()
          | C_dat { scatter; _ } -> scatter (Array.unsafe_get bufs i) x y z
        done
      done
    done
  done

let[@inline] enter_row before y z =
  for i = 0 to Array.length before - 1 do
    match Array.unsafe_get before i with
    | In_place s -> s.row <- s.vbase + (z * s.vplane) + (y * s.vrow)
    | Staged_arg _ | Idx_arg _ -> ()
  done

(* Point every accessor at (x, y, z) of the entered row: move in-place
   bases, gather staged buffers (an Inc buffer is zeroed), store the
   iteration index. *)
let[@inline] enter before x y z =
  for i = 0 to Array.length before - 1 do
    match Array.unsafe_get before i with
    | In_place { acc; row; vcol; _ } -> acc.Acc.base <- row + (x * vcol)
    | Staged_arg { buf; gather; _ } -> gather buf x y z
    | Idx_arg buf -> set_idx buf x y z
  done

(* Write (x, y, z)'s staged results back (an Inc buffer is added). *)
let[@inline] leave after x y z =
  for i = 0 to Array.length after - 1 do
    match Array.unsafe_get after i with
    | Staged_arg { buf; scatter; _ } -> scatter buf x y z
    | In_place _ | Idx_arg _ -> ()
  done

let traverse_acc f k ~range =
  let before = f.before and after = f.after and accs = f.accs in
  for z = range.zlo to range.zhi - 1 do
    for y = range.ylo to range.yhi - 1 do
      enter_row before y z;
      for x = range.xlo to range.xhi - 1 do
        enter before x y z;
        k accs;
        leave after x y z
      done
    done
  done

(* Every point of [range], z outermost, with the kernel form matched once
   here rather than per point: an accessor kernel's range walker, called
   once, when the frame has one, its point form at every point
   otherwise. *)
let run_range f ~range =
  match (f.kernel, f.walk) with
  | Staged k, _ -> traverse_staged f.compiled f.bufs k ~range
  | Accessor _, Some { walker; places } ->
    walker.Acc.range places range.xlo range.xhi range.ylo range.yhi range.zlo range.zhi
  | Accessor k, None -> traverse_acc f k.Acc.point ~range

let arg_dim = function
  | Arg_dat { dat; _ } -> dat.dim
  | Arg_gbl { buf; _ } -> Array.length buf
  | Arg_idx n -> n

(* The kernel as a function of staging buffers, for the engines that stage
   every argument themselves (Check, footprint probing): accessors over
   point-major buffers, whose offset tables cover every whole point a
   buffer holds — a canary pad included. *)
let staged_accessors args bufs =
  Array.of_list (List.mapi (fun i arg -> Acc.of_buffer ~dim:(arg_dim arg) bufs.(i)) args)

let staged_view args = function
  | Staged k -> k
  | Accessor k -> fun bufs -> k.Acc.point (staged_accessors args bufs)

(* ---- Global reductions -------------------------------------------------- *)

let merge_globals compiled buffers =
  Array.iteri
    (fun i -> function
      | C_gbl { user_buf; access } -> Am_loop.Loop.fold access user_buf buffers.(i)
      | C_dat _ | C_idx _ -> ())
    compiled

(* Fold a frame's global accumulators into the user buffers. *)
let merge_frame f = if has_globals f.compiled then merge_globals f.compiled f.bufs

(* Pairwise tree reduction of per-worker frames' accumulators into the user
   buffers (replaces the mutex-serialised per-chunk merge). *)
let merge_worker_globals compiled frames =
  Am_loop.Loop.tree_merge
    (List.map (fun f -> f.bufs) frames)
    ~finish:(merge_globals compiled)
    ~combine:(fun dst src ->
      Array.iteri
        (fun i -> function
          | C_gbl { access; _ } -> Am_loop.Loop.fold access dst.(i) src.(i)
          | C_dat _ | C_idx _ -> ())
        compiled)

(* ---- Sequential ----------------------------------------------------- *)

let run_seq ?resolvers ?compiled ~range ~args ~kernel () =
  let compiled =
    match compiled with Some c -> c | None -> compile ?resolvers args
  in
  let f = make_frame compiled kernel in
  run_range f ~range;
  merge_frame f

(* ---- Shared memory ("OpenMP") --------------------------------------- *)

(* The pool splits [axis] — the block's outermost — into chunks, each run
   through a worker-local frame; global partials tree-merge at the end. *)
let run_shared ?resolvers ?compiled pool ~axis ~range ~args ~kernel =
  let compiled =
    match compiled with Some c -> c | None -> compile ?resolvers args
  in
  let frames =
    Am_taskpool.Pool.parallel_for_local pool ~lo:(lo axis range) ~hi:(hi axis range)
      ~local:(fun () -> make_frame compiled kernel)
      ~body:(fun f lo hi -> run_range f ~range:(with_axis axis range ~lo ~hi))
  in
  if has_globals compiled then merge_worker_globals compiled frames

(* Intra-rank execution of the distributed backends: hybrid MPI+OpenMP
   runs each rank's share through the shared-memory engine (centre-only
   writes make this race-free with no per-rank planning needed). *)
type rank_exec = Rank_seq | Rank_shared of Am_taskpool.Pool.t

let run_rank exec ~resolvers ~axis ~range ~args ~kernel =
  match exec with
  | Rank_seq -> run_seq ~resolvers ~range ~args ~kernel ()
  | Rank_shared pool -> run_shared ~resolvers pool ~axis ~range ~args ~kernel

(* ---- GPU simulator --------------------------------------------------- *)

(* Thread-block shapes of the facades' [Cuda_sim] backends: [cuda_config]
   for 2D blocks (whose staging switch is the [strategy]), [cuda_config1]
   for 1D and [cuda_config3] for 3D — the shape [run_cuda] takes, a lower
   rank's absent axes being one thread wide. *)
type cuda_strategy = Cuda_global | Cuda_tiled

type cuda_config = { tile_x : int; tile_y : int; strategy : cuda_strategy }

let default_cuda_config = { tile_x = 32; tile_y = 4; strategy = Cuda_tiled }

type cuda_config1 = { tile_x : int; staged : bool }

let default_cuda_config1 : cuda_config1 = { tile_x = 64; staged = true }

type cuda_config3 = { tile_x : int; tile_y : int; tile_z : int; staged : bool }

let default_cuda_config3 : cuda_config3 =
  { tile_x = 16; tile_y = 4; tile_z = 4; staged = true }

(* Staged tile execution: every unit-stride dataset argument is copied
   (with its stencil's reach along each axis) into a scratch tile, the
   kernel works on the scratch — in place or staged, exactly as on global
   memory, through a frame over the scratch views — and written center
   regions are copied back: the structure of OPS's shared-memory CUDA
   kernels. *)
let run_cuda ?compiled (config : cuda_config3) ~range ~args ~kernel =
  let compiled =
    match compiled with Some c -> c | None -> compile args
  in
  let f = make_frame compiled kernel in
  let args_arr = Array.of_list args in
  let tiles lo hi t = (hi - lo + t - 1) / t in
  for tz = 0 to tiles range.zlo range.zhi config.tile_z - 1 do
    for ty = 0 to tiles range.ylo range.yhi config.tile_y - 1 do
      for tx = 0 to tiles range.xlo range.xhi config.tile_x - 1 do
        let xlo = range.xlo + (tx * config.tile_x) in
        let ylo = range.ylo + (ty * config.tile_y) in
        let zlo = range.zlo + (tz * config.tile_z) in
        let tile =
          { xlo; xhi = min range.xhi (xlo + config.tile_x);
            ylo; yhi = min range.yhi (ylo + config.tile_y);
            zlo; zhi = min range.zhi (zlo + config.tile_z) }
        in
        if not config.staged then run_range f ~range:tile
        else begin
          (* The gather covers the tile plus the stencil's reach, clamped
             to the dataset's addressable box: ring corners the stencil
             never reaches may fall outside the ghost cells when the range
             itself extends into them (validation guarantees actual reads
             stay inside). *)
          let staged =
            Array.mapi
              (fun i c ->
                match c with
                | C_dat { stride; _ } when not (is_unit_stride stride) ->
                  (* Grid-transfer reads bypass the scratch tile (their
                     footprint is not tile-shaped); they read global memory
                     directly, as OPS's generated multigrid kernels do. *)
                  c
                | C_dat { view; dim; stencil; access; stride; _ } ->
                  let dat =
                    match args_arr.(i) with
                    | Arg_dat { dat; _ } -> dat
                    | Arg_gbl _ | Arg_idx _ -> assert false
                  in
                  let reach off =
                    let e = ref 0 in
                    for p = 0 to npoints stencil - 1 do
                      e := max !e (abs (off stencil p))
                    done;
                    !e
                  in
                  let ex = reach ox and ey = reach oy and ez = reach oz in
                  let sxlo = tile.xlo - ex and sxhi = tile.xhi + ex in
                  let sylo = tile.ylo - ey and syhi = tile.yhi + ey in
                  let szlo = tile.zlo - ez and szhi = tile.zhi + ez in
                  let w = sxhi - sxlo and h = syhi - sylo in
                  let scratch = Array.make (w * h * (szhi - szlo) * dim) 0.0 in
                  let sview =
                    {
                      vdata = scratch;
                      vbase = (((((-szlo) * h) - sylo) * w) - sxlo) * dim;
                      vplane = h * w * dim;
                      vrow = w * dim;
                      vcol = dim;
                    }
                  in
                  if Access.reads access || access = Access.Write then
                    for z = max szlo (z_min dat) to min szhi (z_max dat) - 1 do
                      for y = max sylo (y_min dat) to min syhi (y_max dat) - 1 do
                        for x = max sxlo (x_min dat) to min sxhi (x_max dat) - 1 do
                          for c = 0 to dim - 1 do
                            vset sview ~x ~y ~z ~c (vget view ~x ~y ~z ~c)
                          done
                        done
                      done
                    done;
                  compile_dat sview ~dim ~stencil ~access ~stride
                | (C_gbl _ | C_idx _) as c -> c)
              compiled
          in
          (* The tile's frame shares the loop frame's buffers, so global
             accumulators persist across tiles and in-place arguments stay
             in place. *)
          run_range (frame_of staged kernel f.bufs) ~range:tile;
          (* Write back center regions of written datasets; increment-only
             scratch tiles start from zero, so they are added. *)
          Array.iteri
            (fun i c ->
              match (c, staged.(i)) with
              | C_dat { view; dim; access; _ }, C_dat { view = sview; _ }
                when Access.writes access ->
                for z = tile.zlo to tile.zhi - 1 do
                  for y = tile.ylo to tile.yhi - 1 do
                    for x = tile.xlo to tile.xhi - 1 do
                      for d = 0 to dim - 1 do
                        let v = vget sview ~x ~y ~z ~c:d in
                        if access = Access.Inc then
                          vset view ~x ~y ~z ~c:d (vget view ~x ~y ~z ~c:d +. v)
                        else vset view ~x ~y ~z ~c:d v
                      done
                    done
                  done
                done
              | _ -> ())
            compiled
        end
      done
    done
  done;
  merge_frame f

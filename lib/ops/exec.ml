(* Execution engines of the OPS backends, one set for every block rank.

   A kernel comes in one of two forms ([kernel]).  A staged kernel
   receives one staging buffer per argument ([float array array],
   point-major: component [c] of stencil point [p] at [buf.(p*dim + c)]).
   An accessor kernel is a kernel value ([Acc.kernel]): a point form over
   one [Acc.t] per argument — the paper's Fig 7 OP_ACC, component [c] of
   point [p] at [data.(base + off.(p) + c)] — and, when [let%kernel]
   generated it, one range walker per declared signature, the body inlined
   into a loop nest over a whole box.  Data is addressed through affine
   rank-3 [view]s, so component [c] of point (x, y, z) lives at
   [vbase + z*vplane + y*vrow + x*vcol + c]; 1D and 2D blocks simply
   iterate z (and y) over [0, 1).  Each argument compiles to one [int
   array] of flat offsets, one delta per stencil point, shared by the
   walker's places and the staged gather.

   One rule decides how a frame (one worker's state for one loop call)
   addresses the datasets:

   - a walker frame runs the kernel's generated range walker with every
     dataset in place.  It needs a walker whose stencils the arguments
     match, every dataset argument a unit-stride Read, Write or Rw of a
     dataset no other argument writes ([in_place]: a kernel writing in
     place must not see its own write through a second argument, which
     staging would hide), and the views of each layout label to agree
     ([range_walker]).  The walker is called once per range the frame is
     handed (Seq's range, a worker's chunk, a Cuda_sim tile, a rank
     window's core or boundary box), over each argument's place: its view
     and offset table, or a global's buffer;
   - a staging frame stages every argument, and its point walker
     ([traverse_staged]) is the only per-point path.  At each point a
     gather closure fills a per-worker buffer per argument, the kernel
     runs — a staged kernel on the buffers, an accessor kernel's point
     form on base-0 accessors over them ([off.(p) = p*dim]), built once
     per frame — and a scatter closure writes the centre point back
     (written arguments are centre-only by validation).  An increment
     starts from a zeroed scratch and is added to memory after the
     kernel, so Inc rounding does not depend on the kernel form.

   Staged kernels, lifted point functions, aliased writes, [Inc]
   datasets, strided (restrict/prolong) reads and the iteration index
   therefore take staging frames.  Check and footprint probing stage
   every argument themselves and call the point form, so the sanitizer
   and inference see the kernel as written.

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
  | C_gbl of { len : int; access : Access.t } (* the buffer is the running call's *)
  | C_idx of int (* number of iteration indices *)

(* Where an executor addresses each dataset: its view, and the array the
   view reads, which a cached executor is checked against.  The global
   ones are the padded arrays; a rank's are its windows. *)
type resolvers = { resolve_dat : dat -> view; resolve_data : dat -> float array }

let global_resolvers = { resolve_dat = dat_view; resolve_data = (fun dat -> dat.data) }

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
      | Arg_gbl { buf; access; _ } -> C_gbl { len = Array.length buf; access }
      | Arg_idx n -> C_idx n)
    (Array.of_list args)

(* Freshness of a cached executor against the live arguments: dataset
   backing arrays are compared physically against the arrays [resolvers]
   give (the padded arrays, or a rank's windows), so window substitution
   or any data replacement invalidates.  A global matches on its length
   and access: each frame binds the running call's buffer.  The array and
   the list are walked together, so a warm call allocates nothing
   here. *)
let arg_matches ~resolvers c arg =
  match (c, arg) with
  | C_dat cd, Arg_dat { dat; stencil; access; stride } ->
    cd.view.vdata == resolvers.resolve_data dat && cd.access = access && cd.stencil = stencil
    && cd.stride = stride
  | C_gbl cg, Arg_gbl { buf; access; _ } -> cg.len = Array.length buf && cg.access = access
  | C_idx _, Arg_idx _ -> true
  | (C_dat _ | C_gbl _ | C_idx _), _ -> false

let rec matches_from ~resolvers compiled i = function
  | [] -> i = Array.length compiled
  | arg :: rest ->
    i < Array.length compiled
    && arg_matches ~resolvers compiled.(i) arg
    && matches_from ~resolvers compiled (i + 1) rest

let compiled_matches ~resolvers compiled args = matches_from ~resolvers compiled 0 args

let has_globals compiled =
  Array.exists (function C_gbl _ -> true | C_dat _ | C_idx _ -> false) compiled

(* Whether no argument from [j] on, other than [i], names the dataset of
   [view] (argument [i]'s, accessed with [access]) when either of the two
   writes.  Arguments share a dataset exactly when they share a backing
   array. *)
let rec clash_free compiled i (view : view) access j =
  j >= Array.length compiled
  || (j = i
     ||
     match compiled.(j) with
     | C_dat c -> c.view.vdata != view.vdata || (access = Access.Read && not (Access.writes c.access))
     | C_gbl _ | C_idx _ -> true)
     && clash_free compiled i view access (j + 1)

(* Whether a walker may address argument [i] in place: a unit-stride Read
   of a dataset no argument writes, a Write/Rw of a dataset no other
   argument touches.  Anything else would let the kernel observe a write
   that staging hides until after it returns.  Allocates nothing. *)
let in_place compiled i =
  match compiled.(i) with
  | C_dat { view; access = (Access.Read | Access.Write | Access.Rw) as access; stride; _ }
    when is_unit_stride stride ->
    clash_free compiled i view access 0
  | C_dat _ | C_gbl _ | C_idx _ -> false

(* A frame's buffers, argument [i] on from [args], the running call's
   list: the global accumulators (a copy of the call's [Read], [Min] or
   [Max] buffer, zeros for an [Inc]), and in a staging frame one staging
   buffer per dataset argument and one slot per iteration index; a walker
   frame's datasets get none ([||]). *)
let rec fill_buffers ~staging compiled bufs i = function
  | [] -> ()
  | arg :: rest ->
    bufs.(i) <-
      (match (compiled.(i), arg) with
      | C_dat { dim; stencil; _ }, _ ->
        if staging then Array.make (dim * npoints stencil) 0.0 else [||]
      | C_idx n, _ -> Array.make n 0.0
      | C_gbl { len; access = Access.Inc }, _ -> Array.make len 0.0
      | C_gbl { access = Access.Read | Access.Min | Access.Max; _ }, Arg_gbl { buf; _ } ->
        Array.copy buf
      | C_gbl _, _ -> invalid_arg "ops: Write/Rw access on a global argument");
    fill_buffers ~staging compiled bufs (i + 1) rest

let make_buffers ~staging compiled args =
  let bufs = Array.make (Array.length compiled) [||] in
  fill_buffers ~staging compiled bufs 0 args;
  bufs

(* ---- Frames: one worker's state for one loop call ---------------------- *)

(* A range walker and what it runs over: one place per argument. *)
type walk = { walker : Acc.range_walker; places : Acc.place array }

(* [bufs] holds the global accumulators and, in a staging frame, the
   staging and index buffers.  A walker frame has [walk]; a staging frame
   of an accessor kernel has [accs], base-0 accessors over [bufs]; a
   staging frame of a staged kernel walks [compiled] with neither. *)
type frame = {
  compiled : compiled_arg array;
  kernel : kernel;
  bufs : float array array;
  accs : Acc.t array;
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

(* Whether two views address datasets of one shape: one index serves
   both. *)
let same_shape (a : view) (b : view) =
  a.vbase = b.vbase && a.vplane = b.vplane && a.vrow = b.vrow && a.vcol = b.vcol

(* Whether a walker for [sg] may run over [compiled]: every dataset
   argument has the declared stencil, is addressed in place and has the
   shape of its label's first argument.  The loop has already held the
   call to one of the kernel's signatures (dims, access modes, lengths,
   unit strides), so the stencils pick the walker.  Allocates nothing. *)
let rec walkable (sg : Acc.grid_sig array) compiled i =
  i >= Array.length compiled
  || (match (sg.(i), compiled.(i)) with
     | Acc.Grid_dat { label; stencil; _ }, C_dat c -> (
       stencil_is stencil c.stencil
       && in_place compiled i
       &&
       match compiled.(first_label sg label 0) with
       | C_dat f -> same_shape f.view c.view
       | C_gbl _ | C_idx _ -> false)
     | Acc.Grid_gbl _, C_gbl _ -> true
     | (Acc.Grid_dat _ | Acc.Grid_gbl _), _ -> false)
     && walkable sg compiled (i + 1)

(* The walker of [k] from the [w]th on that runs over [compiled], if
   any. *)
let rec range_walker (k : Acc.kernel) compiled w =
  if w >= Array.length k.Acc.walkers then None
  else
    let walker = k.Acc.walkers.(w) in
    if
      Array.length walker.Acc.signature = Array.length compiled
      && walkable walker.Acc.signature compiled 0
    then Some walker
    else range_walker k compiled (w + 1)

let unplaced = { Acc.pdata = [||]; pbase = 0; pplane = 0; prow = 0; poff = Acc.single }

(* Each argument's place: a dataset's view and offset table, a global's
   buffer. *)
let places compiled bufs =
  let ps = Array.make (Array.length compiled) unplaced in
  for i = 0 to Array.length compiled - 1 do
    ps.(i) <-
      (match compiled.(i) with
      | C_dat { view; offsets; _ } ->
        { Acc.pdata = view.vdata; pbase = view.vbase; pplane = view.vplane; prow = view.vrow;
          poff = offsets }
      | C_gbl _ | C_idx _ -> { unplaced with Acc.pdata = bufs.(i) })
  done;
  ps

(* A staging frame's accessors: base-0, one offset per whole point of
   each point-major buffer. *)
let staging_accessors compiled bufs =
  let accs = Array.make (Array.length compiled) (Acc.of_array [||]) in
  for i = 0 to Array.length compiled - 1 do
    accs.(i) <-
      (match compiled.(i) with
      | C_dat { dim; _ } -> Acc.of_buffer ~dim bufs.(i)
      | C_gbl _ | C_idx _ -> Acc.of_array bufs.(i))
  done;
  accs

(* One worker's frame over [compiled] for a call with arguments [args]: a
   walker frame when the kernel has a range walker that runs over it, a
   staging frame otherwise.  The two always-on counters tell an accessor
   kernel's two kinds apart. *)
let make_frame compiled kernel args =
  let walker =
    match kernel with Accessor k -> range_walker k compiled 0 | Staged _ -> None
  in
  match walker with
  | Some walker ->
    Am_obs.Counters.incr Am_obs.Obs.ops_walker_frames;
    let bufs = make_buffers ~staging:false compiled args in
    { compiled; kernel; bufs; accs = [||]; walk = Some { walker; places = places compiled bufs } }
  | None ->
    let bufs = make_buffers ~staging:true compiled args in
    let accs =
      match kernel with
      | Accessor _ ->
        Am_obs.Counters.incr Am_obs.Obs.ops_point_frames;
        staging_accessors compiled bufs
      | Staged _ -> [||]
    in
    { compiled; kernel; bufs; accs; walk = None }

let[@inline] set_idx buf x y z =
  Array.unsafe_set buf 0 (Float.of_int x);
  let n = Array.length buf in
  if n > 1 then Array.unsafe_set buf 1 (Float.of_int y);
  if n > 2 then Array.unsafe_set buf 2 (Float.of_int z)

(* The staging point walker: every point of [range], z outermost, with
   every argument gathered before the kernel and the written ones
   scattered after it. *)
let traverse_staged f ~range =
  let compiled = f.compiled and bufs = f.bufs and accs = f.accs in
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
        (match f.kernel with Staged k -> k bufs | Accessor k -> k.Acc.point accs);
        for i = 0 to n - 1 do
          match Array.unsafe_get compiled i with
          | C_dat { access = Access.Read; _ } | C_gbl _ | C_idx _ -> ()
          | C_dat { scatter; _ } -> scatter (Array.unsafe_get bufs i) x y z
        done
      done
    done
  done

(* Every point of [range]: a walker frame's walker, called once, or the
   staging point walker. *)
let run_range f ~range =
  match f.walk with
  | Some { walker; places } ->
    walker.Acc.range places range.xlo range.xhi range.ylo range.yhi range.zlo range.zhi
  | None -> traverse_staged f ~range

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

(* Fold one worker's global accumulators into the running call's global
   buffers, [args] being its argument list. *)
let rec merge_from buffers i = function
  | [] -> ()
  | Arg_gbl { buf; access; _ } :: rest ->
    Am_loop.Loop.fold access buf buffers.(i);
    merge_from buffers (i + 1) rest
  | (Arg_dat _ | Arg_idx _) :: rest -> merge_from buffers (i + 1) rest

let merge_globals args buffers = merge_from buffers 0 args

(* Fold a frame's global accumulators into the call's buffers. *)
let merge_frame f args = if has_globals f.compiled then merge_globals args f.bufs

(* Pairwise tree reduction of per-worker frames' accumulators into the
   call's buffers (replaces the mutex-serialised per-chunk merge). *)
let merge_worker_globals compiled args frames =
  Am_loop.Loop.tree_merge
    (List.map (fun f -> f.bufs) frames)
    ~finish:(merge_globals args)
    ~combine:(fun dst src ->
      Array.iteri
        (fun i -> function
          | C_gbl { access; _ } -> Am_loop.Loop.fold access dst.(i) src.(i)
          | C_dat _ | C_idx _ -> ())
        compiled)

(* ---- Sequential ----------------------------------------------------- *)

(* Every engine runs [compiled], the executor a loop handle keeps for the
   call (one per rank on a partitioned context). *)
let run_seq ~compiled ~range ~args ~kernel =
  let f = make_frame compiled kernel args in
  run_range f ~range;
  merge_frame f args

(* ---- Shared memory ("OpenMP") --------------------------------------- *)

(* The pool splits [axis] — the block's outermost — into chunks, each run
   through a worker-local frame; global partials tree-merge at the end. *)
let run_shared ~compiled pool ~axis ~range ~args ~kernel =
  let frames =
    Am_taskpool.Pool.parallel_for_local pool ~lo:(lo axis range) ~hi:(hi axis range)
      ~local:(fun () -> make_frame compiled kernel args)
      ~body:(fun f lo hi -> run_range f ~range:(with_axis axis range ~lo ~hi))
  in
  if has_globals compiled then merge_worker_globals compiled args frames

(* Intra-rank execution of the distributed backends: hybrid MPI+OpenMP
   runs each rank's share through the shared-memory engine (centre-only
   writes make this race-free with no per-rank planning needed). *)
type rank_exec = Rank_seq | Rank_shared of Am_taskpool.Pool.t

let run_rank exec ~compiled ~axis ~range ~args ~kernel =
  match exec with
  | Rank_seq -> run_seq ~compiled ~range ~args ~kernel
  | Rank_shared pool -> run_shared ~compiled pool ~axis ~range ~args ~kernel

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

(* How far argument [i]'s scratch tile extends past the tile along x, y
   and z: the widest stencil reach among the unit-stride arguments whose
   datasets share its shape.  One layout label names datasets of one
   shape, so the scratch views of a label agree and a walker frame keeps
   one index per label on every tile. *)
let tile_reach compiled i =
  let ex = ref 0 and ey = ref 0 and ez = ref 0 in
  (match compiled.(i) with
  | C_dat { view; _ } ->
    Array.iter
      (function
        | C_dat { view = v; stencil; stride; _ } when is_unit_stride stride && same_shape v view ->
          for p = 0 to npoints stencil - 1 do
            ex := max !ex (abs (ox stencil p));
            ey := max !ey (abs (oy stencil p));
            ez := max !ez (abs (oz stencil p))
          done
        | C_dat _ | C_gbl _ | C_idx _ -> ())
      compiled
  | C_gbl _ | C_idx _ -> ());
  (!ex, !ey, !ez)

(* Staged tile execution: every unit-stride dataset argument is copied
   (with its shape's stencil reach along each axis, [tile_reach]) into a
   scratch tile, the kernel works on the scratch — through the loop
   frame's walker over the scratch views, or its staging point walker —
   and written center regions are copied back: the structure of OPS's
   shared-memory CUDA kernels. *)
let run_cuda ~compiled (config : cuda_config3) ~range ~args ~kernel =
  let f = make_frame compiled kernel args in
  let args_arr = Array.of_list args in
  let reach = Array.init (Array.length compiled) (tile_reach compiled) in
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
          (* The gather covers the tile plus the reach, clamped to the
             dataset's addressable box: ring corners the stencil never
             reaches may fall outside the ghost cells when the range
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
                  let ex, ey, ez = reach.(i) in
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
          (* The loop frame over the scratch views: its walker over the
             tile's places, or its staging buffers and accessors; either
             way the global accumulators persist across tiles. *)
          let tf =
            match f.walk with
            | Some { walker; _ } ->
              { f with compiled = staged; walk = Some { walker; places = places staged f.bufs } }
            | None -> { f with compiled = staged }
          in
          run_range tf ~range:tile;
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
  merge_frame f args

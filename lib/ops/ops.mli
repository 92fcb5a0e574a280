(** OPS: the multi-block structured-mesh domain-specific active library.

    Blocks are logical 2D index spaces; datasets live on a block with their
    own extents (cell-, face- and node-centred fields of different sizes
    coexist, as on CloverLeaf's staggered grid) and a ghost ring for
    stencils and boundary conditions. Computation is expressed as parallel
    loops over rectangular ranges with a declared stencil and access mode
    per argument; writes are centre-only, which makes structured loops
    race-free under any partition of the range — the key OPS property.

    {[
      let ctx = Ops.create () in
      let grid = Ops.decl_block ctx ~name:"grid" in
      let u = Ops.decl_dat ctx ~name:"u" ~block:grid ~xsize:nx ~ysize:ny () in
      let%kernel diffuse (a : Acc.t array) =
        set a.(1) (0.25 *. (get a.(0) 1 +. get a.(0) 2 ...))
      [@@args u [(0,0); (-1,0); (1,0); (0,-1); (0,1)] 1 Read, u [(0,0)] 1 Write]
      ...
      Ops.par_loop_acc ctx ~name:"diffuse" grid (Ops.interior u)
        [ Ops.arg_dat u Ops.stencil_2d_5pt Access.Read;
          Ops.arg_dat w Ops.stencil_point Access.Write ]
        diffuse
    ]}

    {2 Kernel ABI}

    A kernel takes one argument view per loop argument, in two forms.  The
    accessor form ({!par_loop_acc}, whose point form is
    [Acc.t array -> unit]; see the range walkers below) is the one of the
    paper's Fig 7 [OP_ACC]: component [c] of stencil point [p] of argument
    [a] is [a.data.(a.base + a.off.(p) + c)], with [p] indexing the
    argument's stencil in declaration order.  The staged form
    ({!par_loop}, [float array array -> unit]) receives one point-major
    staging buffer per argument — component [c] of point [p] at
    [buf.(p*dim + c)] — gathered before the call and written back
    according to the access mode.  Datasets are addressed in place only by
    a generated range walker; the point form always runs on staged
    addressing, base-0 accessors with [off.(p) = p*dim] over the staging
    buffers.  Either way [Inc] datasets start from zero and are added to
    memory after the kernel, so increments round identically under both
    forms.  Kernels must touch only their declared points and [dim]
    components: in place, a write to a [Read] argument, or a read past the
    declared points or components, reaches memory, which probing and
    [Check] report by loop, argument and point.

    {2 Range walkers}

    {!par_loop_acc} takes a kernel value ({!Acc.kernel}): the point form
    above, and one generated range walker per declared signature, which
    runs the kernel at every point of a box.  [let%kernel name (a : Acc.t
    array) = body [@@args ...]] (the [ppx_kernel] rewriter) binds [name]
    to it.  The signature states per argument, in call order, what the
    call passes: [label [offsets] dim Access] for a dataset ([Read],
    [Write] or [Rw]), its stencil as literal offsets in declaration order,
    and [gbl length Access] for a global ([Read], [Inc], [Min] or [Max]).
    Labels are layout names local to the signature: arguments with one
    label pass datasets of one shape (sizes, halo and dim), so they share
    one index.  A kernel run with an x and a y stencil takes one
    [[@@args]] per variant on its one body.

    The walker is the body inlined into a z, y, x loop nest.  Per call it
    loads each label's base and strides (the column stride is the
    declared dim, a constant), one offset local per distinct (label,
    literal stencil point), each dataset's array, each [Read] global
    component and, in float locals stored back after the box, each
    [Inc]/[Min]/[Max] global component named by a literal; per point it
    computes one index per label.  Indexing stays bounds-checked, and each
    point does the same floating-point operations in the same order as the
    point form.  The body names accessors as [a.(k)] with a literal [k],
    or as a variable [let]-bound to one, and uses them only through four
    module-local functions: [get x p] (stencil point [p]; a literal one
    through its offset local, a computed one through the argument's
    offset table), [set x v] (the centre point), and [gbl x c] and
    [set_gbl x c v] (component [c] of a global, or of a dataset's point
    0).  Any other use of an accessor, a literal point or component
    outside the declaration, a [set] on a [Read] argument, an [Inc]
    dataset, and a missing or inconsistent signature are compile-time
    errors at their location, naming the kernel.

    Every call of a generated kernel is checked, on every backend and
    before any point runs, against the signature whose stencils equal its
    arguments': a count, kind, dim, length, access mode, stencil, stride,
    {!arg_idx}, or a label naming two shapes that differs raises
    [Invalid_argument] naming the loop, the kernel, the argument and the
    fact.  One rule picks each worker's frame.  A walker frame calls the
    walker, every dataset in place, once per range it is handed — Seq's
    range, a Shared worker's chunk, a Cuda_sim tile, a rank window's core
    or boundary box — when every dataset argument is a unit-stride
    dataset no other argument writes and each label's views agree (a
    staged Cuda_sim tile sizes the scratch buffers of one shape alike).
    Otherwise (an aliased argument that writes, an [Inc] dataset, a
    strided read, {!arg_idx}) a staging frame stages every argument and
    runs the point form at every point, as [Check] and footprint probing
    always do, so the sanitizer and inference see the kernel as written.
    A plain point function becomes a kernel value through {!Acc.lift}, with
    no walker and no signature: it always runs staged. *)

module Access = Am_core.Access
module Descr = Am_core.Descr
module Profile = Am_core.Profile
module Trace = Am_core.Trace

type block = Types.block
type dat = Types.dat
type arg = Types.arg

(** Kernel argument accessors (see the kernel ABI above): the accessor type
    OPS shares with OP2 ({!Am_core.Acc}).  Kernel modules define their own
    [[@inline]] accessors,
    [let[@inline] get (a : Acc.t) p = a.Acc.data.(a.Acc.base + a.Acc.off.(p))]:
    a call into another module is not inlined under [-opaque] and boxes
    floats. *)
module Acc : sig
  type t = Am_core.Acc.t = { data : float array; mutable base : int; off : int array }

  (** One argument of a kernel's declared signature: a dataset's layout
      label (local to the signature), stencil as (x, y, z) offsets in
      declaration order, dim and access mode, or a global's length and
      access mode. *)
  type grid_sig = Am_core.Acc.grid_sig =
    | Grid_dat of {
        label : string;
        stencil : (int * int * int) array;
        dim : int;
        access : Access.t;
      }
    | Grid_gbl of { len : int; access : Access.t }

  (** Where a range walker finds one argument: a dataset's array, flat
      index of point (0, 0, 0), plane and row strides and stencil offset
      table; a global's buffer in [pdata]. *)
  type place = Am_core.Acc.place = {
    pdata : float array;
    pbase : int;
    pplane : int;
    prow : int;
    poff : int array;
  }

  (** A generated range walker: [range places xlo xhi ylo yhi zlo zhi] runs
      the kernel at every point of the box (see the range walkers above),
      on arguments that match [signature]. *)
  type range_walker = Am_core.Acc.range_walker = {
    kname : string;
    signature : grid_sig array;
    range : place array -> int -> int -> int -> int -> int -> int -> unit;
  }

  (** A kernel value: the point form, and one range walker per declared
      signature ([[||]] for a lifted point function). *)
  type kernel = Am_core.Acc.kernel = { point : t array -> unit; walkers : range_walker array }

  (** [lift f] is the kernel value of the point function [f]: no walker and
      no signature, so it runs staged everywhere. *)
  val lift : (t array -> unit) -> kernel
end

(** Half-open iteration rectangle; negative indices reach the ghost ring. *)
type range = { xlo : int; xhi : int; ylo : int; yhi : int }

(** Relative (dx, dy) offsets; index 0 of the kernel buffer is offset 0. *)
type stencil = (int * int) array

val stencil_point : stencil

(** Common 2D stencils: centre; 5-point; (0,0)+(±1,0); (0,0)+(0,±1); the
    2x2 quad. Offsets are in declaration order. *)
val stencil_2d_00 : stencil

val stencil_2d_5pt : stencil
val stencil_2d_plus1x : stencil
val stencil_2d_plus1y : stencil
val stencil_2d_minus1x : stencil
val stencil_2d_minus1y : stencil
val stencil_2d_quad : stencil
val stencil_offsets : stencil -> (int * int) array

(** Backend: sequential reference, row-parallel domain pool, or the tiled
    GPU simulator (global-memory or staged shared-memory tiles). The
    distributed backend is entered with {!partition}. *)
type backend =
  | Seq
  | Shared of { pool : Am_taskpool.Pool.t }
  | Cuda_sim of Exec.cuda_config
  | Check
      (** sanitizer: sequential semantics with canary-padded, access-guarded
          staging buffers — a kernel violating its access descriptors raises
          {!Exec_check.Violation} naming the loop, argument and point *)

type ctx

val create : ?backend:backend -> unit -> ctx
val set_backend : ctx -> backend -> unit
val backend : ctx -> backend
val profile : ctx -> Profile.t
val trace : ctx -> Trace.t

(** {1 Declarations} *)

val decl_block : ctx -> name:string -> block

(** [decl_dat ctx ~name ~block ~xsize ~ysize ?halo ?dim ()] declares a
    zero-initialised dataset with a [halo]-deep ghost ring (default 2) and
    [dim] components per point (default 1). *)
val decl_dat :
  ctx -> name:string -> block:block -> xsize:int -> ysize:int -> ?halo:int ->
  ?dim:int -> unit -> dat

val blocks : ctx -> block list
val dats : ctx -> dat list

(** {1 Loop arguments} *)

(** Dataset argument with its stencil. Written arguments ([Write]/[Rw]/
    [Inc]) must use {!stencil_point}, and a dataset written by a loop must
    be accessed centre-only by every argument of that loop. *)
val arg_dat : dat -> stencil -> Access.t -> arg

(** Multigrid restriction: read a finer dataset from a coarse-grid loop
    (accessed point = [factor] * iteration point + stencil offset).
    Read-only; not available on partitioned contexts. *)
val arg_dat_restrict : dat -> stencil -> factor:int -> Access.t -> arg

(** Multigrid prolongation: read a coarser dataset from a fine-grid loop
    (accessed point = iteration point / [factor] + offset). Read-only; not
    available on partitioned contexts. *)
val arg_dat_prolong : dat -> stencil -> factor:int -> Access.t -> arg

(** Global argument: [Read] broadcasts, [Inc]/[Min]/[Max] reduce. *)
val arg_gbl : name:string -> float array -> Access.t -> arg

(** The kernel receives the iteration indices (x, y) as two floats. *)
val arg_idx : arg

(** {1 Data access} *)

(** The dataset's interior rectangle. *)
val interior : dat -> range

(** Constant fill, ghost ring included (non-partitioned contexts). *)
val fill : dat -> float -> unit

(** Point access on the canonical (non-partitioned) storage. *)
val get : dat -> x:int -> y:int -> c:int -> float

val set : dat -> x:int -> y:int -> c:int -> float -> unit

(** Interior values in row-major (x fastest) order, assembled from rank
    windows when partitioned. *)
val fetch_interior : ctx -> dat -> float array

(** A copy of the padded array, ghost cells included (x fastest, the layout
    of {!init}'s points), pulled from the owning ranks when partitioned:
    the edge ranks own the global ghost cells. *)
val fetch_padded : ctx -> dat -> float array

(** [init ctx dat f] sets every addressable point (ghosts included) to
    [f x y c], pushing to rank windows when partitioned. *)
val init : ctx -> dat -> (int -> int -> int -> float) -> unit

(** {1 Distributed execution} *)

(** Row-decompose every dataset over [n_ranks] simulated ranks;
    [ref_ysize] is the reference row space (taller, staggered datasets give
    their extra rows to the last rank). Ghost-row exchanges then happen on
    demand, driven by the declared stencils and access modes. *)
val partition : ctx -> n_ranks:int -> ref_ysize:int -> unit

(** 2D grid decomposition over [px * py] simulated ranks, as the
    production OPS uses for CloverLeaf at scale: both dimensions split,
    ghost exchange in two phases (columns, then rows over the extended
    x-range) so the corner cells arrive without dedicated diagonal
    messages. [ref_xsize]/[ref_ysize] are the reference index space;
    staggered datasets give their extra cells to the last rank of each
    axis. *)
val partition_grid :
  ctx -> px:int -> py:int -> ref_xsize:int -> ref_ysize:int -> unit

(** Hybrid MPI+OpenMP: each rank's rows run on a shared pool (centre-only
    writes make this race-free without planning). *)
type rank_execution = Exec.rank_exec = Rank_seq | Rank_shared of Am_taskpool.Pool.t

(** Select intra-rank execution; the context must be partitioned. *)
val set_rank_execution : ctx -> rank_execution -> unit

(** Halo-exchange policy. [On_demand] (the default) exchanges ghost rows
    only when a prior write made them stale; [Eager] exchanges before
    every stencil read. Identical results, different traffic (see the
    halo-policy ablation). *)
type halo_policy = On_demand | Eager

val set_halo_policy : ctx -> halo_policy -> unit

(** Communication mode of the partitioned runtime. [Blocking] (the
    default) completes every ghost exchange before the loop body runs;
    [Overlap] posts the exchange, executes the {e interior} sub-range —
    the points whose stencils stay inside the owned region — while the
    messages are in flight, waits, then executes the boundary strips.
    Centre-only writes make the two orders bitwise identical (loops
    carrying a global [Inc] reduction keep the blocking exchange, since
    splitting the range would reorder the summation); the modes differ
    only in how much communication time is exposed
    (see {!Am_core.Profile.entry}). *)
type comm_mode = Blocking | Overlap

val set_comm_mode : ctx -> comm_mode -> unit
val comm_mode : ctx -> comm_mode

val comm_stats : ctx -> Am_simmpi.Comm.stats option

(** {1 Fault injection}

    Attach a seeded {!Am_simmpi.Fault} injector: the partitioned runtime's
    messages then travel through the communicator's reliable transport
    (sequence numbers, CRC verification, timeout-driven retransmission),
    and the injector's armed rank crash fires from {!par_loop} when its
    loop counter is reached.  May be called before or after partitioning;
    the injector is shared across recovery restarts. *)

val set_fault_injector : ctx -> Am_simmpi.Fault.t -> unit
val fault_injector : ctx -> Am_simmpi.Fault.t option

(** {1 Multi-block halos} *)

type halo = Multiblock.halo
type orientation = Multiblock.orientation

val identity_orientation : orientation

(** Declare an inter-block coupling: [src_range] (a face of [src]) feeds
    [dst_range] (typically ghost cells of [dst]), with an optional index
    [orientation]. Extents must match after transformation. *)
val decl_halo :
  ctx -> name:string -> src:dat -> dst:dat -> src_range:range -> dst_range:range ->
  ?orientation:orientation -> unit -> halo

(** Execute the declared transfers — the application-triggered
    synchronisation points between blocks. *)
val halo_transfer : ctx -> halo list -> unit

(** {1 Boundary conditions} *)

type centering = Boundary.centering = Cell | Node

(** Reflective ghost-ring update (CloverLeaf's update_halo): ghost values
    mirror the interior, with optional sign flips for wall-normal velocity
    components and centre-aware reflection for staggered fields. Provided
    by the library because it reads and writes the same dataset across an
    offset, which [par_loop] forbids. *)
val mirror_halo :
  ctx -> ?depth:int -> ?sign_x:float -> ?sign_y:float -> ?center_x:centering ->
  ?center_y:centering -> dat -> unit

(** {1 The parallel loop} *)

(** Per-call-site loop handle, optional. A handle caches the compiled
    executor (per-argument offset tables and gather/scatter closures) for
    one [par_loop] call site, and on a partitioned context one executor per
    rank over the rank's windows, so repeated invocations skip argument
    compilation. Freshness is re-checked on every call with a few pointer
    compares; a changed dataset array, stencil, access or stride recompiles
    transparently. Executors hold no global buffer: each call's globals are
    bound when it runs, so fresh literals cost no recompile. A call without
    a handle is cached by loop name and argument shape (datasets, stencils,
    strides, access modes, global names and lengths): it runs on the handle
    of its entry in the context's call-site table, which also keeps each
    entry's footprint. Both kernel forms share the executor, so one handle
    may serve {!par_loop} and {!par_loop_acc}; loops that take one argument
    list may share a handle too, with the footprint kept per loop name. *)
type handle

val make_handle : unit -> handle

(** [par_loop ctx ~name ?info ?handle block range args kernel] validates
    stencils against the range and ghost depth, records trace/profile
    entries, and executes the staged [kernel] at every point of [range] on
    the context's backend. *)
val par_loop :
  ctx ->
  name:string ->
  ?info:Descr.kernel_info ->
  ?handle:handle ->
  block ->
  range ->
  arg list ->
  (float array array -> unit) ->
  unit

(** [par_loop_acc] is {!par_loop} for an accessor kernel value: the same
    pipeline (validation, trace, fault counter, footprint probing,
    checkpointing, profile) on the same backends — rank windows and
    Cuda_sim scratch tiles included — with a generated kernel's call
    checked against its declared signature, and its range walker run once
    per range, every dataset in place, where the rule above allows it;
    otherwise every argument is staged.  Results are bitwise those of the
    staged form of the same kernel. *)
val par_loop_acc :
  ctx ->
  name:string ->
  ?info:Descr.kernel_info ->
  ?handle:handle ->
  block ->
  range ->
  arg list ->
  Acc.kernel ->
  unit

(** {1 Kernel footprint inference}

    On by default: the first call of each loop signature interprets the
    kernel over sentinel-laden probe buffers ({!Am_core.Probe}) and caches
    the observed footprint.  Observed facts (a write the descriptor never
    declared, an out-of-bounds read) are definite and reported through
    {!Am_analysis.Verify}; the Check backend also skips its bitwise Read
    snapshot compares on loops whose declaration probing could not fault.

    Sampled negatives — reads merely never observed across the probe
    vectors — are evidence, not proof: a data-dependent branch the probes
    never triggered could still read further.  Acting on them at runtime
    (shrinking distributed ghost exchanges to the observed read extent) is
    therefore an explicit opt-in via [set_tighten], off by default.  With
    tightening off those facts remain report-only:
    {!Am_analysis.Dataflow} still prints the exchanges the observations say
    the declared stencils waste, so the fix is to tighten the descriptor,
    not the runtime. *)

val set_infer : ctx -> bool -> unit
val infer_enabled : ctx -> bool

(** Opt in to runtime tightening from sampled never-observed-read facts:
    shrunken halo depths and dropped exchanges.  Off by default — enable
    only when the kernels' footprints are known to be data-independent (no
    limiter-style branches that widen reads). *)
val set_tighten : ctx -> bool -> unit

val tighten_enabled : ctx -> bool
val footprints : ctx -> Am_core.Probe.info list

(** {1 Automatic checkpointing}

    As for OP2: one [request_checkpoint] and the library picks the cheapest
    trigger within a detected loop period, saves only what recovery needs
    (full padded arrays, ghost ring included) and fast-forwards a restarted
    run. On partitioned contexts snapshots are pulled from (and restored
    to) the owning ranks' windows. *)

val enable_checkpointing : ctx -> unit
val request_checkpoint : ctx -> unit
val checkpoint_session : ctx -> Am_checkpoint.Runtime.session option
val checkpoint_to_file : ctx -> path:string -> unit
val recover_from_file : ctx -> path:string -> unit

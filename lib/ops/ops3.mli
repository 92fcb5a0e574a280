(** OPS3: the structured-mesh active library instantiated for 3D blocks.

    The paper's OPS abstraction is dimension-generic — blocks carry "a
    number of dimensions (1D, 2D, 3D, etc.)". This module is the
    three-dimensional instantiation, with the same contract as {!Ops}:
    datasets own their extents and a ghost shell, loops declare a stencil
    and access mode per argument, and writes are centre-only, which makes
    any partition of the iteration box race-free.

    {[
      let ctx = Ops3.create () in
      let grid = Ops3.decl_block ctx ~name:"grid" in
      let u = Ops3.decl_dat ctx ~name:"u" ~block:grid
                ~xsize:n ~ysize:n ~zsize:n () in
      Ops3.par_loop ctx ~name:"diffuse" grid (Ops3.interior u)
        [ Ops3.arg_dat u Ops3.stencil_7pt Access.Read;
          Ops3.arg_dat w Ops3.stencil_point Access.Write ]
        (fun a -> a.(1).(0) <- ...)
    ]}

    Kernel buffers are point-major: for an argument with stencil point [p]
    and component [c], the value sits at [buf.(p*dim + c)]. *)

module Access = Am_core.Access
module Descr = Am_core.Descr
module Profile = Am_core.Profile
module Trace = Am_core.Trace

(** Kernel argument accessors and kernel values, as in {!Ops.Acc}: a
    [let%kernel] declares 3D stencils as [[(0,0,0); (1,0,0)]]. *)
module Acc = Ops.Acc

type block = Types.block
type dat = Types.dat
type arg = Types.arg

(** Half-open iteration box; negative indices reach the ghost shell. *)
type range = Types.range = {
  xlo : int;
  xhi : int;
  ylo : int;
  yhi : int;
  zlo : int;
  zhi : int;
}

(** Relative (dx, dy, dz) offsets; index 0 of the kernel buffer is
    offset 0 of the stencil. *)
type stencil = (int * int * int) array

val stencil_point : stencil

(** Centre plus the six axis neighbours, in declaration order:
    centre, ±x, ±y, ±z. *)
val stencil_7pt : stencil

(** Backend: sequential reference, plane-parallel domain pool, or the
    tiled GPU simulator. The distributed backend is entered with
    {!partition}. *)
type backend =
  | Seq
  | Shared of { pool : Am_taskpool.Pool.t }
  | Cuda_sim of Exec.cuda_config3
  | Check
      (** sanitizer: sequential semantics with canary-padded, access-guarded
          staging buffers — violations raise {!Exec_check.Violation} *)

type ctx

val create : ?backend:backend -> unit -> ctx
val set_backend : ctx -> backend -> unit
val backend : ctx -> backend
val profile : ctx -> Profile.t
val trace : ctx -> Trace.t

(** {1 Declarations} *)

val decl_block : ctx -> name:string -> block

(** [decl_dat ctx ~name ~block ~xsize ~ysize ~zsize ?halo ?dim ()]
    declares a zero-initialised dataset with a [halo]-deep ghost shell
    (default 2) and [dim] components per point (default 1). *)
val decl_dat :
  ctx -> name:string -> block:block -> xsize:int -> ysize:int -> zsize:int ->
  ?halo:int -> ?dim:int -> unit -> dat

val blocks : ctx -> block list
val dats : ctx -> dat list

(** {1 Loop arguments} *)

(** Dataset argument with its stencil. Written arguments ([Write]/[Rw]/
    [Inc]) must use {!stencil_point}, and a dataset written by a loop
    must be accessed centre-only by every argument of that loop. *)
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

(** The kernel receives the iteration indices (x, y, z) as three floats. *)
val arg_idx : arg

(** {1 Data access} *)

(** The dataset's interior box. *)
val interior : dat -> range

(** Point access on the canonical (non-partitioned) storage. *)
val get : dat -> x:int -> y:int -> z:int -> c:int -> float

val set : dat -> x:int -> y:int -> z:int -> c:int -> float -> unit

(** Interior values in x-fastest order, assembled from rank windows when
    partitioned. *)
val fetch_interior : ctx -> dat -> float array

(** A copy of the padded array, ghost cells included, pulled from the
    owning ranks when partitioned, as {!Ops.fetch_padded}. *)
val fetch_padded : ctx -> dat -> float array

(** [init ctx dat f] sets every addressable point (ghosts included) to
    [f x y z c], pushing to rank windows when partitioned. *)
val init : ctx -> dat -> (int -> int -> int -> int -> float) -> unit

(** {1 Distributed execution} *)

(** Decompose every dataset into z-slabs over [n_ranks] simulated ranks;
    [ref_zsize] is the reference plane count (deeper, staggered datasets
    give their extra planes to the last rank). Ghost-plane exchanges then
    happen on demand, driven by the declared stencils and access modes. *)
val partition : ctx -> n_ranks:int -> ref_zsize:int -> unit

(** Pencil (y x z) decomposition over [py * pz] simulated ranks — the 3D
    analogue of {!Ops.partition_grid}, with the unit-stride x axis kept
    whole. Ghost exchange is two-phase (rows, then planes over the
    y-extended extent) so edge cells arrive without diagonal messages. *)
val partition_pencil :
  ctx -> py:int -> pz:int -> ref_ysize:int -> ref_zsize:int -> unit

(** Hybrid MPI+OpenMP: each rank's slab runs on a shared pool
    (centre-only writes make this race-free without planning). *)
type rank_execution = Exec.rank_exec =
  | Rank_seq
  | Rank_shared of Am_taskpool.Pool.t

(** Select intra-rank execution; the context must be partitioned. *)
val set_rank_execution : ctx -> rank_execution -> unit

(** Communication mode: [Blocking] (default) or [Overlap], which posts the
    ghost exchange, runs the interior sub-box while the messages are in
    flight, waits, then runs the boundary slabs (see {!Ops.set_comm_mode}). *)
type comm_mode = Blocking | Overlap

val set_comm_mode : ctx -> comm_mode -> unit
val comm_mode : ctx -> comm_mode

val comm_stats : ctx -> Am_simmpi.Comm.stats option

(** {1 Fault injection}

    Attach a seeded {!Am_simmpi.Fault} injector, as in {!Ops}: partitioned
    messages travel through the communicator's reliable transport and the
    armed rank crash fires from {!par_loop}.  May be called before or after
    partitioning; the injector is shared across recovery restarts. *)

val set_fault_injector : ctx -> Am_simmpi.Fault.t -> unit
val fault_injector : ctx -> Am_simmpi.Fault.t option

(** {1 Multi-block halos} *)

type halo = Multiblock.halo
type orientation = Multiblock.orientation

val identity_orientation : orientation

(** Declare an inter-block coupling: [src_range] (a face of [src]) feeds
    [dst_range] (typically ghost cells of [dst]), with an optional
    3x3 index [orientation] (axis permutation / flips). Extents must match
    after transformation. *)
val decl_halo :
  ctx -> name:string -> src:dat -> dst:dat -> src_range:range -> dst_range:range ->
  ?orientation:orientation -> unit -> halo

(** Execute the declared transfers — the application-triggered
    synchronisation points between blocks. *)
val halo_transfer : ctx -> halo list -> unit

(** {1 Boundary conditions} *)

type centering = Boundary.centering = Cell | Node

(** Reflective ghost-shell update (update_halo in 3D): ghost values
    mirror the interior, with optional per-axis sign flips for
    wall-normal velocity components and centre-aware reflection for
    staggered fields. *)
val mirror_halo :
  ctx -> ?depth:int -> ?sign_x:float -> ?sign_y:float -> ?sign_z:float ->
  ?center_x:centering -> ?center_y:centering -> ?center_z:centering ->
  dat -> unit

(** {1 The parallel loop} *)

(** Per-call-site executor handle, optional, as in {!Ops.make_handle}: a
    call without one is cached by loop name and argument shape. *)
type handle

val make_handle : unit -> handle

(** [par_loop ctx ~name ?info ?handle block range args kernel] validates
    stencils against the range and ghost depth, records trace/profile
    entries, and executes [kernel] at every point of [range] on the
    context's backend. *)
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

(** [par_loop_acc] is {!par_loop} for an accessor kernel value, as
    {!Ops.par_loop_acc}: a generated kernel's call checked against its
    declared signature, and its range walker run once per range, every
    dataset in place, where the arguments allow it; otherwise every
    argument staged and the point form run at every point. *)
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

(** Kernel footprint inference (see {!Ops}): on by default, once per loop
    signature; observed facts lighten the Check backend and feed
    {!Am_analysis.Verify} via [footprints].  Runtime halo tightening
    from sampled negatives is opt-in ([set_tighten]). *)

val set_infer : ctx -> bool -> unit
val infer_enabled : ctx -> bool

(** Opt in to runtime tightening from sampled never-observed-read facts
    (shrunken halo depths, dropped exchanges).  Off by default; see
    {!Ops.set_tighten} for the soundness caveat. *)
val set_tighten : ctx -> bool -> unit

val tighten_enabled : ctx -> bool
val footprints : ctx -> Am_core.Probe.info list

(** {1 Automatic checkpointing}

    As for OP2 and 2D OPS: one [request_checkpoint] and the library picks
    the cheapest trigger within a detected loop period, saves only what
    recovery needs (full padded arrays, ghost shell included) and
    fast-forwards a restarted run. On partitioned contexts snapshots are
    pulled from (and restored to) the owning ranks' windows. *)

val enable_checkpointing : ctx -> unit
val request_checkpoint : ctx -> unit
val checkpoint_session : ctx -> Am_checkpoint.Runtime.session option
val checkpoint_to_file : ctx -> path:string -> unit
val recover_from_file : ctx -> path:string -> unit

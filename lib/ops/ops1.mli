(** OPS1: the structured-mesh active library instantiated for 1D blocks.

    The paper's OPS abstraction is dimension-generic — blocks carry "a
    number of dimensions (1D, 2D, 3D, etc.)". This module is the
    one-dimensional instantiation, with the same contract as {!Ops} and
    {!Ops3}: datasets own their extent and ghost cells, loops declare a
    stencil and access mode per argument, and writes are centre-only,
    which makes any partition of the iteration interval race-free.

    Kernel buffers are point-major: for an argument with stencil point [p]
    and component [c], the value sits at [buf.(p*dim + c)]. *)

module Access = Am_core.Access
module Descr = Am_core.Descr
module Profile = Am_core.Profile
module Trace = Am_core.Trace

(** Kernel argument accessors and kernel values, as in {!Ops.Acc}: a
    [let%kernel] declares 1D stencils as [[0; -1; 1]]. *)
module Acc = Ops.Acc

type block = Types.block
type dat = Types.dat
type arg = Types.arg

(** Half-open iteration interval; negative indices reach the ghost cells. *)
type range = { xlo : int; xhi : int }

(** Relative dx offsets; index 0 of the kernel buffer is offset 0. *)
type stencil = int array

val stencil_point : stencil

(** Centre plus the two neighbours, in declaration order: centre, -x, +x. *)
val stencil_3pt : stencil

(** Backend: sequential reference, chunk-parallel domain pool, or the
    tiled GPU simulator. The distributed backend is entered with
    {!partition}. *)
type backend =
  | Seq
  | Shared of { pool : Am_taskpool.Pool.t }
  | Cuda_sim of Exec.cuda_config1
  | Check
      (** sanitizer: sequential semantics with canary-padded, access-guarded
          staging buffers — violations raise {!Am_core.Sanitizer.Violation} *)

type ctx

val create : ?backend:backend -> unit -> ctx
val set_backend : ctx -> backend -> unit
val backend : ctx -> backend
val profile : ctx -> Profile.t
val trace : ctx -> Trace.t

(** {1 Declarations} *)

val decl_block : ctx -> name:string -> block

(** [decl_dat ctx ~name ~block ~xsize ?halo ?dim ()] declares a
    zero-initialised dataset with [halo] ghost cells on both ends
    (default 2) and [dim] components per point (default 1). *)
val decl_dat :
  ctx -> name:string -> block:block -> xsize:int -> ?halo:int -> ?dim:int ->
  unit -> dat

val blocks : ctx -> block list
val dats : ctx -> dat list

(** {1 Loop arguments} *)

(** Dataset argument with its stencil. Written arguments ([Write]/[Rw]/
    [Inc]) must use {!stencil_point}, and a dataset written by a loop
    must be accessed centre-only by every argument of that loop. *)
val arg_dat : dat -> stencil -> Access.t -> arg

(** Global argument: [Read] broadcasts, [Inc]/[Min]/[Max] reduce. *)
val arg_gbl : name:string -> float array -> Access.t -> arg

(** The kernel receives the iteration index x as one float. *)
val arg_idx : arg

(** {1 Data access} *)

val interior : dat -> range
val get : dat -> x:int -> c:int -> float
val set : dat -> x:int -> c:int -> float -> unit

(** Interior values, assembled from rank windows when partitioned. *)
val fetch_interior : ctx -> dat -> float array

(** A copy of the padded array, ghost cells included, pulled from the
    owning ranks when partitioned, as {!Ops.fetch_padded}. *)
val fetch_padded : ctx -> dat -> float array

(** [init ctx dat f] sets every addressable cell (ghosts included) to
    [f x c], pushing to rank windows when partitioned. *)
val init : ctx -> dat -> (int -> int -> float) -> unit

(** {1 Distributed execution} *)

(** Decompose every dataset into contiguous chunks over [n_ranks]
    simulated ranks; [ref_xsize] is the reference cell count. Ghost-cell
    exchanges then happen on demand, driven by the declared stencils and
    access modes. *)
val partition : ctx -> n_ranks:int -> ref_xsize:int -> unit

(** Hybrid MPI+OpenMP: each rank's chunk runs on a shared pool. *)
type rank_execution = Exec.rank_exec =
  | Rank_seq
  | Rank_shared of Am_taskpool.Pool.t

val set_rank_execution : ctx -> rank_execution -> unit

(** Halo-exchange policy: [On_demand] (default, dirty-bit driven) or
    [Eager] (exchange before every stencil read). *)
type halo_policy = On_demand | Eager

val set_halo_policy : ctx -> halo_policy -> unit

val comm_stats : ctx -> Am_simmpi.Comm.stats option

(** {1 Fault injection}

    Attach a seeded {!Am_simmpi.Fault} injector, as in {!Ops}: partitioned
    messages travel through the communicator's reliable transport and the
    armed rank crash fires from {!par_loop}.  May be called before or after
    partitioning; the injector is shared across recovery restarts. *)

val set_fault_injector : ctx -> Am_simmpi.Fault.t -> unit
val fault_injector : ctx -> Am_simmpi.Fault.t option

(** {1 Boundary conditions} *)

type centering = Boundary.centering = Cell | Node

(** Reflective ghost-cell update at both ends, with an optional sign flip
    for wall-normal components and centre-aware reflection for staggered
    fields. *)
val mirror_halo : ctx -> ?depth:int -> ?sign:float -> ?center:centering -> dat -> unit

(** {1 The parallel loop} *)

(** Per-call-site executor handle, optional, as in {!Ops.make_handle}: a
    call without one is cached by loop name and argument shape. *)
type handle

val make_handle : unit -> handle

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

(** Kernel footprints (see {!Ops}): a report, probed per call site when
    [footprints] first reads it, for {!Am_analysis.Verify}; no backend
    reads one. *)

val footprints : ctx -> Am_core.Probe.info list

(** {1 Automatic checkpointing}

    As for the other facades: one [request_checkpoint] and the library
    picks the cheapest trigger within a detected loop period and
    fast-forwards a restarted run. On partitioned contexts snapshots are
    pulled from (and restored to) the owning ranks' windows. *)

val enable_checkpointing : ctx -> unit
val request_checkpoint : ctx -> unit
val checkpoint_session : ctx -> Am_checkpoint.Runtime.session option
val checkpoint_to_file : ctx -> path:string -> unit
val recover_from_file : ctx -> path:string -> unit

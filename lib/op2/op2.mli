(** OP2: the unstructured-mesh domain-specific active library.

    An application declares its mesh once — sets, maps between sets, and
    datasets on sets — and expresses all computation as parallel loops over
    sets, with an access descriptor per argument. From that single
    abstraction the library derives race-free shared-memory schedules
    (two-level colouring), GPU execution plans (block staging, AoS/SoA),
    distributed-memory partitioning with on-demand halo exchanges, mesh
    renumbering, checkpoint analyses and performance-model inputs — the
    design of Giles, Mudalige et al.'s OP2.

    {[
      let ctx = Op2.create () in
      let cells = Op2.decl_set ctx ~name:"cells" ~size:n_cells in
      let edges = Op2.decl_set ctx ~name:"edges" ~size:n_edges in
      let e2c = Op2.decl_map ctx ~name:"e2c" ~from_set:edges ~to_set:cells
                  ~arity:2 ~values in
      let q = Op2.decl_dat ctx ~name:"q" ~set:cells ~dim:4 ~data in
      Op2.par_loop ctx ~name:"flux" edges
        [ Op2.arg_dat_indirect q e2c 0 Access.Read;
          Op2.arg_dat_indirect q e2c 1 Access.Read;
          Op2.arg_dat_indirect res e2c 0 Access.Inc;
          Op2.arg_dat_indirect res e2c 1 Access.Inc ]
        (fun args -> ...)
    ]}

    {2 Kernel ABI}

    A kernel takes one argument view per loop argument, in two forms.  The
    accessor form ({!par_loop_acc}, whose point form is
    [Acc.t array -> unit]; see the element walkers below) is the one of
    the paper's Fig 7 [OP_ACC]: component [i] of argument [a] is
    [a.data.(a.base + i)].  The staged form ({!par_loop},
    [float array array -> unit]) receives one staging buffer per argument,
    gathered before the call and scattered back according to the access
    mode.  Datasets are addressed in place only by a generated element
    walker; the point form always runs on staged addressing, base-0
    accessors over the staging buffers.  Either way [Inc] arguments start
    from zero and are added to memory after the kernel, so increments round
    identically under both forms.  Kernels must touch only their
    arguments' [dim] components: in place, a write to a [Read] argument or
    past [dim] reaches memory, which probing and [Check] report by loop,
    argument and slot.

    {2 Element walkers}

    {!par_loop_acc} takes a kernel value ({!Acc.kernel}) holding the point
    form above and, for a generated kernel, an element walker
    [elems w lo hi] ({!Acc.walker}) that runs the kernel at every element
    of [[lo, hi)] — what the point walker does, so the results are the
    same bits.  One rule picks each worker's frame: a walker frame runs
    the element walker with every dataset in place, when the kernel has
    one and every dataset argument is an AoS [Inc] or an AoS dataset no
    other argument writes; otherwise a staging frame stages every argument
    and runs the point form at every element.  A walker frame's walker
    runs once over the whole set on [Seq], once per conflict-free chunk or
    coloured block on [Shared] and on blocking partitioned ranks run by
    either, and once per element on [Vec] lanes, [Cuda_sim] NOSOA blocks
    and the partitioned core/boundary subsets.  Lifted point functions,
    aliased or SoA arguments, the [Check] backend, footprint probing and
    the [Staged] GPU strategy stage.

    [let%elem_kernel name (a : Acc.t array) = body], followed by its
    [args] attribute (the [ppx_kernel] rewriter), binds [name] to the
    kernel value whose point form is [fun a -> body], exactly as written,
    and whose element walker is generated for the declared argument
    signature ({!Acc.arg_sig}) that the attribute lists, one entry per
    argument: [label dim Access] for a direct dataset,
    [label (map arity slot) dim Access] for an indirect one,
    [gbl length Access] for a global; Airfoil's [res_calc] declares
    [x (edge_nodes 2 0) 2 Read, ..., res (edge_cells 2 1) 4 Inc].
    Labels are names local to the signature.  The walker has every dim,
    arity and slot as a constant, loads one dataset array per dataset
    label and one map table per map label per call, each (map label,
    slot) once per element, and runs [body] inlined with ordinary
    bounds-checked indexing and the same floating-point operations in the
    same order.  An [Inc] dataset, or an [Inc]/[Min]/[Max] global, that
    every use names by a literal component lives in float locals; with a
    computed component, in the worker's scratch or accumulator.  Every
    [Inc] adds all its components back to memory after the body, in
    argument order and then component order, so a [-0.0] target becomes
    [+0.0] as under the point walker.  The body names accessors as [a.(k)]
    with a literal [k], or as a variable [let]-bound to one, and uses them
    only through two module-local functions, [get x c] and [set x c v].
    Any other use of an accessor — passed to a function, returned or
    stored, indexed by a non-literal argument number — is a compile-time
    error at its location, so helpers take floats; so are a literal
    component outside [[0, dim)], a [set] on a [Read] argument, an
    argument number outside the signature, and a missing or inconsistent
    signature.  Every call of a generated kernel is checked against its
    signature before any element runs, on every backend: a dim, access
    mode, direct/indirect, arity, slot, global length, or a label naming
    two datasets or two maps that differs raises [Invalid_argument]
    naming the loop, the kernel, the argument and the fact.  A plain
    point function becomes a kernel value through {!Acc.lift}, with no
    element walker and no signature: it runs staged everywhere, the
    reference a generated kernel agrees with to the bit. *)

module Access = Am_core.Access
module Descr = Am_core.Descr
module Profile = Am_core.Profile
module Trace = Am_core.Trace

type set = Types.set
type map_t = Types.map_t
type dat = Types.dat
type arg = Types.arg

(** Kernel argument accessors and kernel values (see the kernel ABI and the
    element walkers above), the accessor type OP2 shares with OPS
    ({!Am_core.Acc}).  An OP2 argument is a single point: [off] is
    [[|0|]], and component [i] is [a.data.(a.base + i)].  Kernel modules
    define their own [[@inline]] component accessors,
    [let[@inline] get (a : Acc.t) i = a.Acc.data.(a.Acc.base + i)]: a call
    into another module is not inlined under [-opaque] and boxes floats. *)
module Acc : sig
  type t = Am_core.Acc.t = { data : float array; mutable base : int; off : int array }

  (** An indirect argument's map as a kernel declares it: a label local to
      the signature, the map's arity and the argument's slot. *)
  type via = Am_core.Acc.via = { map : string; arity : int; slot : int }

  (** One argument of a kernel's declared signature, the facts
      {!arg_dat}, {!arg_dat_indirect} and {!arg_gbl} state: a dataset's
      label (local to the signature: two arguments with one label pass one
      dataset), dim, access mode and map, or a global's length and access
      mode. *)
  type arg_sig = Am_core.Acc.arg_sig =
    | Dat of { label : string; dim : int; access : Access.t; via : via option }
    | Gbl of { len : int; access : Access.t }

  (** Where an element walker finds one argument's arrays: the dataset
      array ([[||]] for a global) and the map table ([[||]] for a direct
      argument or a global).  Built once per compiled executor. *)
  type addr = Am_core.Acc.addr = { adata : float array; amap : int array }

  (** One worker's view of a loop: the executor's [addrs] and the worker's
      [bufs], where [bufs.(k)] is a global's accumulator or an [Inc]
      argument's per-element scratch. *)
  type walk = Am_core.Acc.walk = { addrs : addr array; bufs : float array array }

  (** A generated element walker, [elems w lo hi], and the kernel name and
      signature it was generated for. *)
  type walker = Am_core.Acc.walker = {
    kname : string;
    signature : arg_sig array;
    elems : walk -> int -> int -> unit;
  }

  (** A kernel value: the point form, and for a generated kernel its
      element walker (see the element walkers above). *)
  type kernel = Am_core.Acc.elem_kernel = { elem : t array -> unit; walker : walker option }

  (** A base-0 single-point accessor over a buffer. *)
  val of_array : float array -> t

  (** The staged form of a point function. *)
  val staged : (t array -> unit) -> float array array -> unit

  (** [lift f] is the kernel value of the point function [f], with no
      element walker: it always runs staged. *)
  val lift : (t array -> unit) -> kernel
end

(** Dataset memory layout: array-of-structures or structure-of-arrays. *)
type layout = Types.layout = Aos | Soa

(** Execution backend of a context. [Seq] is the reference; [Shared] runs
    colour-by-colour block schedules on a domain pool; [Cuda_sim] executes
    the structure of OP2's generated CUDA (thread blocks, element colours,
    the three memory strategies of the paper's Fig 7) in-process. The
    distributed backend is entered with {!partition}. *)
type backend =
  | Seq
  | Vec of Exec_vec.config
      (** packed gather / simd-body / packed scatter structure of OP2's
          generated vectorised CPU code, colour-packed for indirect writes *)
  | Shared of { pool : Am_taskpool.Pool.t; block_size : int }
  | Cuda_sim of Exec_cuda.config
  | Check
      (** sanitizer: sequential semantics with canary-padded, access-guarded
          staging buffers — a kernel violating its access descriptors raises
          {!Exec_check.Violation} naming the loop, argument and element.
          Loops with indirect writes additionally have their cached plan's
          colouring machine-checked ({!Plan.validate}) before execution. *)

type ctx

(** Fresh application context (default backend: [Seq]). *)
val create : ?backend:backend -> unit -> ctx

(** Switch backend between loops; rejected on partitioned contexts (ranks
    execute sequentially there). *)
val set_backend : ctx -> backend -> unit

val backend : ctx -> backend

(** Per-loop wall-time/bytes profile (the data behind Table-I-style
    breakdowns). *)
val profile : ctx -> Profile.t

(** Loop-sequence trace; enable to feed the checkpoint planner and the
    performance model. *)
val trace : ctx -> Trace.t

(** {1 Declarations} *)

val decl_set : ctx -> name:string -> size:int -> set

(** [decl_map ctx ~name ~from_set ~to_set ~arity ~values] declares a map
    with [arity] entries per [from_set] element. Values are validated
    against [to_set] and copied. *)
val decl_map :
  ctx -> name:string -> from_set:set -> to_set:set -> arity:int -> values:int array ->
  map_t

(** [decl_dat ctx ~name ~set ~dim ~data] declares a dataset with [dim]
    values per element ([data] copied, AoS order). *)
val decl_dat : ctx -> name:string -> set:set -> dim:int -> data:float array -> dat

(** Zero-initialised dataset. *)
val decl_dat_zero : ctx -> name:string -> set:set -> dim:int -> dat

(** [decl_const ctx ~name values] registers a global simulation constant
    (op_decl_const). Kernels read constants directly as OCaml values; the
    declaration tells the code generator to emit the constant per target
    (CUDA constant memory, C globals) and appears in diagnostics. *)
val decl_const : ctx -> name:string -> float array -> unit

(** Declared constants, in declaration order. *)
val consts : ctx -> (string * float array) list

val sets : ctx -> set list
val maps : ctx -> map_t list
val dats : ctx -> dat list

(** {1 Loop arguments} *)

(** Direct access: element [i] of the loop touches element [i] of the dat.
    Raises [Invalid_argument] when the access mode is not
    {!Access.valid_on_dat} (Min/Max are global reductions). *)
val arg_dat : dat -> Access.t -> arg

(** Indirect access through map component [idx]: element [e] touches
    [map.values.(e*arity + idx)]. Same access-mode validation as
    {!arg_dat}. *)
val arg_dat_indirect : dat -> map_t -> int -> Access.t -> arg

(** Global argument: [Read] broadcasts, [Inc]/[Min]/[Max] reduce. Raises
    [Invalid_argument] when the mode is not {!Access.valid_on_gbl}
    (Write/Rw on a shared scalar cannot be raced safely). *)
val arg_gbl : name:string -> float array -> Access.t -> arg

(** {1 Data access} *)

(** Dataset contents in global element order and AoS layout, whatever the
    backend's internal representation (owned values gathered from ranks on
    partitioned contexts). Always a fresh array. *)
val fetch : ctx -> dat -> float array

(** Overwrite a dataset from a global-order AoS array (scattered to ranks on
    partitioned contexts). *)
val update : ctx -> dat -> float array -> unit

(** In-place AoS/SoA conversion (the paper's automatic layout
    transformation); not available once partitioned. *)
val convert_layout : ctx -> dat -> layout -> unit

(** {1 Optimisations} *)

(** Reverse Cuthill-McKee renumbering on the dual graph of [through]'s
    target set, with induced orderings on every other set; datasets and maps
    are permuted in place and execution plans invalidated. Returns the dual
    graph's mean index distance (before, after). Must precede
    {!partition}. *)
val renumber : ctx -> through:map_t -> float * float

(** Renumber with a caller-supplied seed ordering of one set
    ([perm.(old) = new], e.g. from {!Am_mesh.Reorder.hilbert}); other sets'
    orderings are induced through the maps as for {!renumber}. *)
val renumber_with : ctx -> set:set -> perm:int array -> unit

(** {1 Distributed execution} *)

type partition_strategy = Dist.strategy =
  | Block_on of set  (** contiguous ranges of the given set *)
  | Rcb_on of dat  (** recursive coordinate bisection on a coordinate dat *)
  | Kway_through of map_t
      (** k-way graph partition of the map's target set's dual graph
          (the PT-Scotch/ParMetis role) *)

(** Partition every set across [n_ranks] simulated ranks (propagating the
    primary partition through the declared maps), build halo exchange
    plans, and scatter datasets. Subsequent loops run owner-compute with
    on-demand halo exchanges derived from the access descriptors. *)
val partition : ctx -> n_ranks:int -> strategy:partition_strategy -> unit

val dist : ctx -> Dist.t option

(** Intra-rank execution of the distributed backend: the paper's hybrid
    MPI+OpenMP (shared pool per rank) and MPI+vectorised modes. Rank-local
    execution plans are built from the rank-local map tables. *)
type rank_execution = Dist.rank_exec =
  | Rank_seq
  | Rank_shared of { pool : Am_taskpool.Pool.t; block_size : int }
  | Rank_vec of Exec_vec.config

(** Select intra-rank execution; the context must be partitioned. *)
val set_rank_execution : ctx -> rank_execution -> unit

(** Halo-exchange policy. [On_demand] (the default, and the paper's
    design) exchanges a dataset's halo only when a prior write made it
    stale, driven by the access descriptors; [Eager] exchanges before
    every indirect read — the behaviour of a runtime without dirty-bit
    tracking. Results are identical; communication volume is not (see the
    halo-policy ablation). *)
type halo_policy = On_demand | Eager

val set_halo_policy : ctx -> halo_policy -> unit

(** Communication mode of the partitioned runtime. [Blocking] (the
    default) completes every halo exchange before the loop body runs;
    [Overlap] posts the exchange, executes the {e core} elements — those
    reaching only owned slots through the loop's indirections — while the
    messages are in flight, waits, then executes the {e boundary}
    elements. Under sequential rank execution both modes iterate
    core-then-boundary, so their results are bitwise identical; the modes
    differ only in how much communication time is exposed
    (see {!Am_core.Profile.entry}). *)
type comm_mode = Blocking | Overlap

val set_comm_mode : ctx -> comm_mode -> unit
val comm_mode : ctx -> comm_mode

(** Live communication counters of the partitioned runtime. *)
val comm_stats : ctx -> Am_simmpi.Comm.stats option

(** {1 Fault injection}

    Attach a seeded {!Am_simmpi.Fault} injector: the partitioned runtime's
    messages then travel through the communicator's reliable transport
    (sequence numbers, CRC verification, timeout-driven retransmission),
    and the injector's armed rank crash fires from {!par_loop} when its
    loop counter is reached — raising [Am_simmpi.Fault.Crashed], which a
    recovery harness turns into a restart.  May be called before or after
    {!partition}; the injector is shared across recovery restarts. *)

val set_fault_injector : ctx -> Am_simmpi.Fault.t -> unit
val fault_injector : ctx -> Am_simmpi.Fault.t option

(** {1 The parallel loop} *)

(** Per-call-site loop handle, optional: caches the resolved execution plan
    and the compiled executor for a [par_loop] site, so repeated
    invocations skip the signature-string cache lookups entirely (validity
    is re-checked with pointer compares every call, and the handle
    re-resolves itself after renumbering, layout conversion or dataset
    updates).  Executors hold no global buffer: each call's globals are
    bound when it runs, so fresh literals cost no recompile.  A call
    without a handle is cached by loop name and argument shape (datasets,
    maps and slots, access modes, global names and lengths): it runs on the
    handle of its entry in the context's call-site table, which also keeps
    each entry's footprint.  Same-signature sites share one plan and one
    executor even through distinct handles.  Loops that take one argument
    list may share a handle: they share its plan and executor, while the
    footprint is kept per loop name.  Plans and executors are per rank on
    partitioned contexts, cached by the partitioned runtime itself, so
    there a handle is unused. *)
type handle = Plan.handle

val make_handle : unit -> handle

(** [par_loop ctx ~name ?info ?handle iter_set args kernel] validates
    [args], records trace/profile entries, and executes the staged
    [kernel] over every element of [iter_set] on the context's backend.
    [info] declares the kernel's per-element flop/transcendental counts for
    the performance model; [handle] memoises plan + executor resolution for
    the call site. *)
val par_loop :
  ctx ->
  name:string ->
  ?info:Descr.kernel_info ->
  ?handle:handle ->
  set ->
  arg list ->
  (float array array -> unit) ->
  unit

(** [par_loop_acc] is {!par_loop} for an accessor kernel value: the same
    pipeline (validation — a generated kernel's arguments against its
    declared signature too, raising [Invalid_argument] on a mismatch —
    trace, fault counter, footprint probing, checkpointing, profile) and
    the same backends, with the element walker run over every dataset in
    place where the rule above allows it, and every argument staged
    otherwise.  Results are bitwise those of the staged form of
    the same kernel ({!Acc.staged} of its point form) on every backend.  A
    handle may serve both entry points: they share one compiled
    executor. *)
val par_loop_acc :
  ctx ->
  name:string ->
  ?info:Descr.kernel_info ->
  ?handle:handle ->
  set ->
  arg list ->
  Acc.kernel ->
  unit

(** {1 Kernel footprint inference}

    On by default and cached once per loop signature: each kernel is probed
    over sentinel-filled staging buffers before its first execution, and the
    observed footprint is compared against the declared descriptor by
    {!Am_analysis.Verify}.  Clean footprints let the Check backend skip the
    bitwise Read snapshot compares the probes already covered.  Dropping
    halo exchanges for indirectly-read datasets the probes never saw the
    kernel read is an explicit opt-in via [set_tighten] (off by default):
    never-observed is a sampled negative, and a data-dependent read the
    probes missed would otherwise consume stale ghost elements silently. *)

val set_infer : ctx -> bool -> unit
val infer_enabled : ctx -> bool

(** Opt in to dropping ghost exchanges for datasets whose reads probing
    never observed.  Off by default; see the caveat above. *)
val set_tighten : ctx -> bool -> unit

val tighten_enabled : ctx -> bool
val footprints : ctx -> Am_core.Probe.info list

(** {1 Diagnostics} *)

(** Human-readable summary of every cached execution plan (block counts and
    both colouring levels) — the op_diagnostic view of Section II.B. *)
val plan_report : ctx -> string

(** Dump a dataset to a text file in global element order; works on
    partitioned contexts too (op_print_dat_to_txtfile). *)
val dump_dat : ctx -> dat -> path:string -> unit

(** Per-set decomposition summary of a partitioned context (owned/halo
    counts, exchange volumes, peer counts); "not partitioned" otherwise. *)
val partition_report : ctx -> string

(** {1 Automatic checkpointing}

    Because all data is handed to the library at declaration time, the
    checkpoint content is decided automatically from the access-execute
    descriptions (paper Section VI): the user only requests a checkpoint;
    the library waits (within one detected loop period) for the cheapest
    trigger, saves exactly the datasets recovery needs, and on restart
    fast-forwards the application to the checkpoint. *)

(** Route subsequent {!par_loop}s through a checkpointing session. *)
val enable_checkpointing : ctx -> unit

(** Ask for a checkpoint at the next (cheapest, within one loop period)
    opportunity. Requires {!enable_checkpointing}. *)
val request_checkpoint : ctx -> unit

val checkpoint_session : ctx -> Am_checkpoint.Runtime.session option

(** Persist the made checkpoint to a snapshot file. *)
val checkpoint_to_file : ctx -> path:string -> unit

(** Restart support: subsequent loops are skipped until the checkpoint
    position recorded in the file, state is restored there, and execution
    resumes. The application simply runs from the beginning. *)
val recover_from_file : ctx -> path:string -> unit

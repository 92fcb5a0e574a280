(* The loop pipeline behind the [Ops1], [Ops] and [Ops3] facades: one
   context, one [par_loop] pipeline (validate, describe, trace, fault
   counter, footprint, lazy enqueue or checkpoint, execute, profile), one
   lazy loop chain with its tiled segment runners, and the checkpoint and
   fault glue — written once against the rank-3 core of [Types], [Exec]
   and [Exec_check].  A context knows its block rank, which picks the axis
   the Shared backend splits and the lazy chain tiles (x in 1D, y in 2D,
   z in 3D); everything else is rank-blind.

   The facades keep their own public types (ranges, stencils, backend
   constructors) and translate them here: a facade's [backend] value is
   stored as given, next to the [exec] engine it selects. *)

module Access = Am_core.Access
module Descr = Am_core.Descr
module Probe = Am_core.Probe
module Profile = Am_core.Profile
module Trace = Am_core.Trace

(* The engine a facade backend selects. *)
type exec = Seq | Shared of Am_taskpool.Pool.t | Cuda of Exec.cuda_config3 | Check

(* Per-call-site loop handle: caches the compiled gather/scatter executor
   (offset tables and specialised closures) so repeated invocations skip
   argument compilation.  Freshness is a handful of pointer compares per
   call; a changed dataset array, stencil or access recompiles. *)
type handle = { mutable h_exec : Exec.compiled_arg array option }

let make_handle () = { h_exec = None }

(* One recorded [par_loop] invocation: everything needed to run it later.
   Read-global buffers are snapshotted at record time ([q_snapshots]) —
   applications refill scratch constant arrays in place between loops, so
   the values the loop saw when it was recorded must be restored (into the
   same array, preserving the handle cache's pointer identity) before the
   deferred execution reads them. *)
type queued_loop = {
  q_name : string;
  q_descr : Descr.loop;
  q_range : Types.range;
  q_args : Types.arg list;
  q_kernel : Exec.kernel;
  q_handle : handle option;
  q_snapshots : (float array * float array) list; (* user buffer, copy *)
  q_foot : Probe.info option; (* observed footprint, if inference is on *)
}

(* A chain entry: a recorded loop, or an order-preserving deferred data
   operation (ghost mirrors) that splits tileable segments. *)
type chain_item = Q_loop of queued_loop | Q_op of (unit -> unit) * string

type 'backend ctx = {
  rank : int;
  env : Types.env;
  mutable backend : 'backend;
  mutable exec : exec;
  profile : Profile.t;
  trace : Trace.t;
  mutable dist : Dist.t option; (* the decomposition, once partitioned *)
  mutable checkpoint : Am_checkpoint.Runtime.session option;
  mutable fault : Am_simmpi.Fault.t option;
  (* Lazy loop chains (cross-loop cache tiling).  [tile_pool] switches the
     tiled flush from the sequential slab walk to the wavefront executor. *)
  mutable lazy_mode : bool;
  mutable tile_size : int;
  mutable tile_pool : Am_taskpool.Pool.t option;
  mutable chain_rev : chain_item list;
  mutable chain_len : int;
  mutable obs_hooked : bool;
  (* Kernel footprint inference (once per loop signature). *)
  mutable infer : bool;
  (* Spend sampled never-observed-read facts on runtime tightening (halo
     depth / exchange drops / tile skew).  Off by default: absence under
     sampling is evidence, not proof, so acting on it is an explicit
     opt-in (see DESIGN.md 5j). *)
  mutable tighten : bool;
  foot_tbl : (string, Probe.info) Hashtbl.t;
}

(* Outer-axis slab of the skewed tiles: rows in 2D; a stack of z-planes in
   3D, so much smaller; a contiguous chunk of cells in 1D, so larger. *)
let default_tile rank = match rank with 1 -> 256 | 2 -> 16 | _ -> 4

(* Longest chain recorded before a forced flush: bounds the closures (and
   global snapshots) held alive, and keeps a runaway chain's tile schedule
   from degenerating into one giant skewed wavefront. *)
let max_chain = 64

let create ~rank ~backend ~exec =
  {
    rank;
    env = Types.make_env ();
    backend;
    exec;
    profile = Profile.create ();
    trace = Trace.create ();
    dist = None;
    checkpoint = None;
    fault = None;
    lazy_mode = false;
    tile_size = default_tile rank;
    tile_pool = None;
    chain_rev = [];
    chain_len = 0;
    obs_hooked = false;
    infer = true;
    tighten = false;
    foot_tbl = Hashtbl.create 32;
  }

let facade ctx = Types.facade ctx.rank

(* ---- Kernel footprint inference ----------------------------------------- *)

(* Observed Chebyshev read extent per argument, computed against the real
   stencil offsets (which [Descr] does not keep): the widest offset whose
   point was observed read on some probe.  [-1] marks "no tightening" —
   not a stencil read, or a footprint the consumers must not act on. *)
let observed_exts args (fp : Probe.t) =
  let usable = Probe.clean fp in
  Array.of_list
    (List.mapi
       (fun i arg ->
         match arg with
         | Types.Arg_dat { dat; stencil; access; _ }
           when usable && Access.reads access && i < Array.length fp.Probe.fp_args ->
           let pr = Probe.points_read fp.Probe.fp_args.(i) ~dim:dat.Types.dim in
           let ext = ref 0 in
           for p = 0 to Types.npoints stencil - 1 do
             if p < Array.length pr && pr.(p) then
               ext := max !ext (Types.point_extent stencil p)
           done;
           !ext
         | Types.Arg_dat _ | Types.Arg_gbl _ | Types.Arg_idx _ -> -1)
       args)

(* The concrete stencil offsets and strides, which [Descr] abstracts to a
   point count and radius: part of the cache key because [observed_exts]
   and the tiling projection index masks by offset position — same-shaped
   descriptors with different offset sets must probe separately. *)
let stencil_salt args =
  let offsets = function
    | Types.S1 a -> Array.to_list (Array.map (Printf.sprintf "(%d)") a)
    | Types.S2 a ->
      Array.to_list (Array.map (fun (dx, dy) -> Printf.sprintf "(%d,%d)" dx dy) a)
    | Types.S3 a ->
      Array.to_list
        (Array.map (fun (dx, dy, dz) -> Printf.sprintf "(%d,%d,%d)" dx dy dz) a)
  in
  String.concat ";"
    (List.map
       (function
         | Types.Arg_dat { stencil; stride; _ } ->
           String.concat "" (offsets stencil)
           ^
           if stride = Types.unit_stride then ""
           else
             Printf.sprintf "~%d/%d,%d/%d,%d/%d" stride.Types.xn stride.Types.xd
               stride.Types.yn stride.Types.yd stride.Types.zn stride.Types.zd
         | Types.Arg_gbl _ -> "g"
         | Types.Arg_idx _ -> "i")
       args)

(* Which argument positions are iteration-index buffers, so the probe
   feeds them grid-like coordinates (the descriptor flattens [Arg_idx]
   into a Read global the probe could not otherwise distinguish). *)
let idx_flags args =
  Array.of_list
    (List.map
       (function
         | Types.Arg_idx _ -> true
         | Types.Arg_dat _ | Types.Arg_gbl _ -> false)
       args)

(* Probe on first sight of a loop signature, then serve the cached
   observation: the kernel is a pure function of its staging buffers, so
   one inference per (name, argument structure) covers every later call. *)
let footprint ctx (descr : Descr.loop) args kernel =
  if not ctx.infer then None
  else begin
    let key = Probe.signature ~salt:(stencil_salt args) descr in
    match Hashtbl.find_opt ctx.foot_tbl key with
    | Some fi ->
      Am_obs.Counters.incr Am_obs.Obs.infer_hits;
      Some fi
    | None ->
      Am_obs.Counters.incr Am_obs.Obs.infer_misses;
      let fp =
        Probe.infer ~idx:(idx_flags args) ~loop:descr
          ~kernel:(Exec.staged_view args kernel) ()
      in
      let fi =
        { Probe.in_loop = descr; in_foot = fp; in_read_ext = observed_exts args fp }
      in
      Hashtbl.add ctx.foot_tbl key fi;
      Some fi
  end

(* The sanitizer drops to light mode (NaN checks only) exactly when the
   static pass proved the declaration: a loop whose footprint was caught
   violating keeps the full per-element guards, so the pinned dynamic
   violation is still raised. *)
let light_of = function
  | Some fi -> Probe.clean fi.Probe.in_foot
  | None -> false

let set_infer ctx enabled = ctx.infer <- enabled
let infer_enabled ctx = ctx.infer
let set_tighten ctx enabled = ctx.tighten <- enabled
let tighten_enabled ctx = ctx.tighten

(* Every footprint this context has inferred, for the analysis layer
   ([Verify.check], halo-schedule tightening). *)
let footprints ctx =
  Hashtbl.fold (fun _ fi acc -> fi :: acc) ctx.foot_tbl []
  |> List.sort (fun a b ->
         compare a.Probe.in_loop.Descr.loop_name b.Probe.in_loop.Descr.loop_name)

(* ---- Lazy loop chains (record / flush / tile) --------------------------- *)

let now () = Unix.gettimeofday ()

let resolve_compiled handle args =
  match handle.h_exec with
  | Some c when Exec.compiled_matches c args ->
    Am_obs.Counters.incr Am_obs.Obs.exec_hits;
    c
  | Some _ | None ->
    Am_obs.Counters.incr Am_obs.Obs.exec_misses;
    let c =
      Am_obs.Obs.span ~cat:Am_obs.Tracer.Plan "compile" (fun () -> Exec.compile args)
    in
    handle.h_exec <- Some c;
    c

let compiled_of q =
  match q.q_handle with
  | Some h -> resolve_compiled h q.q_args
  | None -> Exec.compile q.q_args

(* Lazy recording applies on the backends whose execution we can replay
   slab-by-slab (Seq bitwise-exactly, Check semantically); a partitioned or
   checkpointing context needs every loop's side effects at its program
   point, so recording is bypassed rather than half-supported. *)
let lazy_active ctx =
  ctx.lazy_mode && ctx.dist = None && ctx.checkpoint = None
  && (match ctx.exec with Seq | Check -> true | Shared _ | Cuda _ -> false)

let enqueue ctx item =
  ctx.chain_rev <- item :: ctx.chain_rev;
  ctx.chain_len <- ctx.chain_len + 1

(* Restore the record-time values of a loop's Read globals (in place: the
   arrays' identities are what the compiled-executor cache keys on). *)
let blit_snapshots q =
  List.iter
    (fun (buf, snap) -> Array.blit snap 0 buf 0 (Array.length snap))
    q.q_snapshots

(* A flush rewinds Read-global buffers entry by entry, so the caller-visible
   (live) values are saved first and restored when the flush completes. *)
let save_gbl_live items =
  let saved = ref [] in
  List.iter
    (function
      | Q_loop q ->
        List.iter
          (fun (buf, _) ->
            if not (List.exists (fun (b, _) -> b == buf) !saved) then
              saved := (buf, Array.copy buf) :: !saved)
          q.q_snapshots
      | Q_op _ -> ())
    items;
  !saved

let restore_gbl_live saved =
  List.iter (fun (buf, live) -> Array.blit live 0 buf 0 (Array.length live)) saved

(* Only unit-stride loops tile: a multigrid transfer argument couples each
   iteration slab to factor-scaled slabs of the other grid, which the
   outer-axis skew model does not describe.  Such loops run as segment
   boundaries at their recorded program point. *)
let loop_tileable q =
  List.for_all
    (function
      | Types.Arg_dat { stride; _ } -> stride = Types.unit_stride
      | Types.Arg_gbl _ | Types.Arg_idx _ -> true)
    q.q_args

(* Project a recorded loop onto one tiled axis.  Writes are centre-only
   (validated), so a writing access contributes its dataset to [li_writes]
   plus a centre touch in [li_reads]; reading accesses contribute their
   stencil's extents along the axis. *)
let entry_info ~tighten axis q =
  (* Under the [tighten] opt-in, when inference proved the declaration the
     skew distances come from the points observed read, not the declared
     stencil: an over-declared point costs tile skew for nothing.  The
     default keeps the declared distances — a data-dependent read the
     probes never triggered must not shrink a dependence and reorder the
     tiles. *)
  let foot =
    match q.q_foot with
    | Some fi when tighten && Probe.clean fi.Probe.in_foot -> Some fi.Probe.in_foot
    | Some _ | None -> None
  in
  let reads = ref [] and writes = ref [] in
  List.iteri
    (fun i arg ->
      match arg with
      | Types.Arg_dat { dat; stencil; access; _ } ->
        let id = dat.Types.dat_id in
        if Access.writes access then writes := id :: !writes;
        let below = ref 0 and above = ref 0 in
        if Access.reads access then begin
          let keep =
            match foot with
            | Some fp when i < Array.length fp.Probe.fp_args ->
              let pr = Probe.points_read fp.Probe.fp_args.(i) ~dim:dat.Types.dim in
              fun p -> p < Array.length pr && pr.(p)
            | Some _ | None -> fun _ -> true
          in
          for p = 0 to Types.npoints stencil - 1 do
            if keep p then begin
              let d = Types.delta axis stencil p in
              if -d > !below then below := -d;
              if d > !above then above := d
            end
          done
        end;
        reads := (id, !below, !above) :: !reads
      | Types.Arg_gbl _ | Types.Arg_idx _ -> ())
    q.q_args;
  {
    Tiling.li_lo = Types.lo axis q.q_range;
    li_hi = Types.hi axis q.q_range;
    li_reads = List.rev !reads;
    li_writes = List.rev !writes;
  }

let record_entry_profile ctx q ~seconds =
  Profile.record ctx.profile ~name:q.q_name ~seconds
    ~bytes:(Descr.total_bytes q.q_descr) ~elements:(Types.range_size q.q_range)

let run_check ctx q ~range =
  Exec_check.run ~light:(light_of q.q_foot) ~rank:ctx.rank ~name:q.q_name ~range
    ~args:q.q_args ~kernel:q.q_kernel ()

(* Run one recorded item eagerly at its program point (single-loop
   segments, non-tileable loops, deferred data operations). *)
let run_queued_eager ctx q =
  blit_snapshots q;
  let traced = Am_obs.Obs.tracing () in
  if traced then Am_obs.Obs.begin_span ~cat:Am_obs.Tracer.Loop q.q_name;
  let t0 = now () in
  (match ctx.exec with
  | Seq ->
    let compiled = Option.map (fun h -> resolve_compiled h q.q_args) q.q_handle in
    Exec.run_seq ?compiled ~range:q.q_range ~args:q.q_args ~kernel:q.q_kernel ()
  | Check -> run_check ctx q ~range:q.q_range
  | Shared _ | Cuda _ -> assert false (* lazy_active excludes these *));
  if traced then Am_obs.Obs.end_span ();
  record_entry_profile ctx q ~seconds:(now () -. t0)

(* Tiled execution of a maximal run of tileable loops on Seq.  Bitwise
   equality with the eager backend comes from three invariants: each
   entry's arguments are compiled and its frame made ONCE before any slab
   runs (global accumulators persist across slabs); a loop's slabs execute
   in ascending order along the outer axis, so their concatenation is
   exactly the eager traversal; and globals merge once per entry after the
   last slab, in chain order. *)
let run_segment_seq ctx entries =
  let outer = Types.outer_axis ctx.rank in
  let infos = Array.map (entry_info ~tighten:ctx.tighten outer) entries in
  let sched = Tiling.find ~tile_size:ctx.tile_size infos in
  Am_obs.Counters.add Am_obs.Obs.chain_tiles (Array.length sched.Tiling.sched_tiles);
  let prepped =
    Array.map
      (fun q ->
        blit_snapshots q;
        (Exec.make_frame (compiled_of q) q.q_kernel, ref 0.0))
      entries
  in
  let traced = Am_obs.Obs.tracing () in
  Array.iteri
    (fun t slabs ->
      let tile_t0 = now () in
      if traced then
        Am_obs.Obs.begin_span ~cat:Am_obs.Tracer.Loop
          ~args:[ ("tile", float_of_int t) ]
          "tile";
      Array.iter
        (fun { Tiling.s_loop; s_lo; s_hi } ->
          let q = entries.(s_loop) in
          let frame, secs = prepped.(s_loop) in
          let t0 = now () in
          Exec.run_range frame ~range:(Types.with_axis outer q.q_range ~lo:s_lo ~hi:s_hi);
          secs := !secs +. (now () -. t0))
        slabs;
      if traced then Am_obs.Obs.end_span ();
      Am_obs.Counters.observe Am_obs.Obs.tile_seconds (now () -. tile_t0))
    sched.Tiling.sched_tiles;
  Array.iteri
    (fun k q ->
      let frame, secs = prepped.(k) in
      Exec.merge_frame frame;
      record_entry_profile ctx q ~seconds:!secs)
    entries

(* The sanitizer executes the same slab schedule through its guarded
   engine, so descriptor violations are caught under the tiled traversal
   too.  Each slab is a fresh guarded run (record-time globals re-blitted
   first); global reductions merge per slab, which is associative for
   Inc/Min/Max — Check promises seq semantics, not bitwise identity. *)
let run_segment_check ctx entries =
  let outer = Types.outer_axis ctx.rank in
  let infos = Array.map (entry_info ~tighten:ctx.tighten outer) entries in
  let sched = Tiling.find ~tile_size:ctx.tile_size infos in
  Am_obs.Counters.add Am_obs.Obs.chain_tiles (Array.length sched.Tiling.sched_tiles);
  let secs = Array.map (fun _ -> ref 0.0) entries in
  Array.iter
    (fun slabs ->
      Array.iter
        (fun { Tiling.s_loop; s_lo; s_hi } ->
          let q = entries.(s_loop) in
          blit_snapshots q;
          let t0 = now () in
          run_check ctx q ~range:(Types.with_axis outer q.q_range ~lo:s_lo ~hi:s_hi);
          secs.(s_loop) := !(secs.(s_loop)) +. (now () -. t0))
        slabs)
    sched.Tiling.sched_tiles;
  Array.iteri
    (fun k q -> record_entry_profile ctx q ~seconds:!(secs.(k)))
    entries

(* The wavefront executor's two axes: the outer one and the next inwards
   (a 1D block's degenerate y, over which every loop runs [0, 1) without
   dependences, so it collapses out of the wavefront index: a 1D chain with
   real dependences runs its tiles one wave each, and a dependence-free
   chain fans every tile into one wave).  A tile's rectangle of the
   recorded range. *)
let wave_axes ctx = (Types.outer_axis ctx.rank, Types.inner_axis ctx.rank)

let wave_range ctx range { Tiling_par.ps_olo; ps_ohi; ps_ilo; ps_ihi; _ } =
  let outer, inner = wave_axes ctx in
  Types.with_axis outer ~lo:ps_olo ~hi:ps_ohi
    (Types.with_axis inner range ~lo:ps_ilo ~hi:ps_ihi)

let wave_schedule ctx entries =
  let outer, inner = wave_axes ctx in
  let outer_infos = Array.map (entry_info ~tighten:ctx.tighten outer) entries in
  let inner_infos = Array.map (entry_info ~tighten:ctx.tighten inner) entries in
  ( outer_infos,
    inner_infos,
    Tiling_par.find ~tile_size:ctx.tile_size ~outer:outer_infos ~inner:inner_infos )

(* Does a compiled loop carry a reducing (Inc/Min/Max) global?  Such
   entries need per-tile accumulator slots under the wavefront executor:
   worker-local partials would merge in a scheduling-dependent order. *)
let reduces_globals compiled =
  Array.exists
    (function
      | Exec.C_gbl { access = Access.Inc | Access.Min | Access.Max; _ } -> true
      | Exec.C_gbl _ | Exec.C_dat _ | Exec.C_idx _ -> false)
    compiled

(* Wavefront-parallel execution of a tileable segment on Seq.  The
   contract is weaker than the sequential tiled walk's bitwise promise:
   dataset writes are still bitwise identical to eager execution (each
   cell is computed exactly once, from inputs the schedule proves
   complete), but Inc global reductions accumulate per tile and merge in
   ascending tile id — a fixed reassociation of the eager sum, identical
   across pool sizes and repeated runs, yet not bitwise the eager total.
   Min/Max globals stay exact (order-free).  Kernels run on pool domains,
   so per-entry compilation, Read-global snapshots and template frames
   are captured sequentially up front; workers only copy templates and
   write datasets in rectangles the planner proved disjoint. *)
let run_segment_par ctx pool entries =
  let n = Array.length entries in
  let _, _, sched = wave_schedule ctx entries in
  let ntiles = Tiling_par.n_tiles sched in
  Am_obs.Counters.add Am_obs.Obs.chain_tiles ntiles;
  let prepped =
    Array.map
      (fun q ->
        blit_snapshots q;
        let compiled = compiled_of q in
        (Exec.make_frame compiled q.q_kernel, reduces_globals compiled))
      entries
  in
  (* Per-tile accumulator slots for reducing entries, indexed by tile id:
     each slot is written by exactly one tile and read only after the
     pool joins. *)
  let acc =
    Array.map
      (fun (_, reduces) -> if reduces then Array.make ntiles None else [||])
      prepped
  in
  let local () = (Array.make n None, Array.make n 0.0) in
  let tile (wframes, wsecs) (pt : Tiling_par.ptile) =
    Array.iter
      (fun (slab : Tiling_par.pslab) ->
        let k = slab.Tiling_par.ps_loop in
        let template, reduces = prepped.(k) in
        let frame =
          if reduces then begin
            let f = Exec.copy_frame template in
            acc.(k).(pt.Tiling_par.pt_id) <- Some f;
            f
          end
          else
            match wframes.(k) with
            | Some f -> f
            | None ->
              let f = Exec.copy_frame template in
              wframes.(k) <- Some f;
              f
        in
        let t0 = now () in
        Exec.run_range frame ~range:(wave_range ctx entries.(k).q_range slab);
        wsecs.(k) <- wsecs.(k) +. (now () -. t0))
      pt.Tiling_par.pt_slabs
  in
  let states = Tiling_par.run pool sched ~local ~tile in
  let secs = Array.make n 0.0 in
  List.iter
    (fun (_, wsecs) -> Array.iteri (fun k s -> secs.(k) <- secs.(k) +. s) wsecs)
    states;
  Array.iteri
    (fun k q ->
      let _, reduces = prepped.(k) in
      if reduces then Array.iter (Option.iter Exec.merge_frame) acc.(k);
      record_entry_profile ctx q ~seconds:secs.(k))
    entries

(* The sanitizer runs the same wavefront schedule sequentially (wave by
   wave, tiles in id order) through the guarded engine, adding a
   cross-tile claim tracker: within one wave, a rectangle one tile writes
   must not intersect another tile's writes or stencil-extended reads.
   The planner's [verify] already rejects such schedules; the tracker
   catches them again at execution time, so a bypassed or bogus plan
   surfaces as a sanitizer violation rather than a silent race. *)
let run_segment_check_wave ctx entries =
  let outer, inner, sched = wave_schedule ctx entries in
  Am_obs.Counters.add Am_obs.Obs.chain_tiles (Tiling_par.n_tiles sched);
  Am_obs.Counters.add Am_obs.Obs.tile_wavefronts (Tiling_par.n_waves sched);
  let oname, iname =
    let o, i = wave_axes ctx in
    (Types.axis_name o, Types.axis_name i)
  in
  let secs = Array.map (fun _ -> ref 0.0) entries in
  let overlap alo ahi blo bhi = min ahi bhi > max alo blo in
  Array.iteri
    (fun w wave ->
      (* dataset id -> (tile, olo, ohi, ilo, ihi, wrote) claims this wave *)
      let claims : (int, (int * int * int * int * int * bool) list) Hashtbl.t =
        Hashtbl.create 16
      in
      let claim d tile (olo, ohi, ilo, ihi) ~writing =
        let prev = Option.value ~default:[] (Hashtbl.find_opt claims d) in
        List.iter
          (fun (tile', olo', ohi', ilo', ihi', wrote') ->
            if
              tile' <> tile
              && (writing || wrote')
              && overlap olo ohi olo' ohi'
              && overlap ilo ihi ilo' ihi'
            then begin
              Am_obs.Counters.incr Am_obs.Obs.check_violations;
              Exec_check.violation
                "check: wave %d, dataset %d: tile %d %s %s [%d,%d) %s [%d,%d) while \
                 tile %d %s %s [%d,%d) %s [%d,%d) — cross-tile race inside one \
                 wavefront"
                w d tile
                (if writing then "writes" else "reads")
                oname olo ohi iname ilo ihi tile'
                (if wrote' then "writes" else "reads")
                oname olo' ohi' iname ilo' ihi'
            end)
          prev;
        Hashtbl.replace claims d ((tile, olo, ohi, ilo, ihi, writing) :: prev)
      in
      Array.iter
        (fun pt ->
          let tile = pt.Tiling_par.pt_id in
          Array.iter
            (fun (slab : Tiling_par.pslab) ->
              let { Tiling_par.ps_loop; ps_olo; ps_ohi; ps_ilo; ps_ihi } = slab in
              let q = entries.(ps_loop) in
              List.iter
                (fun d -> claim d tile (ps_olo, ps_ohi, ps_ilo, ps_ihi) ~writing:true)
                outer.(ps_loop).Tiling.li_writes;
              List.iter2
                (fun (d, ob, oa) (_, ib, ia) ->
                  claim d tile
                    (ps_olo - ob, ps_ohi + oa, ps_ilo - ib, ps_ihi + ia)
                    ~writing:false)
                outer.(ps_loop).Tiling.li_reads
                inner.(ps_loop).Tiling.li_reads;
              blit_snapshots q;
              let t0 = now () in
              run_check ctx q ~range:(wave_range ctx q.q_range slab);
              secs.(ps_loop) := !(secs.(ps_loop)) +. (now () -. t0))
            pt.Tiling_par.pt_slabs)
        wave)
    sched.Tiling_par.par_waves;
  Array.iteri (fun k q -> record_entry_profile ctx q ~seconds:!(secs.(k))) entries

(* Flush the recorded chain: split it at deferred data operations and
   non-tileable loops, run each maximal tileable segment slab-by-slab
   through the skewed schedule, and run everything else eagerly at its
   recorded position.  Loop order inside a tile is chain order, so the
   observable dataset state after a flush is identical to eager execution
   (bitwise on Seq). *)
let flush ctx =
  if ctx.chain_len > 0 then begin
    let items = List.rev ctx.chain_rev in
    ctx.chain_rev <- [];
    ctx.chain_len <- 0;
    Am_obs.Counters.incr Am_obs.Obs.chain_flushes;
    let flush_t0 = now () in
    Am_obs.Obs.span ~cat:Am_obs.Tracer.Loop "chain_flush" (fun () ->
        let saved = save_gbl_live items in
        let seg = ref [] in
        let run_segment () =
          match List.rev !seg with
          | [] -> ()
          | [ q ] ->
            seg := [];
            run_queued_eager ctx q
          | entries -> (
            seg := [];
            let entries = Array.of_list entries in
            match (ctx.exec, ctx.tile_pool) with
            | Seq, None -> run_segment_seq ctx entries
            | Seq, Some pool -> run_segment_par ctx pool entries
            | Check, None -> run_segment_check ctx entries
            | Check, Some _ -> run_segment_check_wave ctx entries
            | (Shared _ | Cuda _), _ -> assert false)
        in
        List.iter
          (function
            | Q_loop q when loop_tileable q -> seg := q :: !seg
            | Q_loop q ->
              run_segment ();
              run_queued_eager ctx q
            | Q_op (f, _name) ->
              run_segment ();
              f ())
          items;
        run_segment ();
        restore_gbl_live saved);
    Am_obs.Counters.observe Am_obs.Obs.chain_flush_seconds (now () -. flush_t0)
  end

let set_lazy ctx ?tile_size enabled =
  flush ctx;
  (match tile_size with
  | Some t when t > 0 -> ctx.tile_size <- t
  | Some _ | None -> ());
  ctx.lazy_mode <- enabled;
  (* [set_lazy] selects the sequential tiled walk; parallel tiling is an
     explicit opt-in through [set_tile_exec]. *)
  ctx.tile_pool <- None;
  if enabled && not ctx.obs_hooked then begin
    (* Trace/counter exports and Obs.report force a flush first, so queued
       loops are never dropped from (or double-counted in) an artifact. *)
    ctx.obs_hooked <- true;
    Am_obs.Obs.add_flush_hook (fun () -> flush ctx)
  end

type tile_exec =
  | Tiled of { tile : int }
  | Tiled_par of { pool : Am_taskpool.Pool.t; tile : int }

let set_tile_exec ctx mode =
  match mode with
  | Tiled { tile } -> set_lazy ctx ~tile_size:tile true
  | Tiled_par { pool; tile } ->
    set_lazy ctx ~tile_size:tile true;
    ctx.tile_pool <- Some pool

let tile_exec ctx =
  if not ctx.lazy_mode then None
  else
    match ctx.tile_pool with
    | Some pool -> Some (Tiled_par { pool; tile = ctx.tile_size })
    | None -> Some (Tiled { tile = ctx.tile_size })

let lazy_mode ctx = ctx.lazy_mode
let tile_size ctx = ctx.tile_size
let pending ctx = ctx.chain_len

(* A data operation at its program point: deferred as a chain barrier
   while loops are being recorded, run now otherwise. *)
let data_op ctx name f =
  if lazy_active ctx then begin
    enqueue ctx (Q_op (f, name));
    if ctx.chain_len >= max_chain then flush ctx
  end
  else f ()

let set_backend ctx backend exec =
  flush ctx;
  (match (exec, ctx.dist) with
  | (Shared _ | Cuda _ | Check), Some _ ->
    invalid_arg
      (facade ctx ^ ".set_backend: context is partitioned; ranks execute sequentially")
  | (Seq | Shared _ | Cuda _ | Check), _ -> ());
  ctx.backend <- backend;
  ctx.exec <- exec

let backend ctx = ctx.backend

let profile ctx =
  flush ctx;
  ctx.profile

let trace ctx = ctx.trace

(* ---- Declarations and data access --------------------------------------- *)

let decl_block ctx ~name = Types.decl_block ctx.env ~name ~rank:ctx.rank

let decl_dat ctx ~name ~block ~xsize ~ysize ~zsize ?halo ?dim () =
  Types.decl_dat ctx.env ~name ~block ~xsize ~ysize ~zsize ?halo ?dim ()

let blocks ctx = Types.blocks ctx.env
let dats ctx = Types.dats ctx.env

let fetch_interior ctx dat =
  flush ctx;
  match ctx.dist with
  | Some d -> Dist.fetch_interior d dat
  | None -> Types.fetch_interior dat

(* The global padded array of a dataset, pulled back from its owning ranks'
   windows, and the inverse scatter into every window. *)
let pull ctx dat = Option.iter (fun d -> Dist.pull d dat) ctx.dist
let push ctx dat = Option.iter (fun d -> Dist.push d dat) ctx.dist

(* Direct initialisation of every addressable point (ghosts included): the
   function receives logical (x, y, z) and the component index. Pushes to
   the distributed windows when partitioned. *)
let init ctx dat f =
  flush ctx;
  for z = Types.z_min dat to Types.z_max dat - 1 do
    for y = Types.y_min dat to Types.y_max dat - 1 do
      for x = Types.x_min dat to Types.x_max dat - 1 do
        for c = 0 to dat.Types.dim - 1 do
          Types.set dat ~x ~y ~z ~c (f x y z c)
        done
      done
    done
  done;
  push ctx dat

(* ---- Partitioning -------------------------------------------------------- *)

let dist_comm ctx = Option.map (fun d -> d.Dist.comm) ctx.dist

(* Route the distributed runtime's messages through the fault injector's
   reliable transport; a loop-counter crash trigger fires on any backend. *)
let set_fault_injector ctx f =
  ctx.fault <- Some f;
  match dist_comm ctx with
  | Some comm -> Am_simmpi.Comm.attach_fault comm f
  | None -> ()

let fault_injector ctx = ctx.fault

(* Decompose every dataset over [ranks] = (px, py, pz) ranks, splitting a
   [reference] index space of (rx, ry, rz) cells (see [Dist.build]). *)
let partition ctx ~ranks ~reference =
  flush ctx;
  if ctx.dist <> None then invalid_arg (facade ctx ^ ".partition: already partitioned");
  (match ctx.exec with
  | Seq -> ()
  | Shared _ | Cuda _ | Check ->
    invalid_arg (facade ctx ^ ".partition: switch the backend to Seq before partitioning"));
  ctx.dist <- Some (Dist.build ctx.env ~rank:ctx.rank ~ranks ~reference);
  match (ctx.fault, dist_comm ctx) with
  | Some f, Some comm -> Am_simmpi.Comm.attach_fault comm f
  | _ -> ()

let partitioned ctx what =
  match ctx.dist with
  | None -> invalid_arg (Printf.sprintf "%s.%s: partition first" (facade ctx) what)
  | Some d -> d

let set_rank_execution ctx exec =
  (partitioned ctx "set_rank_execution").Dist.rank_exec <- exec

(* [Eager] exchanges before every stencil read; only the 1D and 2D
   facades offer the policy. *)
let set_eager_halo ctx eager =
  (partitioned ctx "set_halo_policy").Dist.eager_halo <- eager

let set_overlap ctx overlap = (partitioned ctx "set_comm_mode").Dist.overlap <- overlap
let overlap ctx = match ctx.dist with Some d -> d.Dist.overlap | None -> false

let comm_stats ctx = Option.map Am_simmpi.Comm.stats (dist_comm ctx)

(* Inter-block halos copy between canonical arrays, before partitioning. *)
let unpartitioned ctx what =
  if ctx.dist <> None then
    invalid_arg
      (Printf.sprintf "%s.%s: inter-block halos unsupported on a partitioned context \
                       (declare and transfer them before partitioning)"
         (facade ctx) what)

(* Reflective ghost update (OPS's update_halo; see [Boundary]): on the
   padded array, deferred as a chain barrier while loops are being
   recorded, or on every rank's window. *)
let mirror_halo ctx ~depth ~sign_x ~sign_y ~sign_z ~center_x ~center_y ~center_z dat =
  match ctx.dist with
  | None ->
    data_op ctx "mirror_halo" (fun () ->
        Boundary.mirror ~depth ~sign_x ~sign_y ~sign_z ~center_x ~center_y ~center_z dat)
  | Some d ->
    Dist.mirror d dat ~depth ~sign_x ~sign_y ~sign_z ~center_x ~center_y ~center_z

(* ---- The parallel loop ----------------------------------------------------- *)

(* The loop pipeline every facade's [par_loop] shares: validate, describe,
   trace, fault counter, footprint, lazy enqueue or checkpoint, execute,
   profile. *)
let run_loop ctx ~name ~info ?handle block range args kernel =
  Types.validate_args ~block ~range args;
  let descr = Types.describe ~name ~block ~range ~info args in
  Trace.record ctx.trace descr;
  (* The injected rank crash counts parallel loops on the injector itself,
     so the trigger position survives a recovery restart's fresh context. *)
  (match ctx.fault with
  | Some f -> Am_simmpi.Fault.note_loop f
  | None -> ());
  let foot = footprint ctx descr args kernel in
  if lazy_active ctx then begin
    (* Record instead of run.  A non-Read global is a demanded result (the
       caller reads the reduction buffer on return), so the loop is queued —
       keeping it eligible as the chain's last tiled entry — and the chain
       flushes before par_loop returns. *)
    let snapshots =
      List.filter_map
        (function
          | Types.Arg_gbl { buf; access = Access.Read; _ } -> Some (buf, Array.copy buf)
          | Types.Arg_gbl _ | Types.Arg_dat _ | Types.Arg_idx _ -> None)
        args
    in
    let demands_result =
      List.exists
        (function
          | Types.Arg_gbl { access; _ } -> access <> Access.Read
          | Types.Arg_dat _ | Types.Arg_idx _ -> false)
        args
    in
    enqueue ctx
      (Q_loop
         {
           q_name = name;
           q_descr = descr;
           q_range = range;
           q_args = args;
           q_kernel = kernel;
           q_handle = handle;
           q_snapshots = snapshots;
           q_foot = foot;
         });
    Am_obs.Counters.incr Am_obs.Obs.chain_loops;
    if demands_result || ctx.chain_len >= max_chain then flush ctx
  end
  else begin
    let t0 = now () in
    let traced = Am_obs.Obs.tracing () in
    let gc0 = if traced then Some (Gc.quick_stat ()) else None in
    if traced then Am_obs.Obs.begin_span ~cat:Am_obs.Tracer.Loop name;
    let halo_seconds = ref 0.0 and overlap_seconds = ref 0.0 in
    let execute () =
      (* Halo tightening from sampled negatives is the explicit opt-in: a
         read the probes never triggered would otherwise silently consume
         stale ghost cells. *)
      let ext =
        if ctx.tighten then Option.map (fun fi -> fi.Probe.in_read_ext) foot else None
      in
      match ctx.dist with
      | Some d -> Dist.par_loop ?ext ~halo_seconds ~overlap_seconds d ~range ~args ~kernel
      | None -> (
        let compiled = Option.map (fun h -> resolve_compiled h args) handle in
        match ctx.exec with
        | Seq -> Exec.run_seq ?compiled ~range ~args ~kernel ()
        | Shared pool ->
          Exec.run_shared ?compiled pool ~axis:(Types.outer_axis ctx.rank) ~range ~args
            ~kernel
        | Cuda config -> Exec.run_cuda ?compiled config ~range ~args ~kernel
        | Check ->
          Exec_check.run ~light:(light_of foot) ~rank:ctx.rank ~name ~range ~args ~kernel
            ())
    in
    (match ctx.checkpoint with
    | None -> execute ()
    | Some session ->
      let gbl_out =
        List.filter_map
          (function
            | Types.Arg_gbl { buf; access; _ } when access <> Access.Read -> Some buf
            | Types.Arg_gbl _ | Types.Arg_dat _ | Types.Arg_idx _ -> None)
          args
      in
      Am_checkpoint.Runtime.step ~gbl_out session ~descr ~run:execute);
    if traced then Am_obs.Obs.end_span ();
    let seconds = now () -. t0 in
    (match gc0 with
    | Some g0 ->
      let g1 = Gc.quick_stat () in
      Profile.record_gc ctx.profile ~name
        ~minor:(g1.Gc.minor_collections - g0.Gc.minor_collections)
        ~major:(g1.Gc.major_collections - g0.Gc.major_collections)
        ~promoted_words:(g1.Gc.promoted_words -. g0.Gc.promoted_words)
    | None -> ());
    Profile.record ctx.profile ~name ~seconds ~bytes:(Descr.total_bytes descr)
      ~elements:(Types.range_size range);
    if ctx.dist <> None then
      Profile.record_halo ctx.profile ~name ~overlapped:!overlap_seconds
        ~seconds:!halo_seconds ()
  end

(* ---- Automatic checkpointing (paper Section VI) -------------------------- *)

(* Snapshots capture the full padded array of a dataset (ghost cells
   included) so recovery restores boundary state exactly.  On a partitioned
   context the padded array is assembled from the rank windows' owned
   values before the copy ([pull]), and scattered back into every window
   (ghost copies included, which are then exactly the owners' values — what
   an exchange would deliver) after a restore ([push]); the snapshot is
   therefore decomposition-independent. *)
let checkpoint_fns ctx =
  let find name =
    match List.find_opt (fun d -> d.Types.dat_name = name) (dats ctx) with
    | Some d -> d
    | None ->
      invalid_arg (Printf.sprintf "%s checkpoint: unknown dataset %s" (facade ctx) name)
  in
  {
    Am_checkpoint.Runtime.fetch =
      (fun name ->
        let d = find name in
        pull ctx d;
        Array.copy d.Types.data);
    restore =
      (fun name data ->
        let d = find name in
        if Array.length data <> Array.length d.Types.data then
          invalid_arg (facade ctx ^ " checkpoint: snapshot size mismatch");
        Array.blit data 0 d.Types.data 0 (Array.length data);
        push ctx d);
  }

(* Checkpointing and lazy chains compose by sequencing, not interleaving:
   every entry point below flushes queued loops first (a snapshot must see
   their effects, and a restore must never be followed by a stale queued
   re-run), and [lazy_active] keeps recording off while a session is
   live — the checkpoint runtime needs each loop's side effects at its
   program point to count steps and capture domains. *)
let enable_checkpointing ctx =
  flush ctx;
  if ctx.checkpoint = None then
    ctx.checkpoint <- Some (Am_checkpoint.Runtime.create ~fns:(checkpoint_fns ctx))

let request_checkpoint ctx =
  flush ctx;
  match ctx.checkpoint with
  | None ->
    invalid_arg (facade ctx ^ ".request_checkpoint: call enable_checkpointing first")
  | Some session -> Am_checkpoint.Runtime.request_checkpoint session

let checkpoint_session ctx = ctx.checkpoint

let checkpoint_to_file ctx ~path =
  flush ctx;
  match ctx.checkpoint with
  | None -> invalid_arg (facade ctx ^ ".checkpoint_to_file: checkpointing not enabled")
  | Some session -> Am_checkpoint.Runtime.save_to_file session ~path

let recover_from_file ctx ~path =
  flush ctx;
  ctx.checkpoint <-
    Some (Am_checkpoint.Runtime.recover_from_file ~path ~fns:(checkpoint_fns ctx))

(* The context behind the [Ops1], [Ops] and [Ops3] facades, and what their
   [par_loop] adds to the shared loop pipeline ([Am_loop.Loop]): argument
   validation, the descriptor, the call-site shape and probe view, and
   execution on the rank-3 core of [Types] and [Exec].  A context knows its
   block rank, which picks the axis the Shared backend splits (x in 1D, y
   in 2D, z in 3D); everything else is rank-blind.

   The facades keep their own public types (ranges, stencils, backend
   constructors) and translate them here: a facade's [backend] value is
   stored as given, next to the [exec] engine it selects. *)

module Access = Am_core.Access
module Acc = Am_core.Acc
module Loop = Am_loop.Loop
module Probe = Am_core.Probe

(* The engine a facade backend selects. *)
type exec = Seq | Shared of Am_taskpool.Pool.t | Cuda of Exec.cuda_config3 | Check

(* A Cuda_sim tile size below 1 would tile nothing or divide by zero. *)
let check_tile ~fn ~field size =
  if size < 1 then
    invalid_arg (Printf.sprintf "%s: Cuda_sim %s must be at least 1, got %d" fn field size)

(* Per-call-site loop handle: caches the compiled gather/scatter executor
   (offset tables and specialised closures) so repeated invocations skip
   argument compilation, and on a partitioned context one executor per
   rank, over the rank's windows.  Each executor keeps the frame its Seq
   (or [Rank_seq]) calls run.  Freshness is a handful of pointer compares
   per call; a changed dataset array, stencil or access recompiles.  A
   call without a handle runs on the handle of its entry in the context's
   call-site table.  The executors ignore the loop name, so a handle two
   loops share serves both; the table keeps their footprints apart. *)
type handle = {
  mutable h_exec : Exec.executor option;
  mutable h_ranks : Exec.executor array; (* per rank, over [||] until compiled *)
}

let make_handle () = { h_exec = None; h_ranks = [||] }

type 'backend ctx = {
  rank : int;
  env : Types.env;
  mutable backend : 'backend;
  mutable exec : exec;
  loop : (Types.arg, handle) Loop.t;
  mutable dist : Dist.t option; (* the decomposition, once partitioned *)
}

let create ~rank ~backend ~exec =
  {
    rank;
    env = Types.make_env ();
    backend;
    exec;
    loop = Loop.create ~facade:(Types.facade rank);
    dist = None;
  }

let facade ctx = Types.facade ctx.rank

(* ---- Kernel footprint inference ----------------------------------------- *)

(* Observed Chebyshev read extent per argument, computed against the real
   stencil offsets (which [Descr] does not keep): the widest offset whose
   point was observed read on some probe, for the halo-schedule report.
   [-1] marks no information — not a stencil read, or a footprint the
   report must not act on. *)
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

let resolve_executor handle args =
  match handle.h_exec with
  | Some e when Exec.compiled_matches ~resolvers:Exec.global_resolvers e.Exec.compiled args ->
    Am_obs.Counters.incr Am_obs.Obs.exec_hits;
    e
  | Some _ | None ->
    Am_obs.Counters.incr Am_obs.Obs.exec_misses;
    let e =
      Exec.executor
        (Am_obs.Obs.span ~cat:Am_obs.Tracer.Plan "compile" (fun () -> Exec.compile args))
    in
    handle.h_exec <- Some e;
    e

let resolve_compiled handle args = (resolve_executor handle args).Exec.compiled

let set_backend ctx backend exec =
  (match (exec, ctx.dist) with
  | (Shared _ | Cuda _ | Check), Some _ ->
    invalid_arg
      (facade ctx ^ ".set_backend: context is partitioned; ranks execute sequentially")
  | (Seq | Shared _ | Cuda _ | Check), _ -> ());
  ctx.backend <- backend;
  ctx.exec <- exec

let backend ctx = ctx.backend

(* ---- Declarations and data access --------------------------------------- *)

let decl_block ctx ~name = Types.decl_block ctx.env ~name ~rank:ctx.rank

let decl_dat ctx ~name ~block ~xsize ~ysize ~zsize ?halo ?dim () =
  Types.decl_dat ctx.env ~name ~block ~xsize ~ysize ~zsize ?halo ?dim ()

let blocks ctx = Types.blocks ctx.env
let dats ctx = Types.dats ctx.env

let fetch_interior ctx dat =
  match ctx.dist with
  | Some d -> Dist.fetch_interior d dat
  | None -> Types.fetch_interior dat

(* A copy of the padded array, ghost cells included, pulled from the
   owning ranks when partitioned. *)
let fetch_padded ctx dat =
  match ctx.dist with
  | Some d -> Dist.fetch_padded d dat
  | None -> Array.copy dat.Types.data

(* The global padded array of a dataset, pulled back from its owning ranks'
   windows, and the inverse scatter into every window. *)
let pull ctx dat = Option.iter (fun d -> Dist.pull d dat) ctx.dist
let push ctx dat = Option.iter (fun d -> Dist.push d dat) ctx.dist

(* Direct initialisation of every addressable point (ghosts included): the
   function receives logical (x, y, z) and the component index. Pushes to
   the distributed windows when partitioned. *)
let init ctx dat f =
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

(* Decompose every dataset over [ranks] = (px, py, pz) ranks, splitting a
   [reference] index space of (rx, ry, rz) cells (see [Dist.build]). *)
let partition ctx ~ranks ~reference =
  if ctx.dist <> None then invalid_arg (facade ctx ^ ".partition: already partitioned");
  (match ctx.exec with
  | Seq -> ()
  | Shared _ | Cuda _ | Check ->
    invalid_arg (facade ctx ^ ".partition: switch the backend to Seq before partitioning"));
  let d = Dist.build ctx.env ~rank:ctx.rank ~ranks ~reference in
  Loop.partitioned ctx.loop d.Dist.comm;
  ctx.dist <- Some d

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

let comm_stats ctx = Option.map (fun d -> Am_simmpi.Comm.stats d.Dist.comm) ctx.dist

(* Inter-block halos copy between canonical arrays, before partitioning. *)
let unpartitioned ctx what =
  if ctx.dist <> None then
    invalid_arg
      (Printf.sprintf "%s.%s: inter-block halos unsupported on a partitioned context \
                       (declare and transfer them before partitioning)"
         (facade ctx) what)

(* Reflective ghost update (OPS's update_halo; see [Boundary]): on the
   padded array, or on every rank's window. *)
let mirror_halo ctx ~depth ~sign_x ~sign_y ~sign_z ~center_x ~center_y ~center_z dat =
  match ctx.dist with
  | None ->
    Boundary.mirror ~depth ~sign_x ~sign_y ~sign_z ~center_x ~center_y ~center_z dat
  | Some d ->
    Dist.mirror d dat ~depth ~sign_x ~sign_y ~sign_z ~center_x ~center_y ~center_z

(* ---- The parallel loop ----------------------------------------------------- *)

let execute ctx ~name handle range args kernel =
  match ctx.dist with
  | Some d ->
    if Array.length handle.h_ranks <> Dist.n_ranks d then
      handle.h_ranks <- Array.init (Dist.n_ranks d) (fun _ -> Exec.executor [||]);
    Dist.par_loop ~halo_seconds:ctx.loop.Loop.halo_seconds d ~execs:handle.h_ranks ~range
      ~args ~kernel
  | None -> (
    match ctx.exec with
    | Seq -> Exec.run_seq ~exec:(resolve_executor handle args) ~range ~args ~kernel
    | Shared pool ->
      Exec.run_shared ~compiled:(resolve_compiled handle args) pool
        ~axis:(Types.outer_axis ctx.rank) ~range ~args ~kernel
    | Cuda config ->
      Exec.run_cuda ~compiled:(resolve_compiled handle args) config ~range ~args ~kernel
    | Check ->
      Exec.run_check ~compiled:(resolve_compiled handle args) ~rank:ctx.rank ~name ~range
        ~args ~kernel)

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

(* The shared loop pipeline and its checkpoint, fault and footprint entry
   points (see [Am_loop.Loop]). *)
include Loop.Make (struct
  type nonrec 'backend ctx = 'backend ctx
  type nonrec handle = handle
  type space = Types.range
  type arg = Types.arg
  type kernel = Exec.kernel

  let state ctx = ctx.loop
  let make_handle = make_handle
  let same_shape = Types.same_shape

  let probe descr args kernel =
    let fp =
      Probe.infer ~idx:(idx_flags args) ~loop:descr ~kernel:(Exec.staged_view args kernel) ()
    in
    { Probe.in_loop = descr; in_foot = fp; in_read_ext = observed_exts args fp }

  let gbl_out args =
    List.filter_map
      (function
        | Types.Arg_gbl { buf; access; _ } when access <> Access.Read -> Some buf
        | Types.Arg_gbl _ | Types.Arg_dat _ | Types.Arg_idx _ -> None)
      args

  let snapshot_fns = checkpoint_fns
  let execute = execute
end)

(* ---- Declared signatures ------------------------------------------------ *)

(* A generated kernel's range walker has its signature's stencils, dims
   and layout strides built in, so every call must pass exactly those
   facts.  [check_signature] holds the call to the walker whose stencils
   equal its arguments' (the last walker when none does) and raises
   [Invalid_argument] naming the loop, the kernel, the argument and the
   fact that differs: the argument count, a dataset or a global, dim or
   length, access mode, stencil, unit stride, and, for arguments with one
   layout label, datasets of one shape (sizes, halo and dim).  It
   allocates nothing unless it raises. *)

let sig_error ~rank ~name (w : Acc.range_walker) k fact =
  invalid_arg
    (Printf.sprintf "%s.par_loop_acc %s: kernel %s, argument %d: %s" (Types.facade rank) name
       w.Acc.kname k fact)

let stencil_string ~rank points =
  "["
  ^ String.concat "; " (List.map (fun (x, y, z) -> Types.point_to_string ~rank x y z) points)
  ^ "]"

let declared_stencil ~rank (k : Acc.kernel) i =
  String.concat " or "
    (List.filter_map
       (fun (w : Acc.range_walker) ->
         match w.Acc.signature.(i) with
         | Acc.Grid_dat { stencil; _ } -> Some (stencil_string ~rank (Array.to_list stencil))
         | Acc.Grid_gbl _ -> None)
       (Array.to_list k.Acc.walkers))

let call_stencil ~rank s =
  stencil_string ~rank
    (List.init (Types.npoints s) (fun p -> (Types.ox s p, Types.oy s p, Types.oz s p)))

let same_shape (a : Types.dat) (b : Types.dat) =
  a.xsize = b.xsize && a.ysize = b.ysize && a.zsize = b.zsize && a.halo = b.halo
  && a.dim = b.dim

let shape (d : Types.dat) =
  Printf.sprintf "%s (%dx%dx%d, halo %d, dim %d)" d.dat_name d.xsize d.ysize d.zsize d.halo d.dim

let check_arg ~rank ~name k (w : Acc.range_walker) args i arg =
  match (w.Acc.signature.(i), arg) with
  | Acc.Grid_gbl { len; access }, Types.Arg_gbl { name = g; buf; access = a } ->
    if a <> access then
      sig_error ~rank ~name w i
        (Printf.sprintf "declared access %s, the call passes global %s with access %s"
           (Access.to_string access) g (Access.to_string a))
    else if Array.length buf <> len then
      sig_error ~rank ~name w i
        (Printf.sprintf "declared a global of length %d, the call passes global %s of length %d"
           len g (Array.length buf))
  | Acc.Grid_gbl _, Types.Arg_dat { dat; _ } ->
    sig_error ~rank ~name w i
      (Printf.sprintf "declared a global, the call passes dat %s" dat.dat_name)
  | Acc.Grid_gbl _, Types.Arg_idx _ ->
    sig_error ~rank ~name w i "declared a global, the call passes the iteration index (arg_idx)"
  | Acc.Grid_dat { label; _ }, Types.Arg_gbl { name = g; _ } ->
    sig_error ~rank ~name w i
      (Printf.sprintf "declared layout label %s, the call passes global %s" label g)
  | Acc.Grid_dat { label; _ }, Types.Arg_idx _ ->
    sig_error ~rank ~name w i
      (Printf.sprintf "declared layout label %s, the call passes the iteration index (arg_idx)"
         label)
  | ( Acc.Grid_dat { label; stencil; dim; access },
      Types.Arg_dat { dat; stencil = s; access = a; stride } ) -> (
    if dat.dim <> dim then
      sig_error ~rank ~name w i
        (Printf.sprintf "declared dim %d, the call passes dat %s of dim %d" dim dat.dat_name
           dat.dim);
    if a <> access then
      sig_error ~rank ~name w i
        (Printf.sprintf "declared access %s, the call passes dat %s with access %s"
           (Access.to_string access) dat.dat_name (Access.to_string a));
    if not (Types.is_unit_stride stride) then
      sig_error ~rank ~name w i
        (Printf.sprintf
           "declared unit stride, the call passes dat %s through a strided (restrict/prolong) \
            stencil"
           dat.dat_name);
    if not (Exec.stencil_is stencil s) then
      sig_error ~rank ~name w i
        (Printf.sprintf "declared stencil %s, the call passes stencil %s on dat %s"
           (declared_stencil ~rank k i) (call_stencil ~rank s) dat.dat_name);
    let j = Exec.first_label w.Acc.signature label 0 in
    match List.nth args j with
    | Types.Arg_dat { dat = d; _ } when not (same_shape d dat) ->
      sig_error ~rank ~name w i
        (Printf.sprintf "layout label %s names dat %s at argument %d and dat %s here" label
           (shape d) j (shape dat))
    | Types.Arg_dat _ | Types.Arg_gbl _ | Types.Arg_idx _ -> ())

let rec check_from ~rank ~name k w args i = function
  | [] -> ()
  | arg :: rest ->
    check_arg ~rank ~name k w args i arg;
    check_from ~rank ~name k w args (i + 1) rest

(* Whether the datasets of [args] have the stencils [sg] declares. *)
let rec stencils_from (sg : Acc.grid_sig array) i = function
  | [] -> true
  | arg :: rest ->
    i < Array.length sg
    && (match (sg.(i), arg) with
       | Acc.Grid_dat { stencil; _ }, Types.Arg_dat { stencil = s; _ } -> Exec.stencil_is stencil s
       | _ -> true)
    && stencils_from sg (i + 1) rest

(* The walker the call is held to: the first whose stencils equal the
   arguments', else the last. *)
let rec pick_walker (k : Acc.kernel) args w =
  if w = Array.length k.Acc.walkers - 1 || stencils_from k.Acc.walkers.(w).Acc.signature 0 args
  then k.Acc.walkers.(w)
  else pick_walker k args (w + 1)

let check_signature ~rank ~name (k : Acc.kernel) args =
  let w = pick_walker k args 0 in
  let n = List.length args and declared = Array.length w.Acc.signature in
  if n <> declared then
    invalid_arg
      (Printf.sprintf "%s.par_loop_acc %s: kernel %s declares %d arguments, the call passes %d"
         (Types.facade rank) name w.Acc.kname declared n);
  check_from ~rank ~name k w args 0 args

(* Validate (a generated kernel's arguments against its declared
   signatures too) and describe the call; the shared pipeline does the
   rest. *)
let run_loop ctx ~name ~info ?handle block range args kernel =
  Types.validate_args ~block ~range args;
  (match kernel with
  | Exec.Accessor k when Array.length k.Acc.walkers > 0 ->
    check_signature ~rank:ctx.rank ~name k args
  | Exec.Accessor _ | Exec.Staged _ -> ());
  run ctx ~name ~descr:(Types.describe ~name ~block ~range ~info args) handle range args
    kernel

(* Public facade of the unstructured-mesh active library.

   Usage mirrors the original OP2 API:

   {[
     let ctx = Op2.create () in
     let cells = Op2.decl_set ctx ~name:"cells" ~size:n_cells in
     let edges = Op2.decl_set ctx ~name:"edges" ~size:n_edges in
     let edge_cells = Op2.decl_map ctx ~name:"edge_cells" ~from_set:edges
                        ~to_set:cells ~arity:2 ~values in
     let q = Op2.decl_dat ctx ~name:"q" ~set:cells ~dim:4 ~data in
     ...
     Op2.par_loop_acc ctx ~name:"res_calc" edges
       [ Op2.arg_dat_indirect q edge_cells 0 Read;
         Op2.arg_dat_indirect q edge_cells 1 Read;
         Op2.arg_dat_indirect res edge_cells 0 Inc;
         Op2.arg_dat_indirect res edge_cells 1 Inc ]
       res_calc
   ]}

   with [res_calc] an accessor kernel value, a [let%elem_kernel] or a plain
   function through [Acc.lift].

   The backend (sequential, shared-memory, GPU simulator, distributed) is a
   property of the context and can be switched between loops; applications
   never change. *)

module Access = Am_core.Access
module Descr = Am_core.Descr
module Loop = Am_loop.Loop
module Probe = Am_core.Probe
module Profile = Am_core.Profile
module Trace = Am_core.Trace

type set = Types.set
type map_t = Types.map_t
type dat = Types.dat
type arg = Types.arg
type layout = Types.layout = Aos | Soa

module Acc = struct
  type t = Am_core.Acc.t = { data : float array; mutable base : int; off : int array }

  type via = Am_core.Acc.via = { map : string; arity : int; slot : int }

  type arg_sig = Am_core.Acc.arg_sig =
    | Dat of { label : string; dim : int; access : Access.t; via : via option }
    | Gbl of { len : int; access : Access.t }

  type addr = Am_core.Acc.addr = { adata : float array; amap : int array }
  type walk = Am_core.Acc.walk = { addrs : addr array; bufs : float array array }

  type walker = Am_core.Acc.walker = {
    kname : string;
    signature : arg_sig array;
    elems : walk -> int -> int -> unit;
  }

  type kernel = Am_core.Acc.elem_kernel = { elem : t array -> unit; walker : walker option }

  let of_array = Am_core.Acc.of_array
  let staged = Am_core.Acc.staged
  let lift = Am_core.Acc.lift_elem
end

type backend =
  | Seq
  | Vec of Exec_vec.config
  | Shared of { pool : Am_taskpool.Pool.t; block_size : int }
  | Cuda_sim of Exec_cuda.config
  | Check (* sanitizer: seq semantics + access-descriptor guards *)

type ctx = {
  env : Types.env;
  mutable backend : backend;
  plan_cache : Plan.cache;
  loop : (Types.arg, Plan.handle) Loop.t;
  mutable dist : Dist.t option;
}

let create ?(backend = Seq) () =
  {
    env = Types.make_env ();
    backend;
    plan_cache = Plan.make_cache ();
    loop = Loop.create ~facade:"Op2";
    dist = None;
  }

let set_backend ctx backend =
  (match (backend, ctx.dist) with
  | (Shared _ | Cuda_sim _ | Vec _ | Check), Some _ ->
    invalid_arg
      "Op2.set_backend: the distributed context executes ranks sequentially; \
       shared/CUDA/vector/check backends apply to non-partitioned contexts"
  | (Seq | Shared _ | Cuda_sim _ | Vec _ | Check), _ -> ());
  ctx.backend <- backend

let backend ctx = ctx.backend

(* ---- Declarations ---------------------------------------------------- *)

let decl_set ctx ~name ~size = Types.decl_set ctx.env ~name ~size

let decl_map ctx ~name ~from_set ~to_set ~arity ~values =
  Types.decl_map ctx.env ~name ~from_set ~to_set ~arity ~values

let decl_dat ctx ~name ~set ~dim ~data = Types.decl_dat ctx.env ~name ~set ~dim ~data

let decl_dat_zero ctx ~name ~set ~dim =
  Types.decl_dat_const ctx.env ~name ~set ~dim ~value:0.0

(* op_decl_const: register a global constant (dimension = array length).
   Kernels read constants directly (OCaml closures make the broadcast
   free); the declaration exists so generated code can emit the constant
   per target — CUDA constant memory, C globals — and so diagnostics list
   them. *)
let decl_const ctx ~name values = Types.decl_global_const ctx.env ~name values
let consts ctx = Types.consts ctx.env

let sets ctx = Types.sets ctx.env
let maps ctx = Types.maps ctx.env
let dats ctx = Types.dats ctx.env

(* ---- Argument constructors ------------------------------------------- *)

(* Access-mode legality is enforced here, at declaration, so an illegal
   descriptor fails with the dataset name in hand rather than surfacing as
   an [invalid_arg] deep inside a backend's gather specialiser. *)
let require_valid_on_dat ~ctor dat access =
  if not (Access.valid_on_dat access) then
    invalid_arg
      (Printf.sprintf
         "Op2.%s: access %s is not valid on dataset %s (datasets accept \
          Read/Write/Inc/Rw; Min/Max are global reductions — use arg_gbl)"
         ctor (Access.to_string access) dat.Types.dat_name)

let arg_dat dat access : arg =
  require_valid_on_dat ~ctor:"arg_dat" dat access;
  Types.Arg_dat { dat; map = None; access }

let arg_dat_indirect dat map_t idx access : arg =
  require_valid_on_dat ~ctor:"arg_dat_indirect" dat access;
  Types.Arg_dat { dat; map = Some (map_t, idx); access }

let arg_gbl ~name buf access : arg =
  if not (Access.valid_on_gbl access) then
    invalid_arg
      (Printf.sprintf
         "Op2.arg_gbl: access %s is not valid on global %s (globals accept \
          Read/Inc/Min/Max; Write/Rw have no race-free parallel meaning)"
         (Access.to_string access) name);
  Types.Arg_gbl { name; buf; access }

(* ---- Data access ------------------------------------------------------ *)

(* Fetch a dataset in global element order and AoS layout regardless of the
   backend's internal representation. *)
let fetch ctx dat =
  match ctx.dist with
  | Some d -> Dist.fetch d dat
  | None ->
    if dat.Types.layout = Types.Aos then Array.copy dat.Types.data
    else
      Types.convert_array ~from_layout:dat.Types.layout ~to_layout:Types.Aos
        ~n:(Types.dat_n_elems dat) ~dim:dat.Types.dim dat.Types.data

(* Overwrite a dataset from a global-order AoS array. *)
let update ctx dat data =
  if Array.length data <> dat.Types.dat_set.Types.set_size * dat.Types.dim then
    invalid_arg "Op2.update: bad data length";
  (match ctx.dist with
  | Some d -> Dist.push d dat data
  | None ->
    dat.Types.data <-
      Types.convert_array ~from_layout:Types.Aos ~to_layout:dat.Types.layout
        ~n:(Types.dat_n_elems dat) ~dim:dat.Types.dim data)

let convert_layout ctx dat layout =
  if ctx.dist <> None then
    invalid_arg "Op2.convert_layout: not available on a partitioned context";
  if dat.Types.layout <> layout then begin
    dat.Types.data <-
      Types.convert_array ~from_layout:dat.Types.layout ~to_layout:layout
        ~n:(Types.dat_n_elems dat) ~dim:dat.Types.dim dat.Types.data;
    dat.Types.layout <- layout
  end

(* ---- Renumbering (mesh reordering optimisation) ----------------------- *)

(* Reverse Cuthill-McKee on the dual graph of [through]'s target set, with
   orderings induced on every other set via the declared maps — the
   automatic mesh renumbering the paper credits with a large share of
   Fig 3's single-node gain. Returns the bandwidth before/after for
   reporting. *)
(* Core renumbering machinery: given a seed permutation of one set, induce
   orderings on every other set through the declared maps and apply all of
   them to datasets and maps. *)
let apply_seed_permutation ctx ~seed_set ~seed_perm =
  if ctx.dist <> None then
    invalid_arg "Op2.renumber: renumber before partitioning";
  let open Types in
  if not (Am_mesh.Reorder.is_permutation seed_perm)
     || Array.length seed_perm <> seed_set.set_size
  then invalid_arg "Op2.renumber: seed is not a permutation of the set";
  let perms : (int, int array) Hashtbl.t = Hashtbl.create 8 in
  Hashtbl.add perms seed_set.set_id seed_perm;
  (* Induce orderings through maps until no progress. *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun m ->
        let from_known = Hashtbl.mem perms m.from_set.set_id in
        let to_known = Hashtbl.mem perms m.to_set.set_id in
        if to_known && not from_known then begin
          let perm_to = Hashtbl.find perms m.to_set.set_id in
          let renumbered = Am_mesh.Reorder.renumber_targets ~perm:perm_to m.values in
          Hashtbl.add perms m.from_set.set_id
            (Am_mesh.Reorder.induced_order ~n_sources:m.from_set.set_size
               ~arity:m.arity renumbered);
          changed := true
        end
        else if from_known && not to_known then begin
          let perm_from = Hashtbl.find perms m.from_set.set_id in
          (* Order targets by the minimum renumbered source touching them. *)
          let key = Array.make m.to_set.set_size max_int in
          for s = 0 to m.from_set.set_size - 1 do
            for k = 0 to m.arity - 1 do
              let t = m.values.((s * m.arity) + k) in
              if perm_from.(s) < key.(t) then key.(t) <- perm_from.(s)
            done
          done;
          let order = Array.init m.to_set.set_size Fun.id in
          Array.sort (fun a b -> compare (key.(a), a) (key.(b), b)) order;
          let perm = Array.make m.to_set.set_size 0 in
          Array.iteri (fun new_i old_i -> perm.(old_i) <- new_i) order;
          Hashtbl.add perms m.to_set.set_id perm;
          changed := true
        end)
      (maps ctx.env)
  done;
  let perm_of set =
    match Hashtbl.find_opt perms set.set_id with
    | Some p -> p
    | None -> Am_mesh.Reorder.identity set.set_size
  in
  (* Apply: dat data, map sources, map targets. *)
  List.iter
    (fun d ->
      if d.layout <> Aos then invalid_arg "Op2.renumber: convert datasets to AoS first";
      d.data <-
        Am_mesh.Reorder.permute_data ~perm:(perm_of d.dat_set) ~dim:d.dim d.data)
    (dats ctx.env);
  List.iter
    (fun m ->
      let v = Am_mesh.Reorder.renumber_targets ~perm:(perm_of m.to_set) m.values in
      m.values <-
        Am_mesh.Reorder.permute_sources ~perm:(perm_of m.from_set) ~dim:m.arity v)
    (maps ctx.env);
  (* Plans and compiled executors depend on map contents: drop them (live
     loop handles notice via the cache generation). *)
  Plan.invalidate ctx.plan_cache

(* Reverse Cuthill-McKee on the dual graph of [through]'s target set (the
   default OP2 renumbering); returns mean dual-graph index distance
   (before, after). *)
let renumber ctx ~through =
  let open Types in
  let dual () =
    Am_mesh.Csr.of_map_rows ~n_vertices:through.to_set.set_size
      ~n_rows:through.from_set.set_size ~arity:through.arity through.values
  in
  let g = dual () in
  let before = Am_mesh.Csr.average_bandwidth g in
  apply_seed_permutation ctx ~seed_set:through.to_set
    ~seed_perm:(Am_mesh.Reorder.rcm g);
  (before, Am_mesh.Csr.average_bandwidth (dual ()))

(* Renumber with a caller-supplied ordering of one set (e.g. a Hilbert-curve
   permutation from element coordinates); orderings of the other sets are
   induced through the maps as for RCM. *)
let renumber_with ctx ~set ~perm = apply_seed_permutation ctx ~seed_set:set ~seed_perm:perm

(* ---- Partitioning ------------------------------------------------------ *)

type partition_strategy = Dist.strategy =
  | Block_on of set
  | Rcb_on of dat
  | Kway_through of map_t

let partition ctx ~n_ranks ~strategy =
  if ctx.dist <> None then invalid_arg "Op2.partition: context already partitioned";
  (match ctx.backend with
  | Seq -> ()
  | Shared _ | Cuda_sim _ | Vec _ | Check ->
    invalid_arg "Op2.partition: switch the backend to Seq before partitioning");
  let d = Dist.build ctx.env ~n_ranks ~strategy in
  Loop.partitioned ctx.loop d.Dist.comm;
  ctx.dist <- Some d

let dist ctx = ctx.dist

(* Intra-rank execution of the distributed backend: the hybrid MPI+OpenMP
   and MPI+vectorised modes of the paper. *)
type rank_execution = Dist.rank_exec =
  | Rank_seq
  | Rank_shared of { pool : Am_taskpool.Pool.t; block_size : int }
  | Rank_vec of Exec_vec.config

let set_rank_execution ctx exec =
  match ctx.dist with
  | None -> invalid_arg "Op2.set_rank_execution: partition first"
  | Some d -> d.Dist.rank_exec <- exec

(* Halo-exchange policy: On_demand is the paper's access-descriptor-driven
   scheme (exchange only when a written dat's halo is stale); Eager
   exchanges before every indirect read, the behaviour of a runtime
   without dirty-bit tracking. Identical results; different traffic. *)
type halo_policy = On_demand | Eager

let set_halo_policy ctx policy =
  match ctx.dist with
  | None -> invalid_arg "Op2.set_halo_policy: partition first"
  | Some d -> d.Dist.eager_halo <- (policy = Eager)

(* Communication mode: [Blocking] completes every halo exchange before the
   loop body; [Overlap] posts the exchange, runs the core elements (those
   reaching only owned slots), waits, then runs the boundary elements —
   the latency-hiding execution of the paper's MPI design.  Results are
   bitwise-identical between the two modes under sequential rank
   execution: the element order is core-then-boundary in both. *)
type comm_mode = Blocking | Overlap

let set_comm_mode ctx mode =
  match ctx.dist with
  | None -> invalid_arg "Op2.set_comm_mode: partition first"
  | Some d -> d.Dist.overlap <- (mode = Overlap)

let comm_mode ctx =
  match ctx.dist with
  | None -> Blocking
  | Some d -> if d.Dist.overlap then Overlap else Blocking

let comm_stats ctx =
  match ctx.dist with
  | None -> None
  | Some d -> Some (Am_simmpi.Comm.stats d.Dist.comm)

(* ---- The parallel loop ------------------------------------------------- *)

(* A per-call-site loop handle (see [Plan]): resolves the execution plan and
   the compiled executor without rebuilding the signature string per
   invocation.  A call without one runs on the handle of its entry in the
   context's call-site table.  Both kernel forms share the executor. *)
type handle = Plan.handle

let make_handle = Plan.make_handle

(* Per-argument "declared indirectly-read but observed wholly unread" flags
   for the distributed backend — only offered on clean footprints. *)
let unread_of args = function
  | Some (fi : Probe.info) when Probe.clean fi.Probe.in_foot ->
    let fp = fi.Probe.in_foot in
    Some
      (Array.of_list
         (List.mapi
            (fun i arg ->
              match arg with
              | Types.Arg_dat { map = Some _; access; _ }
                when Access.reads access && i < Array.length fp.Probe.fp_args ->
                not (Array.exists Fun.id fp.Probe.fp_args.(i).Probe.af_read)
              | Types.Arg_dat _ | Types.Arg_gbl _ -> false)
            args))
  | Some _ | None -> None

(* The plan over [block_size]-element blocks and the executor cached
   beside it, through the call's handle. *)
let planned ctx handle ~name ~iter_set ~block_size args =
  let entry, compiled = Plan.resolve ctx.plan_cache handle ~name ~iter_set ~block_size args in
  (Lazy.force entry.Plan.entry_plan, compiled)

let execute_loop ctx ~name ~foot handle iter_set args kernel =
  match ctx.dist with
  | Some d ->
    (* Rank-local plans and executors have their own cache; handles do not
       apply.  Dropping exchanges a kernel was never observed to need is the
       explicit opt-in: a read the probes never triggered must not leave a
       rank consuming stale ghosts. *)
    let unread = if ctx.loop.Loop.tighten then unread_of args foot else None in
    Dist.par_loop ?unread ~halo_seconds:ctx.loop.Loop.halo_seconds
      ~overlap_seconds:ctx.loop.Loop.overlap_seconds d ~name ~iter_set ~args ~kernel
  | None -> (
    let set_size = iter_set.Types.set_size in
    match ctx.backend with
    | Seq ->
      (* No plan needed: the entry's lazy colouring is never forced. *)
      let _, compiled = Plan.resolve ctx.plan_cache handle ~name ~iter_set ~block_size:0 args in
      Exec_seq.run ~compiled ~set_size ~args ~kernel
    | Vec config ->
      (* The vector plan only needs element colours; block size is moot. *)
      let plan, compiled = planned ctx handle ~name ~iter_set ~block_size:256 args in
      Exec_vec.run ~compiled config plan ~set_size ~args ~kernel
    | Shared { pool; block_size } ->
      let plan, compiled = planned ctx handle ~name ~iter_set ~block_size args in
      Exec_shared.run ~compiled pool plan ~set_size ~args ~kernel
    | Check ->
      (* Sanitizer: prove the colouring the parallel backends would use is
         race-free, then execute under access guards.  The plan validation
         only applies to loops with indirect writes (others never force a
         colouring). *)
      let indirect_write = function
        | Types.Arg_dat { map = Some _; access; _ } -> Access.writes access
        | Types.Arg_dat _ | Types.Arg_gbl _ -> false
      in
      if List.exists indirect_write args then begin
        let plan =
          Plan.find_or_build ctx.plan_cache ~name ~iter_set ~block_size:256 args
        in
        match Plan.validate ~set_size args plan with
        | [] -> ()
        | v :: _ as vs ->
          Am_obs.Counters.add Am_obs.Obs.analysis_plan_violations (List.length vs);
          raise (Exec_check.Violation (Plan.violation_to_string ~name v))
      end;
      Exec_check.run ~light:(Loop.light foot) ~name ~set_size ~args ~kernel ()
    | Cuda_sim config ->
      (* The SoA strategy replaces dataset arrays on first touch; convert
         before resolving so the cached executor is compiled against the
         final arrays. *)
      if config.Exec_cuda.strategy = Exec_cuda.Global_soa then Exec_cuda.ensure_soa args;
      let plan, compiled =
        planned ctx handle ~name ~iter_set ~block_size:config.Exec_cuda.block_size args
      in
      Exec_cuda.run ~compiled config plan ~set_size ~args ~kernel)

(* Snapshot accessors over the context's own dataset registry: the "all data
   is handed to the library" property is what makes checkpointing fully
   automatic. *)
let checkpoint_fns ctx =
  let find name =
    match List.find_opt (fun d -> d.Types.dat_name = name) (dats ctx) with
    | Some d -> d
    | None -> invalid_arg (Printf.sprintf "Op2 checkpoint: unknown dataset %s" name)
  in
  {
    Am_checkpoint.Runtime.fetch = (fun name -> fetch ctx (find name));
    restore = (fun name data -> update ctx (find name) data);
  }

(* The shared loop pipeline and its checkpoint, fault and inference entry
   points (see [Am_loop.Loop]). *)
include Loop.Make (struct
  type nonrec _ ctx = ctx
  type nonrec handle = handle
  type space = Types.set
  type arg = Types.arg
  type kernel = Exec_common.kernel

  let state ctx = ctx.loop
  let make_handle = Plan.make_handle
  let same_shape = Types.same_shape

  (* Unstructured arguments carry no stencil radius to tighten; the extent
     column is the no-information marker throughout. *)
  let probe descr args kernel =
    let fp = Probe.infer ~loop:descr ~kernel:(Exec_common.staged_view kernel) () in
    { Probe.in_loop = descr; in_foot = fp; in_read_ext = Array.make (List.length args) (-1) }

  let gbl_out args =
    List.filter_map
      (function
        | Types.Arg_gbl { buf; access; _ } when access <> Access.Read -> Some buf
        | Types.Arg_gbl _ | Types.Arg_dat _ -> None)
      args

  let snapshot_fns = checkpoint_fns
  let execute = execute_loop
end)

(* Validate (a generated kernel's arguments against its declared signature
   too) and describe the call; the shared pipeline does the rest. *)
let run_loop ctx ~name ~info ?handle iter_set args kernel =
  Types.validate_args ~iter_set args;
  (match kernel with
  | Exec_common.Accessor { Acc.walker = Some w; _ } -> Exec_common.check_signature ~name w args
  | Exec_common.Accessor { Acc.walker = None; _ } | Exec_common.Staged _ -> ());
  run ctx ~name ~descr:(Types.describe ~name ~iter_set ~info args) handle iter_set args kernel

let par_loop ctx ~name ?(info = Descr.default_kernel_info) ?handle iter_set args kernel =
  run_loop ctx ~name ~info ?handle iter_set args (Exec_common.Staged kernel)

let par_loop_acc ctx ~name ?(info = Descr.default_kernel_info) ?handle iter_set args kernel =
  run_loop ctx ~name ~info ?handle iter_set args (Exec_common.Accessor kernel)

(* ---- Diagnostics (op_diagnostic / op_print_dat_to_txtfile) -------------- *)

(* Cached execution plans: one line per (loop, argument signature), with the
   block decomposition and both colouring levels — the run-time artefacts
   Section II.B describes. *)
let plan_report ctx =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "execution plans:\n";
  let entries =
    Hashtbl.fold
      (fun key entry acc ->
        (* Entries whose lazy plan was never forced (sequential execution)
           have no colouring to report. *)
        if Lazy.is_val entry.Plan.entry_plan then
          (key, Lazy.force entry.Plan.entry_plan) :: acc
        else acc)
      ctx.plan_cache.Plan.table []
    |> List.sort compare
  in
  if entries = [] then Buffer.add_string buf "  (none built yet)\n";
  List.iter
    (fun (key, plan) ->
      let blocks = plan.Plan.blocks in
      Buffer.add_string buf
        (Printf.sprintf "  %s: %d blocks of %d, %d block colour(s)%s\n" key
           blocks.Am_mesh.Coloring.n_blocks blocks.Am_mesh.Coloring.block_size
           plan.Plan.block_coloring.Am_mesh.Coloring.n_colors
           (match plan.Plan.elem_coloring with
           | None -> ", conflict-free"
           | Some ec ->
             Printf.sprintf ", %d element colour(s)" ec.Am_mesh.Coloring.n_colors)))
    entries;
  Buffer.contents buf

(* Dump a dataset to a text file in global element order — works in
   distributed mode too, like op_print_dat_to_txtfile ("API calls to dump
   entire datasets to disk, even in a distributed memory environment"). *)
let dump_dat ctx dat ~path =
  let data = fetch ctx dat in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "# %s: %d elements x %d components\n" dat.Types.dat_name
        dat.Types.dat_set.Types.set_size dat.Types.dim;
      for e = 0 to dat.Types.dat_set.Types.set_size - 1 do
        for d = 0 to dat.Types.dim - 1 do
          if d > 0 then output_char oc ' ';
          Printf.fprintf oc "%.17g" data.((e * dat.Types.dim) + d)
        done;
        output_char oc '\n'
      done)

(* Decomposition summary (per-set owned/halo counts, exchange volumes). *)
let partition_report ctx =
  match ctx.dist with
  | None -> "not partitioned\n"
  | Some d -> Dist.report d ctx.env

(* Shared argument machinery of the OP2 backends: frames and their two
   walkers.

   A kernel comes in one of two forms ([kernel]).  A staged kernel
   receives one staging buffer per argument ([float array array]); an
   accessor kernel is a kernel value ([Acc.elem_kernel]): a point form
   over one [Acc.t] per argument — the paper's Fig 7 OP_ACC, component [i]
   at [data.(base + i)] — and, when [let%elem_kernel] generated it, an
   element walker ([Acc.walker]) generated for the kernel's declared
   signature, which runs the body inlined over an element range [lo, hi)
   with the signature's dims, arities and slots as constants, reading the
   datasets in place and only the arrays in [addrs] and the worker's
   buffers.  [check_signature] holds every call's arguments to that
   signature.

   Arguments are "compiled" once per call site (the executor its loop
   handle keeps): the dataset array, map table and layout strides are
   resolved up front and baked into one gather and one scatter closure per
   argument, beside the arrays an element walker reads ([Acc.addr]).  A
   global compiles to its length and access only, so one executor serves
   calls that pass fresh global buffers.  The per-worker state is a
   [frame] built from the compiled arguments and the running call's
   globals, by one rule (a Seq call, or a [Rank_seq] rank, reuses the one
   its executor keeps, its globals refreshed: [seq_frame]):

   - a walker frame runs the kernel's element walker with every dataset
     in place.  It needs a generated kernel and an [elementwise] executor:
     every dataset argument an AoS Read of a dataset no argument writes,
     an AoS Write/Rw of a dataset no other argument touches
     ([elementwise_args]: a kernel writing in place must not see its own
     write through a second argument, which staging would hide), or an
     AoS Inc, which the walker adds back itself after the body;
   - a staging frame stages every argument, and its point walker is the
     only per-element path: a gather closure fills a per-worker buffer per
     argument ([enter]), the kernel runs — a staged kernel on the buffers,
     an accessor kernel's point form on base-0 accessors over them, built
     once per frame ([call]) — and a scatter closure writes the written
     ones back ([leave]).  An increment starts from a zeroed scratch and
     is added to memory after the kernel, so Inc rounding, and with it
     every bitwise cross-backend guarantee, does not depend on the kernel
     form.

   Staged kernels, lifted point functions ([Acc.lift]), SoA and aliased
   arguments and the Cuda_sim [Staged] scratchpad therefore take staging
   frames.  Seq, Shared and each partitioned rank run a walker frame over
   whole ranges ([run_range]); Vec packs and Cuda_sim NOSOA block colours
   call it once per run of consecutive ids ([run_runs],
   [Exec_cuda.run_block_by_color]), and a Vec loop that reduces a global
   once per element, on its lane's frame ([call] on [e], [elems w e
   (e + 1)]).  Check drives the same gather and scatter closures under the
   sanitizer's guards ([Exec_check]); footprint probing stages every
   argument itself ([staged_view]).

   The inner copies use unsafe indexing; bounds are guaranteed by
   declaration-time validation ([decl_map] range-checks every target,
   [decl_dat] fixes the array length) plus [validate_args] on the loop.
   The distributed backend passes resolvers that substitute rank-local
   arrays and map tables. *)

module Access = Am_core.Access
module Acc = Am_core.Acc
open Types

type kernel = Staged of (float array array -> unit) | Accessor of Acc.elem_kernel

type compiled_arg =
  | C_dat of {
      data : float array;
      dim : int;
      layout : layout;
      n : int; (* elements in [data]; layout stride for SoA *)
      access : Access.t;
      map_values : int array; (* [||] for direct args *)
      arity : int;
      idx : int;
      indirect : bool;
      gather : float array -> int -> unit; (* staging buffer, element *)
      scatter : float array -> int -> unit;
    }
  | C_gbl of { len : int; access : Access.t } (* the buffer is the running call's *)

(* A compiled executor: the arguments, and where an element walker finds
   each one's arrays.  [elementwise] holds when a walker frame may run
   over them ([elementwise_args]).  [frame] is the one a Seq call, or a
   [Rank_seq] rank, runs ([seq_frame]); a recompile builds a new executor,
   and with it a new frame.

   A frame is one worker's state for one loop call.  [bufs] holds the
   global accumulators and, per dataset argument, a staging frame's
   staging buffer or a walker frame's Inc scratch ([||] for an argument
   it addresses in place).  A walker frame has [walk], the element
   walker's view of the executor and [bufs]; a staging frame of an
   accessor kernel has [accs], base-0 accessors over [bufs]; a staging
   frame of a staged kernel neither. *)
type compiled = {
  args : compiled_arg array;
  addrs : Acc.addr array;
  elementwise : bool;
  mutable frame : frame option;
}

and frame = {
  compiled : compiled;
  mutable kernel : kernel;
  bufs : float array array;
  accs : Acc.t array;
  walk : Acc.walk option;
}

type resolvers = {
  resolve_dat : dat -> float array * int; (* backing array and element count *)
  resolve_map : map_t -> int array;
}

let global_resolvers =
  {
    resolve_dat = (fun d -> (d.data, dat_n_elems d));
    resolve_map = (fun m -> m.values);
  }

let ignore2 _ _ = ()

(* Specialised gather: copies the [dim] components of the target element
   into the staging buffer.  Layout, indirection and the common [dim = 1]
   case are resolved here, once, instead of per element. *)
let build_gather ~data ~dim ~layout ~n ~access ~map_values ~arity ~idx ~indirect =
  match access with
  | Access.Inc ->
    if dim = 1 then fun buf _ -> Array.unsafe_set buf 0 0.0
    else fun buf _ -> Array.fill buf 0 dim 0.0
  | Access.Read | Access.Rw | Access.Write -> (
    (* Write also gathers: kernels receive the previous contents, as OP2's
       pointer-passing convention does. *)
    match (layout, indirect, dim) with
    | Aos, false, 1 ->
      fun buf e -> Array.unsafe_set buf 0 (Array.unsafe_get data e)
    | Aos, false, _ ->
      fun buf e ->
        let base = e * dim in
        for d = 0 to dim - 1 do
          Array.unsafe_set buf d (Array.unsafe_get data (base + d))
        done
    | Aos, true, 1 ->
      fun buf e ->
        Array.unsafe_set buf 0
          (Array.unsafe_get data (Array.unsafe_get map_values ((e * arity) + idx)))
    | Aos, true, _ ->
      fun buf e ->
        let base = Array.unsafe_get map_values ((e * arity) + idx) * dim in
        for d = 0 to dim - 1 do
          Array.unsafe_set buf d (Array.unsafe_get data (base + d))
        done
    | Soa, false, _ ->
      fun buf e ->
        for d = 0 to dim - 1 do
          Array.unsafe_set buf d (Array.unsafe_get data ((d * n) + e))
        done
    | Soa, true, _ ->
      fun buf e ->
        let elem = Array.unsafe_get map_values ((e * arity) + idx) in
        for d = 0 to dim - 1 do
          Array.unsafe_set buf d (Array.unsafe_get data ((d * n) + elem))
        done)
  | Access.Min | Access.Max -> invalid_arg "op2: Min/Max access on a dat argument"

let build_scatter ~data ~dim ~layout ~n ~access ~map_values ~arity ~idx ~indirect =
  let target =
    if indirect then fun e -> Array.unsafe_get map_values ((e * arity) + idx)
    else fun e -> e
  in
  match access with
  | Access.Read -> ignore2
  | Access.Write | Access.Rw -> (
    match (layout, dim) with
    | Aos, 1 -> fun buf e -> Array.unsafe_set data (target e) (Array.unsafe_get buf 0)
    | Aos, _ ->
      fun buf e ->
        let base = target e * dim in
        for d = 0 to dim - 1 do
          Array.unsafe_set data (base + d) (Array.unsafe_get buf d)
        done
    | Soa, _ ->
      fun buf e ->
        let elem = target e in
        for d = 0 to dim - 1 do
          Array.unsafe_set data ((d * n) + elem) (Array.unsafe_get buf d)
        done)
  | Access.Inc -> (
    match (layout, dim) with
    | Aos, 1 ->
      fun buf e ->
        let j = target e in
        Array.unsafe_set data j (Array.unsafe_get data j +. Array.unsafe_get buf 0)
    | Aos, _ ->
      fun buf e ->
        let base = target e * dim in
        for d = 0 to dim - 1 do
          let j = base + d in
          Array.unsafe_set data j (Array.unsafe_get data j +. Array.unsafe_get buf d)
        done
    | Soa, _ ->
      fun buf e ->
        let elem = target e in
        for d = 0 to dim - 1 do
          let j = (d * n) + elem in
          Array.unsafe_set data j (Array.unsafe_get data j +. Array.unsafe_get buf d)
        done)
  | Access.Min | Access.Max -> invalid_arg "op2: Min/Max access on a dat argument"

(* Whether a walker frame may run over [args]: every dataset is AoS, and
   its argument an Inc, which the walker adds back after the body, or one
   it addresses in place: a Read of a dataset no argument writes, a
   Write/Rw of a dataset no other argument touches.  Anything else would
   let the kernel observe a write that staging hides until after it
   returns. *)
let elementwise_args args =
  let refs id =
    List.length
      (List.filter (function Arg_dat { dat; _ } -> dat.dat_id = id | Arg_gbl _ -> false) args)
  in
  let written id =
    List.exists
      (function
        | Arg_dat { dat; access = Access.Write | Access.Rw; _ } -> dat.dat_id = id
        | Arg_dat _ | Arg_gbl _ -> false)
      args
  in
  List.for_all
    (function
      | Arg_dat { dat; access; _ } -> (
        dat.layout = Aos
        &&
        match access with
        | Access.Read -> not (written dat.dat_id)
        | Access.Write | Access.Rw -> refs dat.dat_id = 1
        | Access.Inc -> true
        | Access.Min | Access.Max -> false)
      | Arg_gbl _ -> true)
    args

let compile ?(resolvers = global_resolvers) args =
  let compile_one = function
    | Arg_dat { dat; map; access } ->
      let data, n = resolvers.resolve_dat dat in
      let map_values, arity, idx, indirect =
        match map with
        | None -> ([||], 0, 0, false)
        | Some (m, k) -> (resolvers.resolve_map m, m.arity, k, true)
      in
      let dim = dat.dim and layout = dat.layout in
      C_dat
        {
          data; dim; layout; n; access; map_values; arity; idx; indirect;
          gather =
            build_gather ~data ~dim ~layout ~n ~access ~map_values ~arity ~idx ~indirect;
          scatter =
            build_scatter ~data ~dim ~layout ~n ~access ~map_values ~arity ~idx ~indirect;
        }
    | Arg_gbl { buf; access; _ } -> C_gbl { len = Array.length buf; access }
  in
  let args' = Array.of_list (List.map compile_one args) in
  let addrs =
    Array.map
      (function
        | C_dat { data; map_values; _ } -> { Acc.adata = data; amap = map_values }
        | C_gbl _ -> { Acc.adata = [||]; amap = [||] })
      args'
  in
  { args = args'; addrs; elementwise = elementwise_args args; frame = None }

(* A kept executor is only valid while the argument list still resolves to
   the same backing stores: [convert_layout] and the SoA conversion replace
   [dat.data] wholesale ([Op2.update] writes into it), and renumbering
   replaces every dataset array and map table.  Physical equality makes
   the check one pointer compare per argument.  A global matches on its length and access: each frame binds
   the running call's buffer. *)
let arg_matches c arg =
  match (c, arg) with
  | C_dat cd, Arg_dat { dat; map; access } ->
    cd.access = access && cd.data == dat.data && cd.layout = dat.layout
    && (match map with
       | None -> not cd.indirect
       | Some (m, k) -> cd.indirect && cd.map_values == m.values && cd.idx = k)
  | C_gbl cg, Arg_gbl { buf; access; _ } -> cg.len = Array.length buf && cg.access = access
  | (C_dat _ | C_gbl _), _ -> false

(* The array and the list walked together: a warm call allocates nothing. *)
let rec matches_from compiled i = function
  | [] -> i = Array.length compiled
  | arg :: rest ->
    i < Array.length compiled && arg_matches compiled.(i) arg && matches_from compiled (i + 1) rest

let compiled_matches compiled args = matches_from compiled.args 0 args

let has_globals compiled =
  Array.exists (function C_gbl _ -> true | C_dat _ -> false) compiled.args

(* Whether some global is reduced (Inc, Min or Max). *)
let reduces compiled =
  Array.exists
    (function C_gbl { access; _ } -> access <> Access.Read | C_dat _ -> false)
    compiled.args

(* ---- Declared signatures ------------------------------------------------ *)

(* A generated kernel's element walker has its signature's dims, arities,
   slots and access modes built in, so every call must pass exactly those
   facts.  [check_signature ~name w args] raises [Invalid_argument] naming
   the loop, the kernel, the argument and the fact that differs.  Dataset
   and map labels are compared by [dat_id] and [map_id], so the check
   holds on rank-local arrays and after renumbering.  It allocates nothing
   unless it raises. *)

let sig_error ~name (w : Acc.walker) k fact =
  invalid_arg
    (Printf.sprintf "Op2.par_loop_acc %s: kernel %s, argument %d: %s" name w.Acc.kname k fact)

(* The first argument of [sg] from [j] on whose dataset label (or, with
   [~map], map label) is [label]. *)
let rec first_label ~map sg label j =
  let found =
    match sg.(j) with
    | Acc.Dat { label = l; _ } when not map -> String.equal l label
    | Acc.Dat { via = Some { map = m; _ }; _ } when map -> String.equal m label
    | Acc.Dat _ | Acc.Gbl _ -> false
  in
  if found then j else first_label ~map sg label (j + 1)

let check_arg ~name (w : Acc.walker) args k arg =
  let sg = w.Acc.signature in
  match (sg.(k), arg) with
  | Acc.Gbl { len; access }, Arg_gbl { name = g; buf; access = a } ->
    if a <> access then
      sig_error ~name w k
        (Printf.sprintf "declared access %s, the call passes global %s with access %s"
           (Access.to_string access) g (Access.to_string a))
    else if Array.length buf <> len then
      sig_error ~name w k
        (Printf.sprintf "declared a global of length %d, the call passes global %s of length %d"
           len g (Array.length buf))
  | Acc.Gbl _, Arg_dat { dat; _ } ->
    sig_error ~name w k
      (Printf.sprintf "declared a global, the call passes dat %s" dat.dat_name)
  | Acc.Dat { label; _ }, Arg_gbl { name = g; _ } ->
    sig_error ~name w k
      (Printf.sprintf "declared dataset label %s, the call passes global %s" label g)
  | Acc.Dat { label; dim; access; via }, Arg_dat { dat; map; access = a } -> (
    if dat.dim <> dim then
      sig_error ~name w k
        (Printf.sprintf "declared dim %d, the call passes dat %s of dim %d" dim dat.dat_name
           dat.dim);
    if a <> access then
      sig_error ~name w k
        (Printf.sprintf "declared access %s, the call passes dat %s with access %s"
           (Access.to_string access) dat.dat_name (Access.to_string a));
    (match (via, map) with
    | None, None -> ()
    | None, Some (m, _) ->
      sig_error ~name w k
        (Printf.sprintf "declared direct, the call passes dat %s indirectly through map %s"
           dat.dat_name m.map_name)
    | Some v, None ->
      sig_error ~name w k
        (Printf.sprintf "declared indirect through map label %s, the call passes dat %s directly"
           v.Acc.map dat.dat_name)
    | Some v, Some (m, slot) -> (
      if m.arity <> v.Acc.arity then
        sig_error ~name w k
          (Printf.sprintf "declared map label %s of arity %d, the call passes map %s of arity %d"
             v.Acc.map v.Acc.arity m.map_name m.arity);
      if slot <> v.Acc.slot then
        sig_error ~name w k
          (Printf.sprintf "declared slot %d of map label %s, the call passes slot %d of map %s"
             v.Acc.slot v.Acc.map slot m.map_name);
      let j = first_label ~map:true sg v.Acc.map 0 in
      match List.nth args j with
      | Arg_dat { map = Some (m', _); _ } when m'.map_id <> m.map_id ->
        sig_error ~name w k
          (Printf.sprintf "map label %s names map %s at argument %d and map %s here" v.Acc.map
             m'.map_name j m.map_name)
      | Arg_dat _ | Arg_gbl _ -> ()));
    let j = first_label ~map:false sg label 0 in
    match List.nth args j with
    | Arg_dat { dat = d; _ } when d.dat_id <> dat.dat_id ->
      sig_error ~name w k
        (Printf.sprintf "dataset label %s names dat %s at argument %d and dat %s here" label
           d.dat_name j dat.dat_name)
    | Arg_dat _ | Arg_gbl _ -> ())

let rec check_from ~name w args k = function
  | [] -> ()
  | arg :: rest ->
    check_arg ~name w args k arg;
    check_from ~name w args (k + 1) rest

let check_signature ~name (w : Acc.walker) args =
  let n = List.length args and declared = Array.length w.Acc.signature in
  if n <> declared then
    invalid_arg
      (Printf.sprintf "Op2.par_loop_acc %s: kernel %s declares %d arguments, the call passes %d"
         name w.Acc.kname declared n);
  check_from ~name w args 0 args

(* ---- Frames: one worker's state for one loop call ---------------------- *)

(* A frame's buffers, argument [i] on from [args], the running call's
   list: a global's accumulator (a copy of the call's [Read], [Min] or
   [Max] buffer, zeros for an [Inc]), and a [dim]-long buffer for every
   dataset argument of a staging frame and every Inc of a walker frame. *)
let rec fill_bufs ~staging compiled bufs i = function
  | [] -> ()
  | arg :: rest ->
    bufs.(i) <-
      (match (compiled.(i), arg) with
      | C_dat { dim; access; _ }, _ ->
        if staging || access = Access.Inc then Array.make dim 0.0 else [||]
      | C_gbl { len; access = Access.Inc }, _ -> Array.make len 0.0
      | C_gbl { access = Access.Read | Access.Min | Access.Max; _ }, Arg_gbl { buf; _ } ->
        Array.copy buf
      | C_gbl _, _ -> invalid_arg "op2: Write/Rw access on a global argument");
    fill_bufs ~staging compiled bufs (i + 1) rest

let make_bufs ~staging compiled args =
  let bufs = Array.make (Array.length compiled) [||] in
  fill_bufs ~staging compiled bufs 0 args;
  bufs

(* The two always-on counters tell an accessor kernel's two kinds of
   frame apart, once per frame a call runs. *)
let count f =
  match (f.walk, f.kernel) with
  | Some _, _ -> Am_obs.Counters.incr Am_obs.Obs.op2_walker_frames
  | None, Accessor _ -> Am_obs.Counters.incr Am_obs.Obs.op2_point_frames
  | None, Staged _ -> ()

(* A staging frame: every argument staged (the Cuda_sim scratchpad
   strategy fills the buffers itself). *)
let staging_frame compiled kernel args =
  let bufs = make_bufs ~staging:true compiled.args args in
  let accs = match kernel with Accessor _ -> Array.map Acc.of_array bufs | Staged _ -> [||] in
  let f = { compiled; kernel; bufs; accs; walk = None } in
  count f;
  f

(* One worker's frame for a call with arguments [args]: a walker frame
   when the kernel is generated and [compiled] is [elementwise], a staging
   frame otherwise. *)
let make_frame compiled kernel args =
  match kernel with
  | Accessor { Acc.walker = Some _; _ } when compiled.elementwise ->
    let bufs = make_bufs ~staging:false compiled.args args in
    let f =
      { compiled; kernel; bufs; accs = [||]; walk = Some { Acc.addrs = compiled.addrs; bufs } }
    in
    count f;
    f
  | Accessor _ | Staged _ -> staging_frame compiled kernel args

(* Gather a staging frame's buffers for element [e] (an Inc buffer is
   zeroed); a walker frame reads in place. *)
let enter f e =
  if Option.is_none f.walk then begin
    let args = f.compiled.args and bufs = f.bufs in
    for i = 0 to Array.length args - 1 do
      match Array.unsafe_get args i with
      | C_dat { gather; _ } -> gather (Array.unsafe_get bufs i) e
      | C_gbl _ -> ()
    done
  end

(* Run the kernel at element [e]: a walker frame's element walker over [e,
   e + 1), or the kernel on a staging frame's buffers. *)
let call f e =
  match (f.walk, f.kernel) with
  | Some w, Accessor { Acc.walker = Some g; _ } -> g.Acc.elems w e (e + 1)
  | _, Staged k -> k f.bufs
  | _, Accessor k -> k.Acc.elem f.accs

(* Write a staging frame's results for element [e] back (an Inc buffer is
   added). *)
let leave f e =
  if Option.is_none f.walk then begin
    let args = f.compiled.args and bufs = f.bufs in
    for i = 0 to Array.length args - 1 do
      match Array.unsafe_get args i with
      | C_dat { access = Access.Read; _ } | C_gbl _ -> ()
      | C_dat { scatter; _ } -> scatter (Array.unsafe_get bufs i) e
    done
  end

let run_element f e =
  enter f e;
  call f e;
  leave f e

(* Every element of [lo, hi), in order: a walker frame's element walker,
   called once, or the staging point walker. *)
let run_range f lo hi =
  match (f.walk, f.kernel) with
  | Some w, Accessor { Acc.walker = Some g; _ } -> g.Acc.elems w lo hi
  | _ ->
    for e = lo to hi - 1 do
      run_element f e
    done

(* Elements [elem i] for [i] in [lo, hi), in that order, each maximal run
   of consecutive ids as one [run_range]: a walker frame's walker is
   called once per run, a staging frame steps element by element. *)
let run_runs f elem lo hi =
  let i = ref lo in
  while !i < hi do
    let first = elem !i in
    let j = ref (!i + 1) in
    while !j < hi && elem !j = first + (!j - !i) do
      incr j
    done;
    run_range f first (first + (!j - !i));
    i := !j
  done

(* The kernel as a function of staging buffers, for footprint probing. *)
let staged_view = function Staged k -> k | Accessor k -> Acc.staged k.Acc.elem

(* ---- Global reductions -------------------------------------------------- *)

(* Fold one worker's global accumulators into the running call's global
   buffers, [args] being its argument list.  Callers serialise calls
   (sequential phase or post-join merge). *)
let rec merge_from buffers i = function
  | [] -> ()
  | Arg_gbl { buf; access; _ } :: rest ->
    Am_loop.Loop.fold access buf buffers.(i);
    merge_from buffers (i + 1) rest
  | Arg_dat _ :: rest -> merge_from buffers (i + 1) rest

let merge_globals args buffers = merge_from buffers 0 args

(* Start [f]'s reductions afresh for one range of a call with arguments
   [args] ([Loop.restart]). *)
let rec restart_from bufs i = function
  | [] -> ()
  | Arg_gbl { buf; access; _ } :: rest ->
    Am_loop.Loop.restart access buf bufs.(i);
    restart_from bufs (i + 1) rest
  | Arg_dat _ :: rest -> restart_from bufs (i + 1) rest

let restart_globals f args = restart_from f.bufs 0 args

(* The frame of one more Seq call on [compiled]: the executor's own while
   the call's kernel is the one it was built for (any staged kernel runs
   on a staged kernel's frame), its global accumulators refreshed in
   place ([Loop.restart]: [Read], [Min] and [Max] copied from the call's
   buffers, [Inc] zeroed); built and kept otherwise.  A warm call
   allocates no frame. *)
let seq_frame compiled kernel args =
  match (compiled.frame, kernel) with
  | Some ({ kernel = Accessor k; _ } as f), Accessor k' when k == k' ->
    restart_globals f args;
    count f;
    f
  | Some ({ kernel = Staged _; _ } as f), Staged _ ->
    f.kernel <- kernel;
    restart_globals f args;
    count f;
    f
  | (Some _ | None), _ ->
    let f = make_frame compiled kernel args in
    compiled.frame <- Some f;
    f

(* A copy of [f]'s reduced globals' accumulators ([||] for any other
   argument): the partial of the range it just ran. *)
let partial f =
  Array.mapi
    (fun i -> function
      | C_gbl { access = Access.Inc | Access.Min | Access.Max; _ } -> Array.copy f.bufs.(i)
      | C_gbl _ | C_dat _ -> [||])
    f.compiled.args

(* Pairwise tree reduction of per-lane frames' accumulators into the
   call's buffers (Vec). *)
let merge_worker_globals compiled args frames =
  Am_loop.Loop.tree_merge
    (List.map (fun f -> f.bufs) frames)
    ~finish:(merge_globals args)
    ~combine:(fun dst src ->
      Array.iteri
        (fun i -> function
          | C_gbl { access; _ } -> Am_loop.Loop.fold access dst.(i) src.(i)
          | C_dat _ -> ())
        compiled.args)

(* The loop pipeline of both libraries.  [Op2.run_loop] and
   [Pipeline.run_loop] validate and describe a call; [Make.run] does the
   rest: trace record, fault counter, call site (the context's table
   finds the entry built for the loop name and argument shape, and the
   handle a call without one runs on), loop span and GC sample,
   checkpoint step or execute, profile and halo record.  [Make.Facade]
   holds the profile, fault, footprint and checkpoint entry points every
   facade exports, and [fold], [tree_merge] and the per-range partials
   ([restart], [add_partial], [merge_in_order]) the global-reduction merge
   of every executor.  A library plugs in through [LIB]; [Make] is applied
   once per library, so the warm path reaches its functions without
   allocating a closure. *)

module Access = Am_core.Access
module Descr = Am_core.Descr
module Probe = Am_core.Probe
module Profile = Am_core.Profile
module Obs = Am_obs.Obs
module Runtime = Am_checkpoint.Runtime
module Comm = Am_simmpi.Comm

(* One call site: the argument list its entry was built for, its
   footprint, probed from the first call's descriptor and kernel when
   [footprints] first reads it, and the handle its first call ran on (the
   one it passed, or a new one), which a call without one runs on. *)
type ('arg, 'handle) site = {
  s_args : 'arg list;
  s_foot : Probe.info Lazy.t;
  s_handle : 'handle;
}

(* A context's loop state. *)
type ('arg, 'handle) t = {
  facade : string; (* names the library in usage errors *)
  profile : Profile.t;
  trace : Am_core.Trace.t;
  mutable checkpoint : Runtime.session option;
  mutable fault : Am_simmpi.Fault.t option;
  mutable comm : Comm.t option; (* the partitioned runtime's *)
  sites : (string, ('arg, 'handle) site list) Hashtbl.t; (* by loop name *)
  (* The running call's exchange time, filled by the partitioned
     executors. *)
  halo_seconds : float ref;
}

let create ~facade =
  {
    facade;
    profile = Profile.create ();
    trace = Am_core.Trace.create ();
    checkpoint = None;
    fault = None;
    comm = None;
    sites = Hashtbl.create 32;
    halo_seconds = ref 0.0;
  }

(* Route the partitioned runtime's messages through the fault injector's
   reliable transport, now or when the injector arrives. *)
let partitioned t comm =
  t.comm <- Some comm;
  Option.iter (Comm.attach_fault comm) t.fault

(* ---- Global reductions ---------------------------------------------------- *)

(* Fold the partials [src] into [dst] under a global's access. *)
let fold access dst src =
  match access with
  | Access.Read -> ()
  | Access.Inc ->
    for d = 0 to Array.length dst - 1 do
      dst.(d) <- dst.(d) +. src.(d)
    done
  | Access.Min ->
    for d = 0 to Array.length dst - 1 do
      dst.(d) <- Float.min dst.(d) src.(d)
    done
  | Access.Max ->
    for d = 0 to Array.length dst - 1 do
      dst.(d) <- Float.max dst.(d) src.(d)
    done
  | Access.Write | Access.Rw -> assert false

(* Pairwise tree reduction of per-worker partials: [combine dst src] folds
   one worker's partials into another's (Inc/Min/Max are associative and
   commutative), [finish] folds the survivor into the user buffers. *)
let tree_merge ~combine ~finish parts =
  match parts with
  | [] -> ()
  | parts ->
    let traced = Obs.tracing () in
    if traced then Obs.begin_span ~cat:Am_obs.Tracer.Reduce "merge_globals";
    let arr = Array.of_list parts in
    let n = ref (Array.length arr) in
    while !n > 1 do
      let half = (!n + 1) / 2 in
      for i = 0 to !n - half - 1 do
        combine arr.(i) arr.(half + i)
      done;
      n := half
    done;
    finish arr.(0);
    if traced then Obs.end_span ()

(* A shared-memory loop's reductions, one partial per range: a range
   starts its accumulators afresh ([restart]: zeros for an Inc, the call's
   buffer for a Read, Min or Max — which also refreshes a frame a Seq call
   reuses) and leaves a copy keyed by its first index or
   block number ([add_partial]); after the join [merge_in_order] folds the
   partials into the call's buffers ([finish]) in key order.  The result
   then depends only on where the loop was cut into ranges, never on which
   worker ran which range. *)
let restart access buf acc =
  match access with
  | Access.Inc -> Array.fill acc 0 (Array.length acc) 0.0
  | Access.Read | Access.Min | Access.Max -> Array.blit buf 0 acc 0 (Array.length buf)
  | Access.Write | Access.Rw -> ()

let add_partial parts key p =
  let rec push () =
    let old = Atomic.get parts in
    if not (Atomic.compare_and_set parts old ((key, p) :: old)) then push ()
  in
  push ()

let merge_in_order ~finish parts =
  match Atomic.get parts with
  | [] -> ()
  | l ->
    let traced = Obs.tracing () in
    if traced then Obs.begin_span ~cat:Am_obs.Tracer.Reduce "merge_globals";
    List.iter (fun (_, p) -> finish p) (List.sort (fun (a, _) (b, _) -> Int.compare a b) l);
    if traced then Obs.end_span ()

(* ---- The pipeline --------------------------------------------------------- *)

module type LIB = sig
  type 'backend ctx (* an OPS context carries its facade's backend type *)
  type handle
  type space (* where a call runs: OP2's iteration set, OPS's range *)
  type arg
  type kernel

  val state : _ ctx -> (arg, handle) t
  val make_handle : unit -> handle

  (* Whether two argument lists are one call site's: the same datasets,
     maps, stencils and strides, by physical identity, the same access
     modes, and globals of the same name, length and access (never the
     buffer), allocating nothing. *)
  val same_shape : arg list -> arg list -> bool

  val probe : Descr.loop -> arg list -> kernel -> Probe.info
  val gbl_out : arg list -> float array list (* written globals, for checkpoints *)
  val snapshot_fns : _ ctx -> Runtime.snapshot_fns

  val execute : _ ctx -> name:string -> handle -> space -> arg list -> kernel -> unit
end

module Make (L : LIB) = struct
  module Facade = struct
    let profile ctx = (L.state ctx).profile
    let trace ctx = (L.state ctx).trace

    (* The footprint of every call site the context has run, for the
       report consumers.  The first read probes a site; later reads serve
       its footprint. *)
    let footprints ctx =
      Hashtbl.fold
        (fun _ sites acc -> List.fold_left (fun acc s -> Lazy.force s.s_foot :: acc) acc sites)
        (L.state ctx).sites []
      |> List.sort (fun a b ->
             compare a.Probe.in_loop.Descr.loop_name b.Probe.in_loop.Descr.loop_name)

    (* A loop-counter crash trigger fires on any backend. *)
    let set_fault_injector ctx f =
      let st = L.state ctx in
      st.fault <- Some f;
      Option.iter (fun comm -> Comm.attach_fault comm f) st.comm

    let fault_injector ctx = (L.state ctx).fault

    (* Automatic checkpointing (paper Section VI): loops run through the
       session, which snapshots the datasets a requested checkpoint needs
       or, after [recover_from_file], fast-forwards to the checkpoint. *)
    let enable_checkpointing ctx =
      let st = L.state ctx in
      if st.checkpoint = None then
        st.checkpoint <- Some (Runtime.create ~fns:(L.snapshot_fns ctx))

    let require_session ctx what =
      let st = L.state ctx in
      match st.checkpoint with
      | Some session -> session
      | None -> invalid_arg (Printf.sprintf "%s.%s" st.facade what)

    let request_checkpoint ctx =
      Runtime.request_checkpoint
        (require_session ctx "request_checkpoint: call enable_checkpointing first")

    let checkpoint_session ctx = (L.state ctx).checkpoint

    let checkpoint_to_file ctx ~path =
      Runtime.save_to_file
        (require_session ctx "checkpoint_to_file: checkpointing not enabled")
        ~path

    let recover_from_file ctx ~path =
      (L.state ctx).checkpoint <-
        Some (Runtime.recover_from_file ~path ~fns:(L.snapshot_fns ctx))
  end

  include Facade

  let rec find_site args = function
    | [] -> raise Not_found
    | s :: rest -> if L.same_shape s.s_args args then s else find_site args rest

  (* The call site of [name] whose entry was built for [args]' shape, or a
     new one that keeps this call's handle, and its descriptor and kernel
     for its probe: the kernel is a pure function of its staging buffers,
     so one probe per (name, argument shape) covers every call.  A hit is
     a string hash and [L.same_shape] per entry of the name, and allocates
     nothing. *)
  let site st ~name ~descr handle args kernel =
    let sites = try Hashtbl.find st.sites name with Not_found -> [] in
    match find_site args sites with
    | s -> s
    | exception Not_found ->
      let s =
        {
          s_args = args;
          s_foot = lazy (L.probe descr args kernel);
          s_handle = (match handle with Some h -> h | None -> L.make_handle ());
        }
      in
      Hashtbl.replace st.sites name (s :: sites);
      s

  let run ctx ~name ~descr handle space args kernel =
    let st = L.state ctx in
    Am_core.Trace.record st.trace descr;
    (* The injected rank crash counts parallel loops on the injector itself,
       so the trigger position survives a recovery restart's fresh context. *)
    (match st.fault with Some f -> Am_simmpi.Fault.note_loop f | None -> ());
    let site = site st ~name ~descr handle args kernel in
    let handle = match handle with Some h -> h | None -> site.s_handle in
    let t0 = Unix.gettimeofday () in
    let traced = Obs.tracing () in
    let gc0 = if traced then Some (Gc.quick_stat ()) else None in
    if traced then Obs.begin_span ~cat:Am_obs.Tracer.Loop name;
    let dist = Option.is_some st.comm in
    if dist then st.halo_seconds := 0.0;
    (match
       match st.checkpoint with
       | None -> L.execute ctx ~name handle space args kernel
       | Some session ->
         (* The session runs the body, snapshots datasets before it or, while
            fast-forwarding, skips it and replays logged global outputs. *)
         Runtime.step ~gbl_out:(L.gbl_out args) session ~descr ~run:(fun () ->
             L.execute ctx ~name handle space args kernel)
     with
    | () -> if traced then Obs.end_span ()
    | exception e ->
      (* A raising loop (a Check violation, an injected crash) still closes
         its span, so the trace keeps it and later spans do not nest in it. *)
      let bt = Printexc.get_raw_backtrace () in
      if traced then Obs.end_span ();
      Printexc.raise_with_backtrace e bt);
    let seconds = Unix.gettimeofday () -. t0 in
    (match gc0 with
    | Some g0 ->
      let g1 = Gc.quick_stat () in
      Profile.record_gc st.profile ~name
        ~minor:(g1.Gc.minor_collections - g0.Gc.minor_collections)
        ~major:(g1.Gc.major_collections - g0.Gc.major_collections)
        ~promoted_words:(g1.Gc.promoted_words -. g0.Gc.promoted_words)
    | None -> ());
    Profile.record st.profile ~name ~seconds ~bytes:(Descr.total_bytes descr)
      ~elements:descr.Descr.set_size;
    if dist then
      Profile.record_halo st.profile ~name ~seconds:!(st.halo_seconds)
end

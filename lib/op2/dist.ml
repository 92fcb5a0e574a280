(* Distributed-memory runtime (the "MPI" backend).

   Implements OP2's distribution strategy on the in-process rank simulator:

   - a primary set is partitioned (graph k-way, coordinate RCB or naive
     block), and the partition is propagated to every other set through the
     declared maps;
   - each rank renumbers its elements locally — owned elements first (in
     ascending global order), then halo copies of remote elements its maps
     reach;
   - map tables are translated to local indices, datasets are scattered into
     per-rank arrays;
   - each [par_loop] runs owner-compute: ranks iterate their owned elements
     only; indirect reads trigger an on-demand halo exchange when the halo
     is stale, and indirect increments accumulate into halo slots that are
     reduced back onto the owners after the loop — both derived solely from
     the access descriptors, as the paper describes.

   Ranks execute one after another inside the process (BSP style); all
   communication volumes are recorded by [Am_simmpi.Comm] for the
   performance model. *)

module Access = Am_core.Access
module Obs = Am_obs.Obs
module Obs_counters = Am_obs.Counters
module Cat = Am_obs.Tracer
module Comm = Am_simmpi.Comm
module Halo = Am_simmpi.Halo
open Types

type set_dist = {
  parts : int array; (* global element -> owning rank *)
  n_owned : int array; (* per rank *)
  n_local : int array; (* owned + halo, per rank *)
  l2g : int array array; (* rank -> local slot -> global id *)
  owned_slot : int array; (* global id -> owned slot on its owner *)
  halo : Halo.t;
}

type dat_dist = { locals : float array array; mutable halo_fresh : bool }

type map_dist = { locals : int array array (* arity per owned source element *) }

(* Intra-rank execution: the hybrid MPI+OpenMP and MPI+vectorised modes of
   the paper run each rank's owned range through the shared-memory or
   vectorised engine, with rank-local execution plans built from the
   rank-local map tables. *)
type rank_exec =
  | Rank_seq
  | Rank_shared of { pool : Am_taskpool.Pool.t; block_size : int }
  | Rank_vec of Exec_vec.config

(* Per-rank core/boundary classification of a loop's owned range: core
   elements reach only owned slots through the loop's indirectly-read maps
   and can run while halo exchanges are in flight; boundary elements touch
   at least one halo slot and must wait for the exchange to finish. *)
type rank_split = { core : int array; boundary : int array }

type t = {
  comm : Comm.t;
  n_ranks : int;
  set_dists : (int, set_dist) Hashtbl.t;
  dat_dists : (int, dat_dist) Hashtbl.t;
  map_dists : (int, map_dist) Hashtbl.t;
  mutable rank_exec : rank_exec;
  mutable eager_halo : bool;
  mutable overlap : bool; (* post exchange, run core, wait, run boundary *)
  rank_plans : (string * int, Plan.t) Hashtbl.t;
  (* Core/boundary splits and rank-local compiled executors, cached under
     the same loop-signature key as the plan cache.  Both depend only on
     the rank-local map tables, which are fixed at [build] time. *)
  rank_splits : (string, rank_split array) Hashtbl.t;
  rank_execs : (string * int, Exec_common.compiled) Hashtbl.t;
}

type strategy =
  | Block_on of set
  | Rcb_on of dat (* partition the dat's set by its coordinate values *)
  | Kway_through of map_t (* partition the map's target set by its dual graph *)

let strategy_to_string = function
  | Block_on s -> Printf.sprintf "block(%s)" s.set_name
  | Rcb_on d -> Printf.sprintf "rcb(%s)" d.dat_name
  | Kway_through m -> Printf.sprintf "kway(%s)" m.map_name

(* ---- Partition inference -------------------------------------------- *)

let primary_partition ~n_ranks = function
  | Block_on s -> (s, Am_mesh.Partition.block ~n:s.set_size ~parts:n_ranks)
  | Rcb_on d ->
    ( d.dat_set,
      Am_mesh.Partition.rcb ~coords:d.data ~dim:d.dim ~n:d.dat_set.set_size
        ~parts:n_ranks )
  | Kway_through m ->
    let dual =
      Am_mesh.Csr.of_map_rows ~n_vertices:m.to_set.set_size ~n_rows:m.from_set.set_size
        ~arity:m.arity m.values
    in
    (m.to_set, Am_mesh.Partition.kway dual ~parts:n_ranks)

(* Propagate the primary partition to all sets through the maps: an element
   of an unpartitioned set inherits the rank of the lowest-indexed partitioned
   element it is connected to. Deterministic given declaration order. *)
let propagate env ~n_ranks ~primary_set ~primary_parts =
  let parts = Hashtbl.create 8 in
  Hashtbl.add parts primary_set.set_id primary_parts;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun m ->
        let from_known = Hashtbl.mem parts m.from_set.set_id in
        let to_known = Hashtbl.mem parts m.to_set.set_id in
        if from_known && not to_known then begin
          let src = Hashtbl.find parts m.from_set.set_id in
          let out = Array.make m.to_set.set_size (-1) in
          for s = 0 to m.from_set.set_size - 1 do
            for k = 0 to m.arity - 1 do
              let t = m.values.((s * m.arity) + k) in
              if out.(t) = -1 then out.(t) <- src.(s)
            done
          done;
          (* Targets never referenced: spread them block-wise. *)
          Array.iteri
            (fun t p -> if p = -1 then out.(t) <- t * n_ranks / max 1 m.to_set.set_size)
            out;
          Hashtbl.add parts m.to_set.set_id out;
          changed := true
        end
        else if to_known && not from_known then begin
          let dst = Hashtbl.find parts m.to_set.set_id in
          let out =
            Array.init m.from_set.set_size (fun s -> dst.(m.values.(s * m.arity)))
          in
          Hashtbl.add parts m.from_set.set_id out;
          changed := true
        end)
      (maps env)
  done;
  List.iter
    (fun s ->
      if not (Hashtbl.mem parts s.set_id) then
        Hashtbl.add parts s.set_id (Am_mesh.Partition.block ~n:s.set_size ~parts:n_ranks))
    (sets env);
  parts

(* ---- Local numbering and halos -------------------------------------- *)

(* Halo requirements of a set: globals each rank reaches through any map but
   does not own. *)
let halo_requirements env ~set_parts set =
  let n_ranks = 1 + Array.fold_left max 0 (Hashtbl.find set_parts set.set_id) in
  ignore n_ranks;
  let needed : (int, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
  let need rank global =
    let table =
      match Hashtbl.find_opt needed rank with
      | Some t -> t
      | None ->
        let t = Hashtbl.create 64 in
        Hashtbl.add needed rank t;
        t
    in
    if not (Hashtbl.mem table global) then Hashtbl.add table global ()
  in
  let target_parts = Hashtbl.find set_parts set.set_id in
  List.iter
    (fun m ->
      if m.to_set.set_id = set.set_id then begin
        let source_parts = Hashtbl.find set_parts m.from_set.set_id in
        for s = 0 to m.from_set.set_size - 1 do
          let r = source_parts.(s) in
          for k = 0 to m.arity - 1 do
            let t = m.values.((s * m.arity) + k) in
            if target_parts.(t) <> r then need r t
          done
        done
      end)
    (maps env);
  needed

let build_set_dist env ~n_ranks ~set_parts set =
  let parts = Hashtbl.find set_parts set.set_id in
  let owned = Array.make n_ranks [] in
  for g = set.set_size - 1 downto 0 do
    owned.(parts.(g)) <- g :: owned.(parts.(g))
  done;
  let owned = Array.map Array.of_list owned in
  let n_owned = Array.map Array.length owned in
  let owned_slot = Array.make set.set_size (-1) in
  Array.iter
    (fun per_rank -> Array.iteri (fun slot g -> owned_slot.(g) <- slot) per_rank)
    owned;
  let needed = halo_requirements env ~set_parts set in
  let halo_globals =
    Array.init n_ranks (fun r ->
        match Hashtbl.find_opt needed r with
        | None -> [||]
        | Some table ->
          let arr = Array.of_seq (Hashtbl.to_seq_keys table) in
          Array.sort compare arr;
          arr)
  in
  let n_local = Array.init n_ranks (fun r -> n_owned.(r) + Array.length halo_globals.(r)) in
  let l2g =
    Array.init n_ranks (fun r -> Array.append owned.(r) halo_globals.(r))
  in
  (* Exchange plan: rank r imports its halo globals from their owners. *)
  let imports = Array.init n_ranks (fun _ -> Array.make n_ranks [||]) in
  let exports = Array.init n_ranks (fun _ -> Array.make n_ranks [||]) in
  for r = 0 to n_ranks - 1 do
    (* Group halo globals of r by owner, preserving ascending order. *)
    let by_owner = Array.make n_ranks [] in
    Array.iteri
      (fun i g ->
        let p = parts.(g) in
        by_owner.(p) <- (n_owned.(r) + i, g) :: by_owner.(p))
      halo_globals.(r);
    for p = 0 to n_ranks - 1 do
      let entries = Array.of_list (List.rev by_owner.(p)) in
      imports.(r).(p) <- Array.map fst entries;
      exports.(p).(r) <- Array.map (fun (_, g) -> owned_slot.(g)) entries
    done
  done;
  let halo = Halo.create ~n_ranks ~exports ~imports in
  { parts; n_owned; n_local; l2g; owned_slot; halo }

(* Local slot of a global element as seen from [rank]: its owned slot when
   owned, otherwise its halo slot. *)
let local_slot sd ~rank global =
  if sd.parts.(global) = rank then sd.owned_slot.(global)
  else begin
    (* Halo slots are appended in ascending global order: binary search. *)
    let lo = ref sd.n_owned.(rank) and hi = ref (Array.length sd.l2g.(rank)) in
    let found = ref (-1) in
    while !found < 0 && !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let g = sd.l2g.(rank).(mid) in
      if g = global then found := mid
      else if g < global then lo := mid + 1
      else hi := mid
    done;
    if !found < 0 then
      failwith
        (Printf.sprintf
           "Dist.local_slot: rank %d has no halo copy of element %d (missing map?)"
           rank global);
    !found
  end

let build env ~n_ranks ~strategy =
  let primary_set, primary_parts = primary_partition ~n_ranks strategy in
  let set_parts = propagate env ~n_ranks ~primary_set ~primary_parts in
  let t =
    {
      comm = Comm.create ~n_ranks;
      n_ranks;
      set_dists = Hashtbl.create 8;
      dat_dists = Hashtbl.create 16;
      map_dists = Hashtbl.create 8;
      rank_exec = Rank_seq;
      eager_halo = false;
      overlap = false;
      rank_plans = Hashtbl.create 32;
      rank_splits = Hashtbl.create 32;
      rank_execs = Hashtbl.create 32;
    }
  in
  List.iter
    (fun s -> Hashtbl.add t.set_dists s.set_id (build_set_dist env ~n_ranks ~set_parts s))
    (sets env);
  List.iter
    (fun m ->
      let sd_from = Hashtbl.find t.set_dists m.from_set.set_id in
      let sd_to = Hashtbl.find t.set_dists m.to_set.set_id in
      let locals =
        Array.init n_ranks (fun r ->
            let n = sd_from.n_owned.(r) in
            let out = Array.make (n * m.arity) 0 in
            for i = 0 to n - 1 do
              let g = sd_from.l2g.(r).(i) in
              for k = 0 to m.arity - 1 do
                out.((i * m.arity) + k) <-
                  local_slot sd_to ~rank:r m.values.((g * m.arity) + k)
              done
            done;
            out)
      in
      Hashtbl.add t.map_dists m.map_id { locals })
    (maps env);
  List.iter
    (fun d ->
      if d.layout <> Aos then
        invalid_arg "Dist.build: convert datasets back to AoS before partitioning";
      let sd = Hashtbl.find t.set_dists d.dat_set.set_id in
      let locals =
        Array.init n_ranks (fun r ->
            let n = sd.n_local.(r) in
            let out = Array.make (n * d.dim) 0.0 in
            for i = 0 to n - 1 do
              Array.blit d.data (sd.l2g.(r).(i) * d.dim) out (i * d.dim) d.dim
            done;
            out)
      in
      Hashtbl.add t.dat_dists d.dat_id { locals; halo_fresh = true })
    (dats env);
  t

(* ---- Data movement --------------------------------------------------- *)

let set_dist t set = Hashtbl.find t.set_dists set.set_id
let dat_dist t dat = Hashtbl.find t.dat_dists dat.dat_id
let map_dist t m = Hashtbl.find t.map_dists m.map_id

(* On-demand policy (the paper's design): skip the exchange when the
   dirty-bit says the halo is still fresh. [eager_halo] disables the
   check — every indirect read pays an exchange — modelling a runtime
   without access-descriptor-driven halo tracking; the ablation bench
   quantifies the difference. *)
let refresh_halo t dat =
  let dd = dat_dist t dat in
  if (not dd.halo_fresh) || t.eager_halo then begin
    let sd = set_dist t dat.dat_set in
    Halo.exchange t.comm sd.halo ~dim:dat.dim dd.locals;
    dd.halo_fresh <- true
  end

let zero_halo t dat =
  let dd = dat_dist t dat in
  let sd = set_dist t dat.dat_set in
  for r = 0 to t.n_ranks - 1 do
    let from = sd.n_owned.(r) * dat.dim in
    Array.fill dd.locals.(r) from (Array.length dd.locals.(r) - from) 0.0
  done;
  dd.halo_fresh <- false

let reduce_halo t dat =
  let dd = dat_dist t dat in
  let sd = set_dist t dat.dat_set in
  Halo.reduce t.comm sd.halo ~dim:dat.dim dd.locals;
  dd.halo_fresh <- false

(* Copy owned values back into the global ordering (validation / output). *)
let fetch t dat =
  let sd = set_dist t dat.dat_set in
  let dd = dat_dist t dat in
  let out = Array.make (dat.dat_set.set_size * dat.dim) 0.0 in
  for r = 0 to t.n_ranks - 1 do
    for i = 0 to sd.n_owned.(r) - 1 do
      Array.blit dd.locals.(r) (i * dat.dim) out (sd.l2g.(r).(i) * dat.dim) dat.dim
    done
  done;
  out

(* Overwrite the distributed copies from a global-ordering array. *)
let push t dat data =
  if Array.length data <> dat.dat_set.set_size * dat.dim then
    invalid_arg "Dist.push: bad data length";
  let sd = set_dist t dat.dat_set in
  let dd = dat_dist t dat in
  for r = 0 to t.n_ranks - 1 do
    for i = 0 to sd.n_local.(r) - 1 do
      Array.blit data (sd.l2g.(r).(i) * dat.dim) dd.locals.(r) (i * dat.dim) dat.dim
    done
  done;
  dd.halo_fresh <- true

(* ---- Loop execution --------------------------------------------------- *)

(* Reject access combinations the owner-compute scheme cannot honour. *)
let check_supported args =
  let reads_halo = Hashtbl.create 4 and incs = Hashtbl.create 4 in
  List.iter
    (function
      | Arg_dat { dat; map = Some _; access } -> (
        match access with
        | Access.Read | Access.Rw -> Hashtbl.replace reads_halo dat.dat_id ()
        | Access.Inc -> Hashtbl.replace incs dat.dat_id ()
        | Access.Write -> ()
        | Access.Min | Access.Max -> assert false)
      | Arg_dat { map = None; _ } | Arg_gbl _ -> ())
    args;
  Hashtbl.iter
    (fun id () ->
      if Hashtbl.mem reads_halo id then
        invalid_arg
          "op2-mpi: a dataset accessed both indirectly-read and indirectly-incremented \
           in one loop is not supported by the owner-compute backend")
    incs

(* Distinct datasets of the argument list with the given predicate on their
   (map, access) pair — a dat referenced by several arguments (e.g. both map
   indices of an edge) must be processed once, not once per argument. *)
let distinct_dats args pred =
  let seen = Hashtbl.create 4 in
  List.filter_map
    (function
      | Arg_dat { dat; map; access } when pred map access ->
        if Hashtbl.mem seen dat.dat_id then None
        else begin
          Hashtbl.add seen dat.dat_id ();
          Some dat
        end
      | Arg_dat _ | Arg_gbl _ -> None)
    args

(* Indirectly-read (map, position) pairs: the arguments that need a fresh
   halo and therefore decide whether the loop runs phased at all. *)
let halo_read_slots args =
  List.filter_map
    (function
      | Arg_dat { map = Some (m, k); access = Access.Read | Access.Rw; _ } ->
        Some (m, k)
      | Arg_dat _ | Arg_gbl _ -> None)
    args

(* Classification is stricter than the exchange: a core element must reach
   only owned slots through every read *and* write indirection, so the core
   phase can never clobber a halo slot that the in-flight exchange will
   unpack into.  Indirect increments are exempt — they land in zeroed halo
   slots of datasets [check_supported] guarantees are not exchanged. *)
let halo_touch_slots args =
  List.filter_map
    (function
      | Arg_dat
          { map = Some (m, k); access = Access.Read | Access.Rw | Access.Write; _ }
        ->
        Some (m, k)
      | Arg_dat _ | Arg_gbl _ -> None)
    args

(* Classify each rank's owned range for one loop signature.  Cached under
   the plan-cache key: like the colouring plan, the split depends only on
   the rank-local map tables, which are fixed at [build] time. *)
let rank_split t ~key ~iter_set ~slots =
  match Hashtbl.find_opt t.rank_splits key with
  | Some s ->
    Obs_counters.incr Obs.plan_hits;
    s
  | None ->
    Obs_counters.incr Obs.plan_misses;
    Obs.begin_span ~cat:Cat.Plan "core_boundary_split";
    let sd = set_dist t iter_set in
    let split =
      Array.init t.n_ranks (fun r ->
          let core = ref [] and boundary = ref [] in
          for e = sd.n_owned.(r) - 1 downto 0 do
            let touches_halo =
              List.exists
                (fun ((m : map_t), k) ->
                  let md = map_dist t m in
                  let td = set_dist t m.to_set in
                  md.locals.(r).((e * m.arity) + k) >= td.n_owned.(r))
                slots
            in
            if touches_halo then boundary := e :: !boundary else core := e :: !core
          done;
          { core = Array.of_list !core; boundary = Array.of_list !boundary })
    in
    Hashtbl.add t.rank_splits key split;
    Obs.end_span ();
    split

let rank_resolvers t r =
  {
    Exec_common.resolve_dat =
      (fun d ->
        let dd = dat_dist t d in
        let d_sd = set_dist t d.dat_set in
        (dd.locals.(r), d_sd.n_local.(r)));
    resolve_map = (fun m -> (map_dist t m).locals.(r));
  }

(* Rank-local executor, compiled once per (signature, rank).
   [compiled_matches] cannot validate these — it compares against the
   global arrays — but the rank-local arrays are allocated once at [build]
   and only ever blitted in place, so the closures stay valid.  The
   signature records a global's length and access, not its buffer: every
   frame binds the running call's globals. *)
let rank_compiled t ~key r args =
  match Hashtbl.find_opt t.rank_execs (key, r) with
  | Some c ->
    Obs_counters.incr Obs.exec_hits;
    c
  | None ->
    Obs_counters.incr Obs.exec_misses;
    let c =
      Obs.span ~cat:Cat.Plan "rank_compile" (fun () ->
          Exec_common.compile ~resolvers:(rank_resolvers t r) args)
    in
    Hashtbl.add t.rank_execs (key, r) c;
    c

let par_loop ?unread ?(halo_seconds = ref 0.0) ?(overlap_seconds = ref 0.0) t
    ~name ~iter_set ~args ~kernel =
  check_supported args;
  let exposed = ref 0.0 in
  let timed f x =
    let t0 = Unix.gettimeofday () in
    f x;
    exposed := !exposed +. (Unix.gettimeofday () -. t0)
  in
  let all_read_dats =
    distinct_dats args (fun map access ->
        map <> None && (access = Access.Read || access = Access.Rw))
  in
  (* Footprint inference (see [Op2.footprint]) marks indirectly-read
     arguments the kernel was observed never to read; a dataset whose every
     read argument carries the mark needs no fresh halo for this loop.
     Phase classification is left untouched — it orders elements, it does
     not move data. *)
  let read_dats =
    match unread with
    | None -> all_read_dats
    | Some u ->
      let live = Hashtbl.create 4 in
      List.iteri
        (fun i arg ->
          match arg with
          | Arg_dat { dat; map = Some _; access = Access.Read | Access.Rw; _ }
            when not (i < Array.length u && u.(i)) ->
            Hashtbl.replace live dat.dat_id ()
          | Arg_dat _ | Arg_gbl _ -> ())
        args;
      List.filter
        (fun (d : dat) ->
          let needed = Hashtbl.mem live d.dat_id in
          if not needed then Obs_counters.incr Obs.halo_exchanges_saved;
          needed)
        all_read_dats
  in
  let inc_dats =
    distinct_dats args (fun map access -> map <> None && access = Access.Inc)
  in
  let sd = set_dist t iter_set in
  let slots = halo_read_slots args in
  (* The phased core/boundary path runs whenever the loop dereferences halo
     slots: under overlap it is what hides the exchange, and the sequential
     rank engine uses it in blocking mode too so the element order — core
     first, then boundary — is identical with overlap on and off (bitwise-
     reproducible results).  The hybrid rank engines keep their coloured
     full-range plans unless overlap is requested. *)
  let phased = slots <> [] && (t.overlap || t.rank_exec = Rank_seq) in
  let key = Plan.signature ~name ~iter_set ~block_size:0 args in
  let execs = Array.init t.n_ranks (fun r -> rank_compiled t ~key r args) in
  if not phased then begin
    (* Blocking path: exchange everything up front, run the full owned
       range through the rank engine. *)
    List.iter (timed (refresh_halo t)) read_dats;
    List.iter (timed (zero_halo t)) inc_dats;
    for r = 0 to t.n_ranks - 1 do
      let resolvers = rank_resolvers t r in
      let rank_plan ~block_size =
        let key = (Plan.signature ~name ~iter_set ~block_size args, r) in
        match Hashtbl.find_opt t.rank_plans key with
        | Some plan ->
          Obs_counters.incr Obs.plan_hits;
          plan
        | None ->
          Obs_counters.incr Obs.plan_misses;
          let plan =
            Obs.span ~cat:Cat.Plan name (fun () ->
                Plan.count_build
                  (Plan.build ~resolvers ~set_size:sd.n_owned.(r) ~block_size args))
          in
          Hashtbl.add t.rank_plans key plan;
          plan
      in
      let compiled = execs.(r) in
      match t.rank_exec with
      | Rank_seq -> Exec_seq.run ~compiled ~set_size:sd.n_owned.(r) ~args ~kernel
      | Rank_shared { pool; block_size } ->
        Exec_shared.run ~compiled pool (rank_plan ~block_size) ~set_size:sd.n_owned.(r) ~args
          ~kernel
      | Rank_vec config ->
        Exec_vec.run ~compiled config (rank_plan ~block_size:256) ~set_size:sd.n_owned.(r) ~args
          ~kernel
    done
  end
  else begin
    let split = rank_split t ~key ~iter_set ~slots:(halo_touch_slots args) in
    let stale =
      List.filter (fun d -> t.eager_halo || not (dat_dist t d).halo_fresh) read_dats
    in
    (* Pack and post.  In blocking mode the exchange completes here and all
       of its time stays exposed; under overlap only the pack/post and the
       later wait are measured, and the core phase gets credited against
       them below. *)
    let xfer = ref 0.0 in
    let tokens =
      if t.overlap then
        List.map
          (fun d ->
            let dd = dat_dist t d in
            let d_sd = set_dist t d.dat_set in
            let t0 = Unix.gettimeofday () in
            let tok = Halo.exchange_start t.comm d_sd.halo ~dim:d.dim dd.locals in
            xfer := !xfer +. (Unix.gettimeofday () -. t0);
            (dd, d_sd, tok))
          stale
      else begin
        List.iter (timed (refresh_halo t)) stale;
        []
      end
    in
    List.iter (timed (zero_halo t)) inc_dats;
    let frames = Array.map (fun c -> Exec_common.make_frame c kernel args) execs in
    (* Each maximal run of consecutive ids of an ascending subset is one
       element range: a walker frame's walker is called once per run, in
       the same element order. *)
    let run_subset r elems =
      let n = Array.length elems in
      let i = ref 0 in
      while !i < n do
        let lo = elems.(!i) in
        let j = ref (!i + 1) in
        while !j < n && elems.(!j) = lo + (!j - !i) do
          incr j
        done;
        Exec_common.run_range frames.(r) lo (lo + (!j - !i));
        i := !j
      done
    in
    (* Core phase: every element whose reads stay on owned slots. *)
    let traced = Obs.tracing () in
    let t_core = Unix.gettimeofday () in
    for r = 0 to t.n_ranks - 1 do
      if traced then Obs.begin_span ~lane:r ~cat:Cat.Loop "core";
      run_subset r split.(r).core;
      Obs_counters.add Obs.core_elements (Array.length split.(r).core);
      if traced then Obs.end_span ~lane:r ()
    done;
    let core_seconds = Unix.gettimeofday () -. t_core in
    (* Wait for the in-flight exchanges, then the boundary phase. *)
    if tokens <> [] then begin
      let t_wait = Unix.gettimeofday () in
      List.iter
        (fun ((dd : dat_dist), d_sd, tok) ->
          Halo.exchange_finish t.comm d_sd.halo tok dd.locals;
          dd.halo_fresh <- true)
        tokens;
      xfer := !xfer +. (Unix.gettimeofday () -. t_wait);
      (* The simulator executes ranks back to back, so overlap is credited
         analytically, matching the cluster model: of the exchange's wall
         time, the part covered by core compute is hidden; only the excess is
         exposed. *)
      let hidden = Float.min !xfer core_seconds in
      exposed := !exposed +. (!xfer -. hidden);
      overlap_seconds := !overlap_seconds +. hidden
    end;
    for r = 0 to t.n_ranks - 1 do
      if traced then Obs.begin_span ~lane:r ~cat:Cat.Loop "boundary";
      run_subset r split.(r).boundary;
      Obs_counters.add Obs.boundary_elements (Array.length split.(r).boundary);
      if traced then Obs.end_span ~lane:r ()
    done;
    for r = 0 to t.n_ranks - 1 do
      if Exec_common.has_globals execs.(r) then begin
        if traced then Obs.begin_span ~lane:r ~cat:Cat.Reduce "merge_globals";
        Exec_common.merge_globals args frames.(r).Exec_common.bufs;
        if traced then Obs.end_span ~lane:r ()
      end
    done
  end;
  (* Post-loop: reduce increments onto owners, invalidate written halos,
     account for global reductions. *)
  List.iter (timed (reduce_halo t)) inc_dats;
  List.iter
    (function
      | Arg_dat { dat; access; _ } ->
        if Access.writes access then (dat_dist t dat).halo_fresh <- false
      | Arg_gbl { access; _ } ->
        (* Executed in-process; count the collective for the network model. *)
        if access <> Access.Read then
          Comm.count_reduction t.comm)
    args;
  halo_seconds := !halo_seconds +. !exposed

(* Per-rank decomposition summary: owned/halo element counts per set and the
   exchange volumes — the partitioning diagnostics of op_diagnostic. *)
let report t env =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "partition: %d ranks\n" t.n_ranks);
  List.iter
    (fun set ->
      let sd = set_dist t set in
      let halo_total =
        Array.fold_left
          (fun acc l2g -> acc + Array.length l2g)
          0 sd.l2g
        - Array.fold_left ( + ) 0 sd.n_owned
      in
      let max_owned = Array.fold_left max 0 sd.n_owned in
      let min_owned = Array.fold_left min max_int sd.n_owned in
      Buffer.add_string buf
        (Printf.sprintf
           "  set %-12s size %7d: owned %d..%d per rank, %d halo copies, exchange \
            volume %d (max %d peers)\n"
           set.set_name set.set_size min_owned max_owned halo_total
           (Halo.volume sd.halo) (Halo.max_peers sd.halo)))
    (sets env);
  Buffer.contents buf

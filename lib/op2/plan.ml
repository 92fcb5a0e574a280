(* Run-time execution plans.

   Any loop with indirect increments or writes has potential data races under
   shared-memory execution.  Following the paper (Section II.B), the plan
   breaks the iteration set into blocks and colours at two levels:

   - blocks are coloured so same-colour blocks touch disjoint indirect
     elements (they can be run by different OpenMP threads / CUDA thread
     blocks);
   - elements are coloured so the GPU backend can order its scatters within
     a block.

   Plans depend only on the mesh connectivity, so they are built once per
   (loop, argument signature) and cached — [signature] is the cache key. *)

module Access = Am_core.Access
module Obs = Am_obs.Obs
module Counters = Am_obs.Counters
module Cat = Am_obs.Tracer
open Types

type t = {
  blocks : Am_mesh.Coloring.blocks;
  block_coloring : Am_mesh.Coloring.t;
  elem_coloring : Am_mesh.Coloring.t option; (* None when the loop is conflict-free *)
  n_conflict_targets : int;
}

let has_conflicts t = t.elem_coloring <> None

(* Indirect arguments whose access can race: Inc always, Write/Rw because two
   iteration elements may map to the same target. *)
let conflict_args args =
  List.filter_map
    (function
      | Arg_dat { dat; map = Some (m, k); access } when Access.writes access ->
        Some (dat, m, k)
      | Arg_dat _ | Arg_gbl _ -> None)
    args

(* Distinct target dats get disjoint address arenas so that conflicts on
   different datasets are kept separate. [n_elems_of] resolves the element
   count — rank-local in distributed contexts. *)
let build_arena ~n_elems_of conflicts =
  let offsets = Hashtbl.create 8 in
  let total = ref 0 in
  List.iter
    (fun (dat, _, _) ->
      if not (Hashtbl.mem offsets dat.dat_id) then begin
        Hashtbl.add offsets dat.dat_id !total;
        total := !total + n_elems_of dat
      end)
    conflicts;
  (offsets, !total)

let signature ~name ~iter_set ~block_size args =
  let arg_sig = function
    | Arg_dat { dat; map = None; access } ->
      Printf.sprintf "d%d:%s" dat.dat_id (Access.to_string access)
    | Arg_dat { dat; map = Some (m, k); access } ->
      Printf.sprintf "d%d@m%d.%d:%s" dat.dat_id m.map_id k (Access.to_string access)
    | Arg_gbl { buf; access; _ } ->
      Printf.sprintf "g%d:%s" (Array.length buf) (Access.to_string access)
  in
  Printf.sprintf "%s/s%d/b%d/%s" name iter_set.set_id block_size
    (String.concat "," (List.map arg_sig args))

(* [build ~set_size ~block_size args] plans over [0, set_size) with the
   global map tables; [?resolvers] substitutes rank-local data and map
   tables so the distributed backend can plan each rank's owned range. *)
let build ?resolvers ~set_size ~block_size args =
  let resolve_dat, resolve_map =
    match resolvers with
    | None -> ((fun d -> dat_n_elems d), fun (m : map_t) -> m.values)
    | Some r ->
      ( (fun d -> snd (r.Exec_common.resolve_dat d)),
        fun m -> r.Exec_common.resolve_map m )
  in
  let n = set_size in
  let blocks = Am_mesh.Coloring.make_blocks ~n_items:n ~block_size in
  let conflicts = conflict_args args in
  if conflicts = [] then
    {
      blocks;
      block_coloring =
        (* All blocks share colour 0: they are mutually independent. *)
        {
          Am_mesh.Coloring.colors = Array.make blocks.Am_mesh.Coloring.n_blocks 0;
          n_colors = (if blocks.Am_mesh.Coloring.n_blocks > 0 then 1 else 0);
          by_color =
            (if blocks.Am_mesh.Coloring.n_blocks > 0 then
               [| Array.init blocks.Am_mesh.Coloring.n_blocks Fun.id |]
             else [||]);
        };
      elem_coloring = None;
      n_conflict_targets = 0;
    }
  else begin
    let offsets, n_targets = build_arena ~n_elems_of:resolve_dat conflicts in
    let targets e f =
      List.iter
        (fun (dat, m, k) ->
          let base = Hashtbl.find offsets dat.dat_id in
          f (base + (resolve_map m).((e * m.arity) + k)))
        conflicts
    in
    let block_coloring = Am_mesh.Coloring.color_blocks ~blocks ~n_targets ~targets in
    let elem_coloring = Am_mesh.Coloring.color ~n_items:n ~n_targets ~targets in
    { blocks; block_coloring; elem_coloring = Some elem_coloring;
      n_conflict_targets = n_targets }
  end

(* ---- Colouring validation -------------------------------------------- *)

(* A machine-checked proof obligation over a built plan: no colour round may
   contain two iteration elements that indirectly write the same target
   element.  The shared backend runs same-coloured blocks concurrently and
   the vec/cuda backends scatter same-coloured elements as a batch, so a
   counterexample here is a real data race on those schedules.  The check
   recomputes the conflict closure from the live map tables (not from
   whatever the plan builder saw), so it also catches plans gone stale. *)

type violation = {
  v_level : [ `Block_colour | `Element_colour ];
  v_colour : int;
  v_elem_a : int; (* iteration elements (witness pair) *)
  v_elem_b : int;
  v_target : int; (* shared arena slot both elements write *)
}

let violation_to_string ~name v =
  Printf.sprintf
    "plan %s: %s colour %d schedules elements %d and %d concurrently, both \
     writing conflict target %d"
    name
    (match v.v_level with
    | `Block_colour -> "block"
    | `Element_colour -> "element")
    v.v_colour v.v_elem_a v.v_elem_b v.v_target

(* [validate ?resolvers ~set_size args plan] returns every witness pair (or
   [] — the plan is proven race-free for its schedules). *)
let validate ?resolvers ~set_size args (plan : t) =
  let resolve_dat, resolve_map =
    match resolvers with
    | None -> ((fun d -> dat_n_elems d), fun (m : map_t) -> m.values)
    | Some r ->
      ( (fun d -> snd (r.Exec_common.resolve_dat d)),
        fun m -> r.Exec_common.resolve_map m )
  in
  let conflicts = conflict_args args in
  if conflicts = [] then []
  else begin
    let offsets, n_targets = build_arena ~n_elems_of:resolve_dat conflicts in
    let targets e f =
      List.iter
        (fun (dat, m, k) ->
          let base = Hashtbl.find offsets dat.dat_id in
          f (base + (resolve_map m).((e * m.arity) + k)))
        conflicts
    in
    let violations = ref [] in
    (* Element level (vec/cuda scatter rounds): within one colour, a target
       may be touched by at most one element.  The same element touching a
       target twice (e.g. an edge with both endpoints equal) is serialised
       inside the kernel call and is not a race. *)
    (match plan.elem_coloring with
    | None -> ()
    | Some ec ->
      let round = Array.make n_targets (-1) in
      let owner = Array.make n_targets (-1) in
      Array.iteri
        (fun c elems ->
          Array.iter
            (fun e ->
              if e < set_size then
                targets e (fun t ->
                    if round.(t) = c && owner.(t) <> e then
                      violations :=
                        {
                          v_level = `Element_colour;
                          v_colour = c;
                          v_elem_a = owner.(t);
                          v_elem_b = e;
                          v_target = t;
                        }
                        :: !violations
                    else begin
                      round.(t) <- c;
                      owner.(t) <- e
                    end))
            elems)
        ec.Am_mesh.Coloring.by_color);
    (* Block level (shared backend): same-coloured blocks run on different
       workers, so a target may be touched from at most one block per
       colour.  Two elements of the same block sharing a target is fine —
       one worker runs a block sequentially. *)
    let round = Array.make n_targets (-1) in
    let owner_block = Array.make n_targets (-1) in
    let owner_elem = Array.make n_targets (-1) in
    Array.iteri
      (fun c block_ids ->
        Array.iter
          (fun b ->
            let lo, hi = Am_mesh.Coloring.block_range plan.blocks b in
            for e = lo to min (hi - 1) (set_size - 1) do
              targets e (fun t ->
                  if round.(t) = c && owner_block.(t) <> b then
                    violations :=
                      {
                        v_level = `Block_colour;
                        v_colour = c;
                        v_elem_a = owner_elem.(t);
                        v_elem_b = e;
                        v_target = t;
                      }
                      :: !violations
                  else begin
                    round.(t) <- c;
                    owner_block.(t) <- b;
                    owner_elem.(t) <- e
                  end)
            done)
          block_ids)
      plan.block_coloring.Am_mesh.Coloring.by_color;
    List.rev !violations
  end

(* ---- Plan + executor cache ------------------------------------------- *)

(* One cache entry per (loop, argument signature, block size).  The plan is
   lazy — the sequential backend resolves entries without ever building a
   colouring — and the compiled executor rides along so every call site with
   the same signature shares one specialisation.  The executor is checked
   for freshness against the live arguments on every use ([compiled_matches]
   is a handful of pointer compares) because [update]/[convert_layout]/SoA
   conversion replace dataset arrays wholesale. *)
type entry = {
  entry_name : string; (* loop name, for plan/compile trace spans *)
  entry_plan : t Lazy.t;
  mutable entry_exec : Exec_common.compiled option;
}

type cache = {
  table : (string, entry) Hashtbl.t;
  mutable generation : int; (* bumped on invalidation; handles compare it *)
}

let make_cache () = { table = Hashtbl.create 32; generation = 0 }

(* Drop every plan and executor (mesh renumbering rewrites map tables). *)
let invalidate cache =
  Hashtbl.reset cache.table;
  cache.generation <- cache.generation + 1

let count_build (p : t) =
  Counters.incr Obs.plan_builds;
  Counters.add Obs.plan_colours p.block_coloring.Am_mesh.Coloring.n_colors;
  p

let find_entry cache ~name ~iter_set ~block_size args =
  let key = signature ~name ~iter_set ~block_size args in
  match Hashtbl.find_opt cache.table key with
  | Some e ->
    Counters.incr Obs.plan_hits;
    e
  | None ->
    Counters.incr Obs.plan_misses;
    let e =
      {
        entry_name = name;
        entry_plan =
          lazy
            (Obs.span ~cat:Cat.Plan name (fun () ->
                 count_build (build ~set_size:iter_set.set_size ~block_size args)));
        entry_exec = None;
      }
    in
    Hashtbl.add cache.table key e;
    e

let entry_exec entry args =
  match entry.entry_exec with
  | Some c when Exec_common.compiled_matches c args ->
    Counters.incr Obs.exec_hits;
    c
  | Some _ | None ->
    Counters.incr Obs.exec_misses;
    let c = Obs.span ~cat:Cat.Plan entry.entry_name (fun () -> Exec_common.compile args) in
    entry.entry_exec <- Some c;
    c

let find_or_build cache ~name ~iter_set ~block_size args =
  Lazy.force (find_entry cache ~name ~iter_set ~block_size args).entry_plan

(* ---- Loop handles ------------------------------------------------------ *)

(* A handle is per-call-site memoisation of the cache lookup: once resolved,
   re-invoking the loop with arguments of the same shape
   ([Types.same_shape]: same dats, maps and slots, access descriptors and
   global lengths) skips the [Printf.sprintf] signature entirely —
   validity is a generation check plus pointer compares on the argument
   list.  Resolution ignores the loop name, so a handle two loops share
   serves both from one entry; the context's call-site table keeps their
   footprints apart. *)
type handle = {
  mutable h_entry : entry option;
  mutable h_block_size : int;
  mutable h_set_id : int;
  mutable h_args : arg list;
  mutable h_generation : int;
}

let make_handle () =
  { h_entry = None; h_block_size = -1; h_set_id = -1; h_args = []; h_generation = -1 }

let resolve cache handle ~name ~iter_set ~block_size args =
  let entry =
    match handle.h_entry with
    | Some e
      when handle.h_generation = cache.generation
           && handle.h_block_size = block_size
           && handle.h_set_id = iter_set.set_id
           && same_shape handle.h_args args ->
      Counters.incr Obs.plan_hits;
      e
    | Some _ | None ->
      let e = find_entry cache ~name ~iter_set ~block_size args in
      handle.h_entry <- Some e;
      handle.h_generation <- cache.generation;
      handle.h_block_size <- block_size;
      handle.h_set_id <- iter_set.set_id;
      handle.h_args <- args;
      e
  in
  (entry, entry_exec entry args)

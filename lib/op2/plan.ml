(* Run-time execution plans.

   Any loop with indirect increments or writes has potential data races under
   shared-memory execution.  Following the paper (Section II.B), the plan
   breaks the iteration set into blocks and colours at two levels:

   - blocks are coloured so same-colour blocks touch disjoint indirect
     elements (they can be run by different OpenMP threads / CUDA thread
     blocks);
   - elements are coloured so the GPU backend can order its scatters within
     a block.

   Plans depend only on the mesh connectivity, so a call site builds its
   plan once and keeps it on its loop handle, beside its compiled executor
   ([handle] below). *)

module Access = Am_core.Access
module Obs = Am_obs.Obs
module Counters = Am_obs.Counters
module Cat = Am_obs.Tracer
open Types

type t = {
  blocks : Am_mesh.Coloring.blocks;
  block_coloring : Am_mesh.Coloring.t;
  elem_coloring : Am_mesh.Coloring.t option; (* None when the loop is conflict-free *)
}

let has_conflicts t = t.elem_coloring <> None

(* One indirectly written argument of a loop's conflict closure: the
   arena base of its dataset and the map table, arity and slot it writes
   through. *)
type conflict = { base : int; values : int array; arity : int; slot : int }

(* The arena slot element [e] writes through [c]. *)
let[@inline] target c e = c.base + c.values.((e * c.arity) + c.slot)

(* The conflict closure of [args], which [build] colours and [validate]
   checks: the indirect arguments whose access can race (Inc always,
   Write/Rw because two iteration elements may map to the same target).
   Returns the number of arena slots and the conflicts, or [None] for a
   conflict-free loop.  Distinct target dats get disjoint arenas, so that
   conflicts on different datasets are kept separate; [resolvers]
   substitutes rank-local data and map tables in distributed contexts. *)
let conflicts ~resolvers args =
  let offsets = Hashtbl.create 8 and total = ref 0 in
  let base dat =
    match Hashtbl.find_opt offsets dat.dat_id with
    | Some base -> base
    | None ->
      let base = !total in
      Hashtbl.add offsets dat.dat_id base;
      total := base + snd (resolvers.Exec_common.resolve_dat dat);
      base
  in
  match
    List.filter_map
      (function
        | Arg_dat { dat; map = Some (m, k); access } when Access.writes access ->
          Some
            {
              base = base dat;
              values = resolvers.Exec_common.resolve_map m;
              arity = m.arity;
              slot = k;
            }
        | Arg_dat _ | Arg_gbl _ -> None)
      args
  with
  | [] -> None
  | cs -> Some (!total, Array.of_list cs)

(* [build ~set_size ~block_size args] plans over [0, set_size) with the
   global map tables; [?resolvers] substitutes rank-local data and map
   tables so the distributed backend can plan each rank's owned range. *)
let build ?(resolvers = Exec_common.global_resolvers) ~set_size ~block_size args =
  let blocks = Am_mesh.Coloring.make_blocks ~n_items:set_size ~block_size in
  match conflicts ~resolvers args with
  | None ->
    let n_blocks = blocks.Am_mesh.Coloring.n_blocks in
    {
      blocks;
      block_coloring =
        (* All blocks share colour 0: they are mutually independent. *)
        {
          Am_mesh.Coloring.colors = Array.make n_blocks 0;
          n_colors = (if n_blocks > 0 then 1 else 0);
          by_color = (if n_blocks > 0 then [| Array.init n_blocks Fun.id |] else [||]);
        };
      elem_coloring = None;
    }
  | Some (n_targets, cs) ->
    let targets e f = Array.iter (fun c -> f (target c e)) cs in
    {
      blocks;
      block_coloring = Am_mesh.Coloring.color_blocks ~blocks ~n_targets ~targets;
      elem_coloring = Some (Am_mesh.Coloring.color ~n_items:set_size ~n_targets ~targets);
    }

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
   [] — the plan is proven race-free for its schedules).  It walks the
   colours, elements and conflicts with loops: no element allocates. *)
let validate ?(resolvers = Exec_common.global_resolvers) ~set_size args (plan : t) =
  match conflicts ~resolvers args with
  | None -> []
  | Some (n_targets, cs) ->
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
      let by_color = ec.Am_mesh.Coloring.by_color in
      for c = 0 to Array.length by_color - 1 do
        let elems = by_color.(c) in
        for i = 0 to Array.length elems - 1 do
          let e = elems.(i) in
          if e < set_size then
            for j = 0 to Array.length cs - 1 do
              let t = target cs.(j) e in
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
              end
            done
        done
      done);
    (* Block level (shared backend): same-coloured blocks run on different
       workers, so a target may be touched from at most one block per
       colour.  Two elements of the same block sharing a target is fine —
       one worker runs a block sequentially. *)
    let round = Array.make n_targets (-1) in
    let owner_block = Array.make n_targets (-1) in
    let owner_elem = Array.make n_targets (-1) in
    let by_color = plan.block_coloring.Am_mesh.Coloring.by_color in
    for c = 0 to Array.length by_color - 1 do
      let block_ids = by_color.(c) in
      for i = 0 to Array.length block_ids - 1 do
        let b = block_ids.(i) in
        let lo, hi = Am_mesh.Coloring.block_range plan.blocks b in
        for e = lo to min (hi - 1) (set_size - 1) do
          for j = 0 to Array.length cs - 1 do
            let t = target cs.(j) e in
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
            end
          done
        done
      done
    done;
    List.rev !violations

(* ---- Call-site state ---------------------------------------------------- *)

(* A partitioned call's per-rank state, built by [Dist.par_loop] and kept
   on the call's handle while the iteration set and the arguments' shape
   hold: the rank executors, each rank engine's plan once built, and the
   argument facts the call derives from its shape. *)
type ranks = {
  r_set_id : int;
  r_args : arg list;
  r_execs : Exec_common.compiled array;
  r_plans : t option array;
  r_read_dats : dat list; (* indirectly read, each once *)
  r_inc_dats : dat list; (* indirectly incremented, each once *)
}

(* One call site's state ([Op2.handle]): its compiled executor, the plan
   built over the executor's map tables, and its partitioned state. *)
type handle = {
  mutable h_exec : Exec_common.compiled option;
  mutable h_plan : t option;
  mutable h_ranks : ranks option;
}

let make_handle () = { h_exec = None; h_plan = None; h_ranks = None }

(* The executor of a call: the handle's while it still addresses the
   arguments' arrays ([Exec_common.compiled_matches], a pointer compare per
   argument), compiled over them otherwise.  A recompile drops the
   handle's plan, which was built over the tables it replaces:
   renumbering replaces every map table and dataset array, and
   [convert_layout] and the SoA conversion replace dataset arrays. *)
let executor h ~name args =
  match h.h_exec with
  | Some c when Exec_common.compiled_matches c args ->
    Counters.incr Obs.exec_hits;
    c
  | Some _ | None ->
    Counters.incr Obs.exec_misses;
    let c = Obs.span ~cat:Cat.Plan name (fun () -> Exec_common.compile args) in
    h.h_exec <- Some c;
    h.h_plan <- None;
    c

(* A new plan, counted and traced under the loop's name. *)
let make ?resolvers ~name ~set_size ~block_size args =
  Obs.span ~cat:Cat.Plan name (fun () ->
      let p = build ?resolvers ~set_size ~block_size args in
      Counters.incr Obs.plan_builds;
      Counters.add Obs.plan_colours p.block_coloring.Am_mesh.Coloring.n_colors;
      p)

let fits p ~set_size ~block_size =
  p.blocks.Am_mesh.Coloring.n_items = set_size
  && p.blocks.Am_mesh.Coloring.block_size = block_size

(* The plan of a call over [set_size] elements in [block_size]-element
   blocks: the handle's while it was built for them, built otherwise.
   Resolve the call's [executor] first: its check is what proves the
   handle's plan built over the live map tables. *)
let plan h ~name ~set_size ~block_size args =
  match h.h_plan with
  | Some p when fits p ~set_size ~block_size -> p
  | Some _ | None ->
    let p = make ~name ~set_size ~block_size args in
    h.h_plan <- Some p;
    p

(* GPU execution simulator.

   Executes a parallel loop with the exact control structure OP2's generated
   CUDA code has (Fig 7 of the paper): the iteration set is broken into
   thread blocks (the plan's blocks); blocks of one colour are "launched"
   together; inside a block, elements run ordered by their element colour so
   scatters of potentially conflicting increments are serialised just as the
   generated kernels serialise them.

   The three memory strategies of Fig 7 are faithful code paths:

   - [Global_aos]  (NOSOA):       kernels address global memory directly
                                  in array-of-structures layout (a
                                  generated kernel's element walker in
                                  place, one element per call, others
                                  through per-element copies);
   - [Global_soa]  (SOA):         datasets are auto-converted to structure-
                                  of-arrays on first touch, and accessed with
                                  the [coord_stride] indexing of the paper;
   - [Staged]      (STAGE_NOSOA): indirect data is staged block-by-block into
                                  a simulated shared-memory scratchpad, the
                                  user function works on the scratchpad, and
                                  results are written back once per block.

   Execution is sequential (we have no GPU), so all three strategies must
   produce identical results to the sequential backend — which the test
   suite asserts.  Their *performance* differences are reproduced by the
   analytic device model in [lib/perfmodel]. *)

module Access = Am_core.Access
module Coloring = Am_mesh.Coloring
open Types

type strategy = Global_aos | Global_soa | Staged

type config = { block_size : int; strategy : strategy }

let default_config = { block_size = 128; strategy = Staged }

let strategy_to_string = function
  | Global_aos -> "NOSOA"
  | Global_soa -> "SOA"
  | Staged -> "STAGE_NOSOA"

(* Convert every dataset argument to SoA in place (the paper's automatic
   AoS->SoA conversion, applied by the code generator). *)
let ensure_soa args =
  List.iter
    (function
      | Arg_dat { dat; _ } when dat.layout = Aos ->
        dat.data <-
          convert_array ~from_layout:Aos ~to_layout:Soa ~n:(dat_n_elems dat)
            ~dim:dat.dim dat.data;
        dat.layout <- Soa
      | Arg_dat _ | Arg_gbl _ -> ())
    args

(* Iterate the elements of one block grouped by element colour (ascending),
   mirroring the intra-block colour loop of the generated kernels. *)
let iter_block_by_color plan ~lo ~hi f =
  match plan.Plan.elem_coloring with
  | None ->
    for e = lo to hi - 1 do
      f e
    done
  | Some ec ->
    for c = 0 to ec.Coloring.n_colors - 1 do
      for e = lo to hi - 1 do
        if ec.Coloring.colors.(e) = c then f e
      done
    done

(* The same elements in the same order through [frame]: each maximal run
   of consecutive ids of one colour as one [Exec_common.run_range], so a
   walker frame's walker is called once per run. *)
let run_block_by_color plan ~lo ~hi frame =
  match plan.Plan.elem_coloring with
  | None -> Exec_common.run_range frame lo hi
  | Some ec ->
    for c = 0 to ec.Coloring.n_colors - 1 do
      let e = ref lo in
      while !e < hi do
        if ec.Coloring.colors.(!e) <> c then incr e
        else begin
          let first = !e in
          while !e < hi && ec.Coloring.colors.(!e) = c do
            incr e
          done;
          Exec_common.run_range frame first !e
        end
      done
    done

(* ---- Staged execution ---------------------------------------------- *)

(* Per-block staging of one indirectly accessed dataset: the distinct
   referenced elements, a translation table, and the scratchpad itself. *)
type stage = {
  dat_id : int;
  dim : int;
  scratch : float array; (* n_distinct * dim, AoS like CUDA shared memory *)
  distinct : int array; (* stage slot -> dataset element *)
  reads_any : bool; (* gathered on entry, written back as copy *)
  writes_any : bool;
  incs_only : bool; (* zero-initialised, written back as add *)
}

(* Group the indirect dat arguments of a loop by dataset: one scratchpad per
   dataset per block, shared by all maps reaching it. *)
let build_stages args ~lo ~hi =
  let by_dat = Hashtbl.create 4 in
  List.iter
    (function
      | Arg_dat { dat; map = Some (m, k); access } ->
        let reads, writes, incs =
          (Access.reads access || access = Access.Write, Access.writes access,
           access = Access.Inc)
        in
        let entry =
          match Hashtbl.find_opt by_dat dat.dat_id with
          | Some e -> e
          | None ->
            let e = (dat, ref [], ref false, ref false, ref true) in
            Hashtbl.add by_dat dat.dat_id e;
            e
        in
        let _, refs, r_any, w_any, i_only = entry in
        refs := (m, k) :: !refs;
        if reads then r_any := true;
        if writes then w_any := true;
        if not incs then i_only := false
      | Arg_dat { map = None; _ } | Arg_gbl _ -> ())
    args;
  let stages = Hashtbl.create 4 in
  Hashtbl.iter
    (fun dat_id ((dat : dat), refs, r_any, w_any, i_only) ->
      let slot_of = Hashtbl.create 16 in
      let distinct = ref [] in
      let count = ref 0 in
      List.iter
        (fun ((m : map_t), k) ->
          for e = lo to hi - 1 do
            let target = m.values.((e * m.arity) + k) in
            if not (Hashtbl.mem slot_of target) then begin
              Hashtbl.add slot_of target !count;
              distinct := target :: !distinct;
              incr count
            end
          done)
        !refs;
      let distinct = Array.of_list (List.rev !distinct) in
      let n = Array.length distinct in
      let scratch = Array.make (n * dat.dim) 0.0 in
      let stage =
        {
          dat_id;
          dim = dat.dim;
          scratch;
          distinct;
          reads_any = !r_any;
          writes_any = !w_any;
          incs_only = !i_only;
        }
      in
      (* Gather: memory -> scratchpad (unless the dataset is increment-only,
         which starts from zero and is written back with an add). *)
      if stage.reads_any && not stage.incs_only then begin
        let n_elems = dat_n_elems dat in
        Array.iteri
          (fun slot elem ->
            for d = 0 to dat.dim - 1 do
              scratch.((slot * dat.dim) + d) <-
                dat.data.(value_index dat.layout ~n:n_elems ~dim:dat.dim ~elem ~comp:d)
            done)
          distinct
      end;
      Hashtbl.add stages dat_id (stage, slot_of, dat))
    by_dat;
  stages

let write_back_stages stages =
  Hashtbl.iter
    (fun _ (stage, _, (dat : dat)) ->
      if stage.writes_any then begin
        let n_elems = dat_n_elems dat in
        Array.iteri
          (fun slot elem ->
            for d = 0 to stage.dim - 1 do
              let j = value_index dat.layout ~n:n_elems ~dim:stage.dim ~elem ~comp:d in
              let v = stage.scratch.((slot * stage.dim) + d) in
              if stage.incs_only then dat.data.(j) <- dat.data.(j) +. v
              else dat.data.(j) <- v
            done)
          stage.distinct
      end)
    stages

(* Per-element staged runner: direct args hit global memory through their
   compiled gather/scatter, indirect args hit the scratchpad through the
   translation table. *)
let run_element_staged args compiled frame stages e =
  let buffers = frame.Exec_common.bufs in
  let direct i f =
    match compiled.Exec_common.args.(i) with
    | Exec_common.C_dat { gather; scatter; _ } -> f gather scatter
    | Exec_common.C_gbl _ -> ()
  in
  (* gather *)
  List.iteri
    (fun i arg ->
      match arg with
      | Arg_gbl _ -> ()
      | Arg_dat { map = None; _ } ->
        (* [gather] zero-fills Inc buffers and copies otherwise. *)
        direct i (fun gather _ -> gather buffers.(i) e)
      | Arg_dat { dat; map = Some (m, k); access } -> (
        let stage, slot_of, _ = Hashtbl.find stages dat.dat_id in
        let slot = Hashtbl.find slot_of m.values.((e * m.arity) + k) in
        match access with
        | Access.Inc -> Array.fill buffers.(i) 0 dat.dim 0.0
        | Access.Read | Access.Rw | Access.Write ->
          Array.blit stage.scratch (slot * dat.dim) buffers.(i) 0 dat.dim
        | Access.Min | Access.Max -> assert false))
    args;
  Exec_common.call frame e;
  (* scatter *)
  List.iteri
    (fun i arg ->
      match arg with
      | Arg_gbl _ -> ()
      | Arg_dat { map = None; _ } -> direct i (fun _ scatter -> scatter buffers.(i) e)
      | Arg_dat { dat; map = Some (m, k); access } -> (
        let stage, slot_of, _ = Hashtbl.find stages dat.dat_id in
        let slot = Hashtbl.find slot_of m.values.((e * m.arity) + k) in
        match access with
        | Access.Read -> ()
        | Access.Write | Access.Rw ->
          Array.blit buffers.(i) 0 stage.scratch (slot * dat.dim) dat.dim
        | Access.Inc ->
          for d = 0 to dat.dim - 1 do
            let j = (slot * dat.dim) + d in
            stage.scratch.(j) <- stage.scratch.(j) +. buffers.(i).(d)
          done
        | Access.Min | Access.Max -> assert false))
    args

(* ---- Entry point ---------------------------------------------------- *)

let run ~compiled config plan ~set_size ~args ~kernel =
  ignore set_size;
  (* SoA conversion replaces [dat.data], so [compiled] must have been
     compiled after [ensure_soa] ([Op2] converts before resolving). *)
  if config.strategy = Global_soa then ensure_soa args;
  let has_globals = Exec_common.has_globals compiled in
  let blocks = plan.Plan.blocks in
  let traced = Am_obs.Obs.tracing () in
  Array.iteri
    (fun colour same_color_blocks ->
      (* Blocks of one colour are one "kernel launch"; we run them in order
         since the simulator is sequential. *)
      if traced then
        Am_obs.Obs.begin_span ~cat:Am_obs.Tracer.Colour_round
          (Am_obs.Obs.colour_name colour);
      Array.iter
        (fun block ->
          let lo, hi = Coloring.block_range blocks block in
          (* The scratchpad strategy stages every argument; the global
             strategies run a walker frame element by element where the
             arguments allow it. *)
          let frame =
            match config.strategy with
            | Global_aos | Global_soa -> Exec_common.make_frame compiled kernel args
            | Staged -> Exec_common.staging_frame compiled kernel args
          in
          (match config.strategy with
          | Global_aos | Global_soa -> run_block_by_color plan ~lo ~hi frame
          | Staged ->
            let stages = build_stages args ~lo ~hi in
            iter_block_by_color plan ~lo ~hi (run_element_staged args compiled frame stages);
            write_back_stages stages);
          if has_globals then Exec_common.merge_globals args frame.Exec_common.bufs)
        same_color_blocks;
      if traced then Am_obs.Obs.end_span ())
    plan.Plan.block_coloring.Coloring.by_color

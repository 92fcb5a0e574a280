(* Shared-memory ("OpenMP") backend on the domain pool.

   Conflict-free loops are chunked dynamically across the pool.  Loops with
   indirect writes execute the plan's block schedule: colours run one after
   another (a barrier between colours), blocks of the same colour run
   concurrently — exactly the OpenMP execution strategy of the paper.

   Each chunk and each block is one element range, run through
   [Exec_common.run_range] (a walker frame's element walker, or the
   staging point walker).  Frames (staging buffers and global-reduction
   accumulators) are worker-local and pooled: each worker builds one frame
   on its first chunk and keeps it for the whole loop, including across
   colour rounds.
   Global reductions are therefore lock-free during execution and combined
   once at the end by a tree merge — there is no per-chunk mutex, and loops
   without global arguments skip the reduction machinery entirely. *)

module Coloring = Am_mesh.Coloring

let run ~compiled pool plan ~set_size ~args ~kernel =
  let has_globals = Exec_common.has_globals compiled in
  if not (Plan.has_conflicts plan) then begin
    let states =
      Am_taskpool.Pool.parallel_for_local pool ~lo:0 ~hi:set_size
        ~local:(fun () -> Exec_common.make_frame compiled kernel args)
        ~body:(fun frame lo hi -> Exec_common.run_range frame lo hi)
    in
    if has_globals then Exec_common.merge_worker_globals compiled args states
  end
  else begin
    let blocks = plan.Plan.blocks in
    (* Free-list of frames handed back between colour rounds, so a worker
       joining a later round reuses a frame built earlier instead of growing
       the pool.  Accumulators carry over safely: they only ever accumulate,
       and each distinct frame is merged exactly once at the end. *)
    let free = Atomic.make [] in
    let take () =
      let rec pop () =
        match Atomic.get free with
        | [] -> Exec_common.make_frame compiled kernel args
        | b :: rest as old ->
          if Atomic.compare_and_set free old rest then b else pop ()
      in
      pop ()
    in
    let give_back states =
      List.iter
        (fun b ->
          let rec push () =
            let old = Atomic.get free in
            if not (Atomic.compare_and_set free old (b :: old)) then push ()
          in
          push ())
        states
    in
    let all_states = ref [] in
    let traced = Am_obs.Obs.tracing () in
    Array.iteri
      (fun colour same_color_blocks ->
        if traced then
          Am_obs.Obs.begin_span ~cat:Am_obs.Tracer.Colour_round
            (Am_obs.Obs.colour_name colour);
        let states =
          Am_taskpool.Pool.parallel_iter_indices_local pool same_color_blocks
            ~local:take
            ~body:(fun frame block ->
              let lo, hi = Coloring.block_range blocks block in
              Exec_common.run_range frame lo hi)
        in
        if has_globals then
          List.iter
            (fun b ->
              if not (List.memq b !all_states) then all_states := b :: !all_states)
            states;
        give_back states;
        if traced then Am_obs.Obs.end_span ())
      plan.Plan.block_coloring.Coloring.by_color;
    if has_globals then Exec_common.merge_worker_globals compiled args !all_states
  end

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
   colour rounds.  A loop that reduces a global starts the frame's
   accumulators afresh for every chunk or block and keeps a copy of them
   as that range's partial, keyed by its first element or block number;
   after the join the partials fold into the call's buffers in key order
   ([Am_loop.Loop.merge_in_order]), so a result depends only on the pool
   size (which sets the chunks), never on which worker grabbed which
   range.  Loops without a reduced global skip the partials entirely. *)

module Coloring = Am_mesh.Coloring

let run ~compiled pool plan ~set_size ~args ~kernel =
  let reduces = Exec_common.reduces compiled in
  let parts = Atomic.make [] in
  (* Elements [lo, hi) on [frame]: with a reduced global, from fresh
     accumulators, leaving the partial of range [key]. *)
  let range frame key lo hi =
    if reduces then begin
      Exec_common.restart_globals frame args;
      Exec_common.run_range frame lo hi;
      Am_loop.Loop.add_partial parts key (Exec_common.partial frame)
    end
    else Exec_common.run_range frame lo hi
  in
  (if not (Plan.has_conflicts plan) then
     ignore
       (Am_taskpool.Pool.parallel_for_local pool ~lo:0 ~hi:set_size
          ~local:(fun () -> Exec_common.make_frame compiled kernel args)
          ~body:(fun frame lo hi -> range frame lo lo hi))
   else begin
     let blocks = plan.Plan.blocks in
     (* Free-list of frames handed back between colour rounds, so a worker
        joining a later round reuses a frame built earlier instead of
        growing the pool. *)
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
               range frame block lo hi)
         in
         give_back states;
         if traced then Am_obs.Obs.end_span ())
       plan.Plan.block_coloring.Coloring.by_color
   end);
  if reduces then Am_loop.Loop.merge_in_order parts ~finish:(Exec_common.merge_globals args)

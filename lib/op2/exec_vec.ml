(* Vectorised CPU backend.

   Executes the structure of OP2's generated vectorised code (Reguly et
   al., "Vectorizing unstructured mesh computations for manycore
   architectures", cited as [15] by the paper): elements are processed in
   packs of [width] lanes with three distinct phases per pack —

     1. packed gather: staging buffers of all lanes are filled first (the
        compiler-vectorisable strided/gather loads);
     2. compute: the user function runs on each lane (the `#pragma omp
        simd` body of the generated C; OCaml has no SIMD, so lanes run
        sequentially — the *structure* is what this backend reproduces and
        what the codegen target emits);
     3. packed scatter: all lanes write back.

   Because every lane's gather happens before any lane's scatter, two lanes
   of one pack must not touch the same indirect element.  Exactly as in the
   generated code, loops with indirect writes therefore iterate colour by
   colour, packing only same-colour elements (which share no target by
   construction of the plan's element colouring).  A walker frame (see
   [Exec_common]) gathers and scatters nothing: each lane runs the element
   walker over its element in phase 2, in place, and the same colouring
   keeps its writes on targets no other lane of the pack touches.  Unless
   a global is reduced (each lane keeps its own accumulator), one walker
   frame runs every lane: a pack's elements in lane order, the walker
   called once per maximal run of consecutive ids. *)

module Access = Am_core.Access
module Coloring = Am_mesh.Coloring

type config = { width : int }

let default_config = { width = 8 }

let run ~compiled config plan ~set_size ~args ~kernel =
  let width = max 1 config.width in
  (* Per-lane frames: staging buffers or walker views, global
     accumulators; one walker frame serves every lane of a loop that
     reduces nothing. *)
  let first = Exec_common.make_frame compiled kernel args in
  let runs = Option.is_some first.Exec_common.walk && not (Exec_common.reduces compiled) in
  let lanes =
    if runs then [| first |]
    else
      Array.init width (fun l ->
          if l = 0 then first else Exec_common.make_frame compiled kernel args)
  in
  (* The pack of lanes [0, n): lane [l] runs element [elem (lo + l)]. *)
  let run_pack elem lo n =
    if runs then Exec_common.run_runs first elem lo (lo + n)
    else begin
      (* 1. packed gather (nothing for a walker frame) *)
      for lane = 0 to n - 1 do
        Exec_common.enter lanes.(lane) (elem (lo + lane))
      done;
      (* 2. compute ("simd" body) *)
      for lane = 0 to n - 1 do
        Exec_common.call lanes.(lane) (elem (lo + lane))
      done;
      (* 3. packed scatter *)
      for lane = 0 to n - 1 do
        Exec_common.leave lanes.(lane) (elem (lo + lane))
      done
    end
  in
  (* Elements [elem 0] .. [elem (n - 1)] in packs of [width]. *)
  let run_packed elem n =
    let full = n / width * width in
    let i = ref 0 in
    while !i < full do
      run_pack elem !i width;
      i := !i + width
    done;
    (* remainder pack *)
    if full < n then run_pack elem full (n - full)
  in
  (match plan.Plan.elem_coloring with
  | None -> run_packed Fun.id set_size
  | Some ec ->
    (* Colour-by-colour packing: same-colour elements share no indirect
       target, so packed gathers/scatters cannot conflict. *)
    let traced = Am_obs.Obs.tracing () in
    Array.iteri
      (fun colour elems ->
        if traced then
          Am_obs.Obs.begin_span ~cat:Am_obs.Tracer.Colour_round
            (Am_obs.Obs.colour_name colour);
        run_packed (Array.get elems) (Array.length elems);
        if traced then Am_obs.Obs.end_span ())
      ec.Coloring.by_color);
  if Exec_common.has_globals compiled then
    Exec_common.merge_worker_globals compiled args (Array.to_list lanes)

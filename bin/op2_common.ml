(* Shared plumbing of the OP2 drivers (airfoil, aero, hydra): the backend
   flags (--backend, --ranks) and --renumber.  A bad flag
   combination is a usage error ([Flag_common]). *)

module Op2 = Am_op2.Op2

let check_flags =
  Flag_common.check_flags
    ~backends:[ "seq"; "vec"; "shared"; "cuda"; "mpi"; "hybrid" ]

(* Put [ctx] on [backend]; [partition n] splits it over [n] ranks for mpi
   and hybrid.  Returns the domain pool the backend runs on, if it made
   one, for the driver to shut down. *)
let select_backend ctx ~backend ~ranks ~partition =
  match backend with
  | "shared" ->
    let p = Am_taskpool.Pool.create () in
    Op2.set_backend ctx (Op2.Shared { pool = p; block_size = 256 });
    Some p
  | "cuda" ->
    Op2.set_backend ctx (Op2.Cuda_sim Am_op2.Exec_cuda.default_config);
    None
  | "vec" ->
    Op2.set_backend ctx (Op2.Vec Am_op2.Exec_vec.default_config);
    None
  | "mpi" ->
    partition ranks;
    None
  | "hybrid" ->
    partition ranks;
    let p = Am_taskpool.Pool.create () in
    Op2.set_rank_execution ctx (Op2.Rank_shared { pool = p; block_size = 256 });
    Some p
  | _ -> None

(* RCM-renumber [ctx] through [through]; call it before [select_backend],
   which may partition.  The result maps a solution on [set] ([size]
   elements of [dim] values, global order) back to the original element
   order, so --verify can compare it with a baseline run on the mesh as
   generated: a dataset of original indices rides through the
   permutation. *)
let renumber ctx ~through ~set ~size ~dim =
  let ids =
    Op2.decl_dat ctx ~name:"original_index" ~set ~dim:1 ~data:(Array.init size Float.of_int)
  in
  let before, after = Op2.renumber ctx ~through in
  Printf.printf "renumbered: dual-graph mean bandwidth %.1f -> %.1f\n%!" before after;
  fun solution ->
    let original = Array.make (Array.length solution) 0.0 in
    Array.iteri
      (fun i id -> Array.blit solution (i * dim) original (Float.to_int id * dim) dim)
      (Op2.fetch ctx ids);
    original

(* Hydra-sim driver: the production-scale synthetic application.

     hydra --nx 128 --ny 96 --iters 50 --backend mpi --ranks 8 --renumber *)

module Op2 = Am_op2.Op2
module App = Am_hydra.App

let run nx ny iters renumber no_multigrid flags =
  Driver.run Driver.op2 flags
    ~sizes:[ ("--nx", nx); ("--ny", ny) ]
    ~counts:[ ("--iters", iters) ]
  @@ fun () () ->
  let features = { App.all_features with App.multigrid = not no_multigrid } in
  let t = Driver.usage_on_refusal flags (fun () -> App.create ~features ~nx ~ny ()) in
  Printf.printf "hydra-sim: %d fine cells (+%d coarse), %d loops/iteration\n%!"
    t.App.mesh.Am_mesh.Umesh.n_cells t.App.coarse_mesh.Am_mesh.Umesh.n_cells
    App.loops_per_iteration;
  if renumber then begin
    let before, after = Op2.renumber t.App.ctx ~through:t.App.edge_cells in
    Printf.printf "renumbered: dual-graph mean bandwidth %.1f -> %.1f\n%!" before after
  end;
  {
    Driver.ctx = t.App.ctx;
    partition =
      (fun n_ranks ->
        Op2.partition t.App.ctx ~n_ranks ~strategy:(Op2.Kway_through t.App.edge_cells));
    steps =
      (fun ~persist ->
        for i = 1 to iters do
          let rms = App.iteration t in
          persist ();
          if i mod 10 = 0 || i = iters then Printf.printf "  %4d  %10.5e\n%!" i rms
        done);
    finish = ignore;
  }

open Cmdliner

let nx = Arg.(value & opt int 96 & info [ "nx" ] ~doc:"Fine cells in x (even).")
let ny = Arg.(value & opt int 64 & info [ "ny" ] ~doc:"Fine cells in y (even).")
let iters = Arg.(value & opt int 50 & info [ "iters" ] ~doc:"Outer iterations.")
let renumber = Arg.(value & flag & info [ "renumber" ] ~doc:"Apply RCM renumbering.")

let no_multigrid =
  Arg.(value & flag & info [ "no-multigrid" ] ~doc:"Disable the multigrid cycle.")

let () =
  Driver.main ~app:"hydra" ~doc:"Production-scale synthetic RANS pipeline (OP2)"
    ~backends:[ "seq"; "vec"; "shared"; "cuda"; "mpi"; "hybrid" ]
    Term.(const run $ nx $ ny $ iters $ renumber $ no_multigrid)

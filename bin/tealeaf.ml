(* TeaLeaf-sim driver: implicit 3D heat conduction by CG on the Ops3 API.

     tealeaf --size 32 --steps 10 --backend mpi --ranks 4 *)

module Tea = Am_tealeaf.App
module Ops3 = Am_ops.Ops3

let run n steps dt flags =
  Driver.run Driver.ops3 flags ~sizes:[ ("--size", n) ] ~counts:[ ("--steps", steps) ]
  @@ fun () ->
  if not (Float.is_finite dt && dt > 0.0) then
    Driver.usage_error flags "--dt must be a finite number above 0";
  fun () ->
    let t = Tea.create ~n ~dt () in
    Printf.printf "tealeaf-sim: %d^3 cells, dt %.3f, backend %s\n%!" n dt flags.Driver.backend;
    {
      Driver.ctx = t.Tea.ctx;
      partition = (fun n_ranks -> Ops3.partition t.Tea.ctx ~n_ranks ~ref_zsize:n);
      steps =
        (fun ~persist ->
          for i = 1 to steps do
            let iters = Tea.step t in
            persist ();
            Printf.printf "  step %3d: %3d CG iterations, total heat %.6f\n%!" i iters
              (Tea.total_heat t)
          done);
      finish = ignore;
    }

open Cmdliner

let n = Arg.(value & opt int 24 & info [ "size" ] ~doc:"Cube edge length in cells.")
let steps = Arg.(value & opt int 5 & info [ "steps" ] ~doc:"Implicit time steps.")
let dt = Arg.(value & opt float 0.5 & info [ "dt" ] ~doc:"Timestep.")

let () =
  Driver.main ~app:"tealeaf" ~doc:"Implicit 3D heat conduction proxy app (Ops3 + CG)"
    ~backends:[ "seq"; "shared"; "cuda"; "mpi"; "hybrid" ]
    Term.(const run $ n $ steps $ dt)

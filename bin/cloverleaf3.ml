(* CloverLeaf 3D driver (Ops3).

     cloverleaf3 --size 24 --steps 20 --backend mpi --ranks 4 *)

module App = Am_cloverleaf3.App
module Ops3 = Am_ops.Ops3

let run n steps flags =
  Driver.run Driver.ops3 flags ~sizes:[ ("--size", n) ] ~counts:[ ("--steps", steps) ]
  @@ fun () () ->
  let t = App.create ~n () in
  Printf.printf "cloverleaf3: %d^3 cells, %d steps, backend %s\n%!" n steps
    flags.Driver.backend;
  {
    Driver.ctx = t.App.ctx;
    partition =
      (fun ranks ->
        if flags.backend = "pencil" then begin
          let py, pz = Driver.grid_shape ranks in
          Printf.printf "pencil decomposition: %dx%d ranks\n%!" py pz;
          Ops3.partition_pencil t.App.ctx ~py ~pz ~ref_ysize:n ~ref_zsize:n
        end
        else Ops3.partition t.App.ctx ~n_ranks:ranks ~ref_zsize:n);
    steps =
      (fun ~persist ->
        for i = 1 to steps do
          let dt = App.hydro_step t in
          persist ();
          if i mod 5 = 0 || i = steps then begin
            let s = App.field_summary t in
            Printf.printf "  step %4d  dt %.5f  mass %.6f  ie %.4f  ke %.6f\n%!" i dt
              s.App.mass s.App.ie s.App.ke
          end
        done);
    finish = ignore;
  }

open Cmdliner

let n = Arg.(value & opt int 24 & info [ "size" ] ~doc:"Cube edge length in cells.")
let steps = Arg.(value & opt int 10 & info [ "steps" ] ~doc:"Hydro steps.")

let () =
  Driver.main ~app:"cloverleaf3" ~doc:"CloverLeaf 3D hydrodynamics proxy application (Ops3)"
    ~backends:[ "seq"; "shared"; "cuda"; "mpi"; "pencil"; "hybrid" ]
    Term.(const run $ n $ steps)

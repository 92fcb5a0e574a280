(* CloverLeaf driver: the OPS proxy application from the command line.

     cloverleaf --nx 256 --ny 256 --steps 87 --backend mpi --ranks 8

   Prints the field summary every few steps (like the original's
   clover.out), the per-loop profile, and optionally verifies against the
   hand-coded baseline. *)

module Ops = Am_ops.Ops
module App = Am_cloverleaf.App

let run nx ny steps summary_every verify van_leer flags =
  Driver.run Driver.ops flags
    ~sizes:[ ("--nx", nx); ("--ny", ny); ("--summary-every", summary_every) ]
    ~counts:[ ("--steps", steps) ]
  @@ fun () () ->
  let advection = if van_leer then App.Van_leer else App.First_order in
  let t = App.create ~advection ~nx ~ny () in
  Printf.printf "cloverleaf: %dx%d cells, %d steps, backend %s\n%!" nx ny steps
    flags.Driver.backend;
  let print_summary step =
    let s = App.field_summary t in
    Printf.printf "  step %4d  dt %.5f  mass %.6f  ie %.4f  ke %.6f  press %.3f\n%!" step
      t.App.dt s.App.mass s.App.ie s.App.ke s.App.press
  in
  {
    Driver.ctx = t.App.ctx;
    partition =
      (fun ranks ->
        if flags.backend = "mpi2d" then begin
          let px, py = Driver.grid_shape ranks in
          Printf.printf "grid decomposition: %dx%d ranks\n%!" px py;
          Ops.partition_grid t.App.ctx ~px ~py ~ref_xsize:nx ~ref_ysize:ny
        end
        else Ops.partition t.App.ctx ~n_ranks:ranks ~ref_ysize:ny);
    steps =
      (fun ~persist ->
        print_summary 0;
        for i = 1 to steps do
          ignore (App.hydro_step t);
          persist ();
          if i mod summary_every = 0 || i = steps then print_summary i
        done);
    finish =
      (fun () ->
        if verify then begin
          let h = Am_cloverleaf.Hand.create ~advection ~nx ~ny () in
          ignore (Am_cloverleaf.Hand.run h ~steps);
          Driver.verify ~tol:1e-10
            (Am_util.Fa.rel_discrepancy (App.density t) (Am_cloverleaf.Hand.density h))
        end);
  }

open Cmdliner

let nx = Arg.(value & opt int 128 & info [ "nx" ] ~doc:"Cells in x.")
let ny = Arg.(value & opt int 128 & info [ "ny" ] ~doc:"Cells in y.")
let steps = Arg.(value & opt int 50 & info [ "steps" ] ~doc:"Hydro steps.")

let summary_every =
  Arg.(value & opt int 10 & info [ "summary-every" ] ~doc:"Field summary interval.")

let verify =
  Arg.(value & flag & info [ "verify" ] ~doc:"Cross-check against the hand-coded baseline.")

let van_leer =
  Arg.(value & flag & info [ "van-leer" ] ~doc:"Second-order van Leer advection.")

let () =
  Driver.main ~app:"cloverleaf" ~doc:"CloverLeaf 2D hydrodynamics proxy application (OPS)"
    ~backends:[ "seq"; "shared"; "cuda"; "mpi"; "mpi2d"; "hybrid" ]
    Term.(const run $ nx $ ny $ steps $ summary_every $ verify $ van_leer)

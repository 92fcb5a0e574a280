(* Aero driver: the FEM + matrix-free CG proxy application from the
   command line.

     aero --size 64 --iters 2 --backend mpi --ranks 4 --verify

   Solves -laplacian(phi) = 2 pi^2 sin(pi x) sin(pi y) on the unit square
   with bilinear quad elements, prints per-Newton CG iteration counts, the
   L2 error against the analytic solution, and the per-loop profile. *)

module Op2 = Am_op2.Op2
module App = Am_aero.App
module Umesh = Am_mesh.Umesh

let run n iters renumber verify flags =
  Driver.run Driver.op2 flags ~sizes:[ ("--size", n) ] ~counts:[ ("--iters", iters) ]
  @@ fun () ->
  let mesh = App.generate_mesh ~n in
  fun () ->
    let t = App.create mesh in
    Printf.printf "aero: %dx%d cells, %d nodes\n%!" n n mesh.Umesh.n_nodes;
    let original_order =
      if renumber then
        Driver.renumber t.App.ctx ~through:t.App.cell_nodes ~set:t.App.nodes
          ~size:mesh.Umesh.n_nodes ~dim:1
      else Fun.id
    in
    {
      Driver.ctx = t.App.ctx;
      partition =
        (fun n_ranks -> Op2.partition t.App.ctx ~n_ranks ~strategy:(Op2.Rcb_on t.App.x));
      steps =
        (fun ~persist ->
          for i = 1 to iters do
            let cg_iters, rms = App.iteration t in
            persist ();
            Printf.printf "  newton %d: %3d CG iterations, update rms %10.5e\n%!" i cg_iters
              rms
          done;
          Printf.printf "L2 error vs analytic solution: %.3e\n" (App.l2_error t));
      finish =
        (fun () ->
          if verify then begin
            let h = Am_aero.Hand.create mesh in
            ignore (Am_aero.Hand.run h ~iters);
            Driver.verify ~tol:1e-8
              (Am_util.Fa.rel_discrepancy
                 (original_order (App.solution t))
                 (Am_aero.Hand.solution h))
          end);
    }

open Cmdliner

let n = Arg.(value & opt int 48 & info [ "size" ] ~doc:"Cells per side of the unit square.")
let iters = Arg.(value & opt int 2 & info [ "iters" ] ~doc:"Newton iterations.")

let renumber =
  Arg.(value & flag & info [ "renumber" ] ~doc:"Apply RCM mesh renumbering first.")

let verify =
  Arg.(value & flag & info [ "verify" ] ~doc:"Cross-check against the hand-coded baseline.")

let () =
  Driver.main ~app:"aero" ~doc:"2D FEM + matrix-free CG proxy application (OP2)"
    ~backends:[ "seq"; "vec"; "shared"; "cuda"; "mpi"; "hybrid" ]
    Term.(const run $ n $ iters $ renumber $ verify)

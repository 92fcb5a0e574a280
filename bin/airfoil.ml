(* Airfoil driver: the OP2 proxy application from the command line.

     airfoil --nx 200 --ny 150 --iters 100 --backend mpi --ranks 8 --verify

   Prints the residual history like the original test case, the per-loop
   profile (the data behind Table I), and optionally cross-checks the
   result against the hand-coded baseline. *)

module Op2 = Am_op2.Op2
module App = Am_airfoil.App
module Umesh = Am_mesh.Umesh

(* Meshes load from snapshot files (the HDF5-style input path) or are
   generated; a --mesh file that does not exist yet is generated and
   written.  A file that does not load is a usage error. *)
let load_mesh flags ~nx ~ny = function
  | None -> Umesh.generate_airfoil ~nx ~ny ()
  | Some path -> (
    try
      if Sys.file_exists path then begin
        Printf.printf "loading mesh from %s\n%!" path;
        Am_sysio.Meshio.load path
      end
      else begin
        let m = Umesh.generate_airfoil ~nx ~ny () in
        Am_sysio.Meshio.save path m;
        Printf.printf "generated mesh written to %s\n%!" path;
        m
      end
    with Am_sysio.Snapshot.Corrupt reason | Invalid_argument reason | Sys_error reason ->
      Driver.usage_error flags (Printf.sprintf "--mesh %s: %s" path reason))

let run nx ny iters renumber verify save_to mesh_file flags =
  Driver.run Driver.op2 flags
    ~sizes:[ ("--nx", nx); ("--ny", ny) ]
    ~counts:[ ("--iters", iters) ]
    ~outputs:[ ("--save", save_to); ("--mesh", mesh_file) ]
  @@ fun () ->
  let mesh = load_mesh flags ~nx ~ny mesh_file in
  fun () ->
    let t = App.create mesh in
    Printf.printf "airfoil: %d cells, %d edges, %d nodes\n%!" mesh.Umesh.n_cells
      mesh.Umesh.n_edges mesh.Umesh.n_nodes;
    let original_order =
      if renumber then
        Driver.renumber t.App.ctx ~through:t.App.edge_cells ~set:t.App.cells
          ~size:mesh.Umesh.n_cells ~dim:4
      else Fun.id
    in
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
            if i mod 100 = 0 || i = iters then Printf.printf "  %4d  %10.5e\n%!" i rms
          done);
      finish =
        (fun () ->
          if verify then begin
            let h = Am_airfoil.Hand.create mesh in
            ignore (Am_airfoil.Hand.run h ~iters);
            Driver.verify ~tol:1e-10
              (Am_util.Fa.rel_discrepancy
                 (original_order (App.solution t))
                 (Am_airfoil.Hand.solution h))
          end;
          Option.iter
            (fun path ->
              Am_sysio.Snapshot.save path [ ("q", App.solution t) ];
              Printf.printf "solution written to %s\n" path)
            save_to);
    }

open Cmdliner

let nx = Arg.(value & opt int 120 & info [ "nx" ] ~doc:"Cells in x.")
let ny = Arg.(value & opt int 80 & info [ "ny" ] ~doc:"Cells in y.")
let iters = Arg.(value & opt int 100 & info [ "iters" ] ~doc:"Outer iterations.")

let renumber =
  Arg.(value & flag & info [ "renumber" ] ~doc:"Apply RCM mesh renumbering first.")

let verify =
  Arg.(value & flag & info [ "verify" ] ~doc:"Cross-check against the hand-coded baseline.")

let save_to =
  Arg.(
    value
    & opt (some string) None
    & info [ "save" ] ~doc:"Write the final solution to a snapshot file.")

let mesh_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "mesh" ]
        ~doc:"Mesh snapshot file: loaded if it exists, generated and written \
              otherwise (the HDF5-style input path).")

let () =
  Driver.main ~app:"airfoil" ~doc:"Non-linear 2D inviscid Euler proxy application (OP2)"
    ~backends:[ "seq"; "vec"; "shared"; "cuda"; "mpi"; "hybrid" ]
    Term.(const run $ nx $ ny $ iters $ renumber $ verify $ save_to $ mesh_file)

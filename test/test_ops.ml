(* Backend-equivalence and unit tests for the OPS structured-mesh library. *)

module Ops = Am_ops.Ops
module Ops1 = Am_ops.Ops1
module Ops3 = Am_ops.Ops3
module Access = Am_core.Access
module Fa = Am_util.Fa
module Pool = Am_taskpool.Pool

(* A miniature heat-diffusion program: 5-point Laplacian into [unew], copy
   back with a residual reduction — the canonical structured pattern. *)
type mini = {
  ctx : Ops.ctx;
  grid : Ops.block;
  u : Ops.dat;
  unew : Ops.dat;
  nx : int;
  ny : int;
}

let build_mini ?(nx = 17) ?(ny = 13) () =
  let ctx = Ops.create () in
  let grid = Ops.decl_block ctx ~name:"grid" in
  let u = Ops.decl_dat ctx ~name:"u" ~block:grid ~xsize:nx ~ysize:ny ~halo:2 () in
  let unew = Ops.decl_dat ctx ~name:"unew" ~block:grid ~xsize:nx ~ysize:ny ~halo:2 () in
  (* Smooth initial condition; ghost cells hold the (fixed) boundary data. *)
  Ops.init ctx u (fun x y _ ->
      sin (0.3 *. Float.of_int x) +. cos (0.2 *. Float.of_int y));
  Ops.init ctx unew (fun _ _ _ -> 0.0);
  { ctx; grid; u; unew; nx; ny }

let diffuse_kernel args =
  let u = args.(0) and unew = args.(1) in
  (* stencil_2d_5pt order: (0,0) (-1,0) (1,0) (0,-1) (0,1) *)
  unew.(0) <- u.(0) +. (0.1 *. (u.(1) +. u.(2) +. u.(3) +. u.(4) -. (4.0 *. u.(0))))

let copy_kernel args =
  let unew = args.(0) and u = args.(1) and res = args.(2) in
  let d = unew.(0) -. u.(0) in
  res.(0) <- res.(0) +. (d *. d);
  u.(0) <- unew.(0)

let run_mini m steps =
  let interior = Ops.interior m.u in
  let res_total = ref 0.0 in
  for _ = 1 to steps do
    Ops.par_loop m.ctx ~name:"diffuse" m.grid interior
      [
        Ops.arg_dat m.u Ops.stencil_2d_5pt Access.Read;
        Ops.arg_dat m.unew Ops.stencil_point Access.Write;
      ]
      diffuse_kernel;
    let res = [| 0.0 |] in
    Ops.par_loop m.ctx ~name:"copy" m.grid interior
      [
        Ops.arg_dat m.unew Ops.stencil_point Access.Read;
        Ops.arg_dat m.u Ops.stencil_point Access.Rw;
        Ops.arg_gbl ~name:"res" res Access.Inc;
      ]
      copy_kernel;
    res_total := !res_total +. res.(0)
  done;
  (Ops.fetch_interior m.ctx m.u, !res_total)

let reference = lazy (run_mini (build_mini ()) 6)

let check_matches name (u, res) =
  let ref_u, ref_res = Lazy.force reference in
  if not (Fa.approx_equal ~tol:1e-10 ref_u u) then
    Alcotest.failf "%s: field diverges (%g)" name (Fa.rel_discrepancy ref_u u);
  if Float.abs (res -. ref_res) /. (1.0 +. ref_res) > 1e-10 then
    Alcotest.failf "%s: reduction diverges (%g vs %g)" name res ref_res

(* ---- Backend equivalence ---- *)

let test_shared_matches () =
  Pool.with_pool ~size:4 (fun pool ->
      let m = build_mini () in
      Ops.set_backend m.ctx (Ops.Shared { pool });
      check_matches "shared" (run_mini m 6))

let test_cuda_global_matches () =
  let m = build_mini () in
  Ops.set_backend m.ctx
    (Ops.Cuda_sim { Am_ops.Exec.tile_x = 8; tile_y = 4; strategy = Am_ops.Exec.Cuda_global });
  check_matches "cuda global" (run_mini m 6)

let test_cuda_tiled_matches () =
  let m = build_mini () in
  Ops.set_backend m.ctx
    (Ops.Cuda_sim { Am_ops.Exec.tile_x = 8; tile_y = 4; strategy = Am_ops.Exec.Cuda_tiled });
  check_matches "cuda tiled" (run_mini m 6)

let dist_test n_ranks () =
  let m = build_mini () in
  Ops.partition m.ctx ~n_ranks ~ref_ysize:m.ny;
  check_matches (Printf.sprintf "dist(%d)" n_ranks) (run_mini m 6)

let test_dist_traffic () =
  let m = build_mini () in
  Ops.partition m.ctx ~n_ranks:3 ~ref_ysize:m.ny;
  ignore (run_mini m 2);
  match Ops.comm_stats m.ctx with
  | None -> Alcotest.fail "expected comm stats"
  | Some s ->
    Alcotest.(check bool) "messages flowed" true (s.Am_simmpi.Comm.messages > 0)

let test_dist_center_only_no_traffic () =
  let m = build_mini () in
  Ops.partition m.ctx ~n_ranks:3 ~ref_ysize:m.ny;
  (match Ops.comm_stats m.ctx with
  | Some s -> s.Am_simmpi.Comm.messages <- 0
  | None -> ());
  (* Center-only loops need no ghost data. *)
  Ops.par_loop m.ctx ~name:"scale" m.grid (Ops.interior m.u)
    [ Ops.arg_dat m.u Ops.stencil_point Access.Rw ]
    (fun a -> a.(0).(0) <- a.(0).(0) *. 1.5);
  match Ops.comm_stats m.ctx with
  | None -> Alcotest.fail "expected comm stats"
  | Some s -> Alcotest.(check int) "no messages" 0 s.Am_simmpi.Comm.messages

(* ---- Every decomposition ---- *)

(* The kernel of the probe loops below: a weighted sum of every stencil
   point read (distinct weights, so one wrong point changes the result),
   written to each component of the output. *)
let weighted_sum (a : float array array) =
  let s = ref 0.0 in
  Array.iteri (fun i v -> s := !s +. (Float.of_int (i + 1) *. v)) a.(0);
  Array.iteri (fun c _ -> a.(1).(c) <- !s +. Float.of_int c) a.(1)

(* The messages and bytes [f] sends on a partitioned context. *)
let traffic stats f =
  match stats with
  | None ->
    f ();
    (0, 0)
  | Some s ->
    let m0 = s.Am_simmpi.Comm.messages and b0 = s.Am_simmpi.Comm.bytes in
    f ();
    (s.Am_simmpi.Comm.messages - m0, s.Am_simmpi.Comm.bytes - b0)

(* A star of the given reach along each axis, centre first. *)
let star1 reach = [| 0; -reach; reach |]

let star2 reach = [| (0, 0); (-reach, 0); (reach, 0); (0, -reach); (0, reach) |]

let star3 reach =
  [| (0, 0, 0); (-reach, 0, 0); (reach, 0, 0); (0, -reach, 0); (0, reach, 0);
     (0, 0, -reach); (0, 0, reach) |]

(* Depth-aware exchange cases: u and w (halo 2) on one decomposition, u's
   ghosts dirtied, then u read through a stencil reaching [reach] cells
   along every axis into w.  Each returns the read's traffic and w's
   interior; [part = false] runs unpartitioned. *)
let depth_case_2d partition ~reach ~part =
  let nx = 16 and ny = 12 in
  let ctx = Ops.create () in
  let grid = Ops.decl_block ctx ~name:"grid" in
  let u = Ops.decl_dat ctx ~name:"u" ~block:grid ~xsize:nx ~ysize:ny ~halo:2 () in
  let w = Ops.decl_dat ctx ~name:"w" ~block:grid ~xsize:nx ~ysize:ny ~halo:2 () in
  Ops.init ctx u (fun x y _ -> Float.of_int ((x * 7) + y));
  if part then partition ctx ~nx ~ny;
  Ops.par_loop ctx ~name:"touch" grid (Ops.interior u)
    [ Ops.arg_dat u Ops.stencil_point Access.Rw ]
    (fun a -> a.(0).(0) <- a.(0).(0) +. 1.0);
  let moved =
    traffic (Ops.comm_stats ctx) (fun () ->
        Ops.par_loop ctx ~name:"read" grid (Ops.interior u)
          [
            Ops.arg_dat u (star2 reach) Access.Read;
            Ops.arg_dat w Ops.stencil_point Access.Write;
          ]
          weighted_sum)
  in
  (moved, Ops.fetch_interior ctx w)

let depth_case_1d partition ~reach ~part =
  let nx = 16 in
  let ctx = Ops1.create () in
  let line = Ops1.decl_block ctx ~name:"line" in
  let u = Ops1.decl_dat ctx ~name:"u" ~block:line ~xsize:nx ~halo:2 () in
  let w = Ops1.decl_dat ctx ~name:"w" ~block:line ~xsize:nx ~halo:2 () in
  Ops1.init ctx u (fun x _ -> Float.of_int ((x * 7) + 3));
  if part then partition ctx ~nx;
  Ops1.par_loop ctx ~name:"touch" line (Ops1.interior u)
    [ Ops1.arg_dat u Ops1.stencil_point Access.Rw ]
    (fun a -> a.(0).(0) <- a.(0).(0) +. 1.0);
  let moved =
    traffic (Ops1.comm_stats ctx) (fun () ->
        Ops1.par_loop ctx ~name:"read" line (Ops1.interior u)
          [
            Ops1.arg_dat u (star1 reach) Access.Read;
            Ops1.arg_dat w Ops1.stencil_point Access.Write;
          ]
          weighted_sum)
  in
  (moved, Ops1.fetch_interior ctx w)

let depth_case_3d partition ~reach ~part =
  let n = 8 in
  let ctx = Ops3.create () in
  let cube = Ops3.decl_block ctx ~name:"cube" in
  let u = Ops3.decl_dat ctx ~name:"u" ~block:cube ~xsize:n ~ysize:n ~zsize:n ~halo:2 () in
  let w = Ops3.decl_dat ctx ~name:"w" ~block:cube ~xsize:n ~ysize:n ~zsize:n ~halo:2 () in
  Ops3.init ctx u (fun x y z _ -> Float.of_int ((x * 7) + (y * 3) + z));
  if part then partition ctx ~n;
  Ops3.par_loop ctx ~name:"touch" cube (Ops3.interior u)
    [ Ops3.arg_dat u Ops3.stencil_point Access.Rw ]
    (fun a -> a.(0).(0) <- a.(0).(0) +. 1.0);
  let moved =
    traffic (Ops3.comm_stats ctx) (fun () ->
        Ops3.par_loop ctx ~name:"read" cube (Ops3.interior u)
          [
            Ops3.arg_dat u (star3 reach) Access.Read;
            Ops3.arg_dat w Ops3.stencil_point Access.Write;
          ]
          weighted_sum)
  in
  (moved, Ops3.fetch_interior ctx w)

let depth_cases =
  [
    ( "rows(3)",
      depth_case_2d (fun ctx ~nx:_ ~ny -> Ops.partition ctx ~n_ranks:3 ~ref_ysize:ny) );
    ( "grid(2x2)",
      depth_case_2d (fun ctx ~nx ~ny ->
          Ops.partition_grid ctx ~px:2 ~py:2 ~ref_xsize:nx ~ref_ysize:ny) );
    ( "cells(3)",
      depth_case_1d (fun ctx ~nx -> Ops1.partition ctx ~n_ranks:3 ~ref_xsize:nx) );
    ( "slabs(3)",
      depth_case_3d (fun ctx ~n -> Ops3.partition ctx ~n_ranks:3 ~ref_zsize:n) );
    ( "pencil(2x2)",
      depth_case_3d (fun ctx ~n ->
          Ops3.partition_pencil ctx ~py:2 ~pz:2 ~ref_ysize:n ~ref_zsize:n) );
  ]

(* A loop whose widest stencil reaches 1 cell exchanges 1 ghost layer, not
   the full 2-deep ring (OPS's per-stencil update_halo depths), on every
   decomposition: half the bytes in as many messages — and the results stay
   exact either way. *)
let test_depth_aware_exchange () =
  List.iter
    (fun (name, run) ->
      let (shallow_msgs, shallow_bytes), shallow = run ~reach:1 ~part:true in
      let (deep_msgs, deep_bytes), deep = run ~reach:2 ~part:true in
      Alcotest.(check bool)
        (Printf.sprintf "%s: 1-deep stencil moves less (%d vs %d)" name shallow_bytes
           deep_bytes)
        true
        (shallow_bytes < deep_bytes);
      Alcotest.(check int) (name ^ ": exactly half") deep_bytes (2 * shallow_bytes);
      Alcotest.(check int) (name ^ ": as many messages") deep_msgs shallow_msgs;
      List.iter
        (fun (reach, got) ->
          let _, seq = run ~reach ~part:false in
          if not (Fa.approx_equal ~tol:0.0 seq got) then
            Alcotest.failf "%s: reach %d diverges from seq" name reach)
        [ (1, shallow); (2, deep) ])
    depth_cases

(* Ghost-level mirror cases: a cell-sized u and a staggered two-component
   v (one more cell along every axis), each mirrored at depth 2 with mixed
   centering and sign flips after an interior update has left every ghost
   copy stale; then a probe loop per dataset whose extent-2 box stencil
   carries every ghost cell, edge and corner into some interior point.
   Each returns the probes' outputs.  Edge ranks of rows(4) and grid(6x2)
   own only two cells along a split axis, so a node-centred mirror's
   deepest source (interior layer 2) is a ghost copy of a neighbour's
   cell, which the mirror must refresh first. *)
let box2 = List.init 5 (fun i -> i - 2)

let mirror_case_2d partition ~part =
  let nx = 12 and ny = 9 in
  let ctx = Ops.create () in
  let grid = Ops.decl_block ctx ~name:"grid" in
  let decl name ~extra ~dim =
    Ops.decl_dat ctx ~name ~block:grid ~xsize:(nx + extra) ~ysize:(ny + extra) ~halo:2
      ~dim ()
  in
  let u = decl "u" ~extra:0 ~dim:1 and v = decl "v" ~extra:1 ~dim:2 in
  let wu = decl "wu" ~extra:0 ~dim:1 and wv = decl "wv" ~extra:1 ~dim:2 in
  List.iter
    (fun d ->
      Ops.init ctx d (fun x y c ->
          sin ((1.3 *. Float.of_int x) +. (0.7 *. Float.of_int y) +. Float.of_int c)))
    [ u; v ];
  if part then partition ctx ~nx ~ny;
  List.iter
    (fun d ->
      Ops.par_loop ctx ~name:"update" grid (Ops.interior d)
        [ Ops.arg_dat d Ops.stencil_point Access.Rw ]
        (fun a -> Array.iteri (fun c x -> a.(0).(c) <- (0.5 *. x) +. 0.25) a.(0)))
    [ u; v ];
  Ops.mirror_halo ctx ~depth:2 ~sign_x:(-1.0) ~center_x:Ops.Node ~center_y:Ops.Cell u;
  Ops.mirror_halo ctx ~depth:2 ~sign_y:(-1.0) ~center_x:Ops.Cell ~center_y:Ops.Node v;
  let box =
    Array.of_list (List.concat_map (fun dy -> List.map (fun dx -> (dx, dy)) box2) box2)
  in
  List.map
    (fun (d, w) ->
      Ops.par_loop ctx ~name:"probe" grid (Ops.interior d)
        [ Ops.arg_dat d box Access.Read; Ops.arg_dat w Ops.stencil_point Access.Write ]
        weighted_sum;
      Ops.fetch_interior ctx w)
    [ (u, wu); (v, wv) ]

let mirror_case_1d partition ~part =
  let nx = 9 in
  let ctx = Ops1.create () in
  let line = Ops1.decl_block ctx ~name:"line" in
  let decl name ~extra ~dim =
    Ops1.decl_dat ctx ~name ~block:line ~xsize:(nx + extra) ~halo:2 ~dim ()
  in
  let u = decl "u" ~extra:0 ~dim:1 and v = decl "v" ~extra:1 ~dim:2 in
  let wu = decl "wu" ~extra:0 ~dim:1 and wv = decl "wv" ~extra:1 ~dim:2 in
  List.iter
    (fun d ->
      Ops1.init ctx d (fun x c -> sin ((1.3 *. Float.of_int x) +. Float.of_int c)))
    [ u; v ];
  if part then partition ctx ~nx;
  List.iter
    (fun d ->
      Ops1.par_loop ctx ~name:"update" line (Ops1.interior d)
        [ Ops1.arg_dat d Ops1.stencil_point Access.Rw ]
        (fun a -> Array.iteri (fun c x -> a.(0).(c) <- (0.5 *. x) +. 0.25) a.(0)))
    [ u; v ];
  Ops1.mirror_halo ctx ~depth:2 ~sign:(-1.0) ~center:Ops1.Node u;
  Ops1.mirror_halo ctx ~depth:2 ~center:Ops1.Cell v;
  List.map
    (fun (d, w) ->
      Ops1.par_loop ctx ~name:"probe" line (Ops1.interior d)
        [
          Ops1.arg_dat d (Array.of_list box2) Access.Read;
          Ops1.arg_dat w Ops1.stencil_point Access.Write;
        ]
        weighted_sum;
      Ops1.fetch_interior ctx w)
    [ (u, wu); (v, wv) ]

let mirror_case_3d partition ~part =
  let nx = 5 and ny = 6 and nz = 9 in
  let ctx = Ops3.create () in
  let cube = Ops3.decl_block ctx ~name:"cube" in
  let decl name ~extra ~dim =
    Ops3.decl_dat ctx ~name ~block:cube ~xsize:(nx + extra) ~ysize:(ny + extra)
      ~zsize:(nz + extra) ~halo:2 ~dim ()
  in
  let u = decl "u" ~extra:0 ~dim:1 and v = decl "v" ~extra:1 ~dim:2 in
  let wu = decl "wu" ~extra:0 ~dim:1 and wv = decl "wv" ~extra:1 ~dim:2 in
  List.iter
    (fun d ->
      Ops3.init ctx d (fun x y z c ->
          sin
            ((1.3 *. Float.of_int x) +. (0.7 *. Float.of_int y) +. (0.3 *. Float.of_int z)
            +. Float.of_int c)))
    [ u; v ];
  if part then partition ctx ~ny ~nz;
  List.iter
    (fun d ->
      Ops3.par_loop ctx ~name:"update" cube (Ops3.interior d)
        [ Ops3.arg_dat d Ops3.stencil_point Access.Rw ]
        (fun a -> Array.iteri (fun c x -> a.(0).(c) <- (0.5 *. x) +. 0.25) a.(0)))
    [ u; v ];
  Ops3.mirror_halo ctx ~depth:2 ~sign_x:(-1.0) ~sign_z:(-1.0) ~center_x:Ops3.Node
    ~center_y:Ops3.Cell ~center_z:Ops3.Node u;
  Ops3.mirror_halo ctx ~depth:2 ~sign_y:(-1.0) ~center_x:Ops3.Cell ~center_y:Ops3.Node
    ~center_z:Ops3.Cell v;
  let box =
    Array.of_list
      (List.concat_map
         (fun dz ->
           List.concat_map (fun dy -> List.map (fun dx -> (dx, dy, dz)) box2) box2)
         box2)
  in
  List.map
    (fun (d, w) ->
      Ops3.par_loop ctx ~name:"probe" cube (Ops3.interior d)
        [ Ops3.arg_dat d box Access.Read; Ops3.arg_dat w Ops3.stencil_point Access.Write ]
        weighted_sum;
      Ops3.fetch_interior ctx w)
    [ (u, wu); (v, wv) ]

let mirror_cases =
  [
    ( "rows(3)",
      mirror_case_2d (fun ctx ~nx:_ ~ny -> Ops.partition ctx ~n_ranks:3 ~ref_ysize:ny) );
    ( "grid(2x2)",
      mirror_case_2d (fun ctx ~nx ~ny ->
          Ops.partition_grid ctx ~px:2 ~py:2 ~ref_xsize:nx ~ref_ysize:ny) );
    ( "grid(3x2)",
      mirror_case_2d (fun ctx ~nx ~ny ->
          Ops.partition_grid ctx ~px:3 ~py:2 ~ref_xsize:nx ~ref_ysize:ny) );
    ( "rows(4)",
      mirror_case_2d (fun ctx ~nx:_ ~ny -> Ops.partition ctx ~n_ranks:4 ~ref_ysize:ny) );
    ( "grid(6x2)",
      mirror_case_2d (fun ctx ~nx ~ny ->
          Ops.partition_grid ctx ~px:6 ~py:2 ~ref_xsize:nx ~ref_ysize:ny) );
    ( "cells(3)",
      mirror_case_1d (fun ctx ~nx -> Ops1.partition ctx ~n_ranks:3 ~ref_xsize:nx) );
    ( "slabs(3)",
      mirror_case_3d (fun ctx ~ny:_ ~nz -> Ops3.partition ctx ~n_ranks:3 ~ref_zsize:nz) );
    ( "pencil(2x2)",
      mirror_case_3d (fun ctx ~ny ~nz ->
          Ops3.partition_pencil ctx ~py:2 ~pz:2 ~ref_ysize:ny ~ref_zsize:nz) );
  ]

(* Every mirrored ghost cell, edge and corner must match the unpartitioned
   mirror bitwise — not just the interiors a later app stencil happens to
   read. *)
let test_mirror_ghost_cells () =
  List.iter
    (fun (name, run) ->
      List.iter2
        (fun seq got ->
          if not (Fa.approx_equal ~tol:0.0 seq got) then
            Alcotest.failf "%s: mirrored ghosts diverge from seq (%g)" name
              (Fa.rel_discrepancy seq got))
        (run ~part:false) (run ~part:true))
    mirror_cases

(* Staggered dataset (ny + 1 rows, like a y-face velocity): the extra row
   belongs to the last rank and the loop range covers it. *)
let test_dist_staggered_dat () =
  let run n_ranks =
    let ctx = Ops.create () in
    let grid = Ops.decl_block ctx ~name:"grid" in
    let nx = 9 and ny = 8 in
    let v = Ops.decl_dat ctx ~name:"v" ~block:grid ~xsize:nx ~ysize:(ny + 1) ~halo:2 () in
    Ops.init ctx v (fun x y _ -> Float.of_int ((x * 31) + y));
    if n_ranks > 1 then Ops.partition ctx ~n_ranks ~ref_ysize:ny;
    Ops.par_loop ctx ~name:"stagger" grid
      { Ops.xlo = 0; xhi = nx; ylo = 0; yhi = ny + 1 }
      [ Ops.arg_dat v Ops.stencil_point Access.Rw ]
      (fun a -> a.(0).(0) <- (2.0 *. a.(0).(0)) +. 1.0);
    Ops.fetch_interior ctx v
  in
  let seq = run 1 and dist = run 3 in
  Alcotest.(check bool) "staggered rows match" true (Fa.approx_equal ~tol:0.0 seq dist)

(* Boundary-condition loops over ghost rows must land on the edge ranks and
   subsequent stencil reads must observe them. *)
let test_dist_ghost_row_bc () =
  let run n_ranks =
    let ctx = Ops.create () in
    let grid = Ops.decl_block ctx ~name:"grid" in
    let nx = 7 and ny = 9 in
    let u = Ops.decl_dat ctx ~name:"u" ~block:grid ~xsize:nx ~ysize:ny ~halo:2 () in
    let w = Ops.decl_dat ctx ~name:"w" ~block:grid ~xsize:nx ~ysize:ny ~halo:2 () in
    Ops.init ctx u (fun x y _ -> Float.of_int (x + (10 * y)));
    if n_ranks > 1 then Ops.partition ctx ~n_ranks ~ref_ysize:ny;
    (* Write the bottom ghost row. *)
    Ops.par_loop ctx ~name:"bc" grid
      { Ops.xlo = 0; xhi = nx; ylo = -1; yhi = 0 }
      [ Ops.arg_dat u Ops.stencil_point Access.Write ]
      (fun a -> a.(0).(0) <- 42.0);
    (* Read it through a downward stencil from row 0. *)
    Ops.par_loop ctx ~name:"probe" grid
      { Ops.xlo = 0; xhi = nx; ylo = 0; yhi = ny }
      [
        Ops.arg_dat u Ops.stencil_2d_minus1y Access.Read;
        Ops.arg_dat w Ops.stencil_point Access.Write;
      ]
      (fun a -> a.(1).(0) <- a.(0).(1));
    Ops.fetch_interior ctx w
  in
  let seq = run 1 and dist = run 4 in
  Alcotest.(check bool) "bc visible through stencil" true
    (Fa.approx_equal ~tol:0.0 seq dist);
  Alcotest.(check (float 0.0)) "row0 reads bc" 42.0 seq.(0)

(* ---- Reductions ---- *)

let test_gbl_min_max () =
  let m = build_mini () in
  let mn = [| infinity |] and mx = [| neg_infinity |] in
  Ops.par_loop m.ctx ~name:"minmax" m.grid (Ops.interior m.u)
    [
      Ops.arg_dat m.u Ops.stencil_point Access.Read;
      Ops.arg_gbl ~name:"mn" mn Access.Min;
      Ops.arg_gbl ~name:"mx" mx Access.Max;
    ]
    (fun a ->
      a.(1).(0) <- Float.min a.(1).(0) a.(0).(0);
      a.(2).(0) <- Float.max a.(2).(0) a.(0).(0));
  let data = Ops.fetch_interior m.ctx m.u in
  Alcotest.(check (float 1e-12)) "min" (Array.fold_left Float.min infinity data) mn.(0);
  Alcotest.(check (float 1e-12)) "max" (Array.fold_left Float.max neg_infinity data) mx.(0)

let test_arg_idx () =
  let m = build_mini () in
  Ops.par_loop m.ctx ~name:"coords" m.grid (Ops.interior m.u)
    [ Ops.arg_dat m.u Ops.stencil_point Access.Write; Ops.arg_idx ]
    (fun a -> a.(0).(0) <- a.(1).(0) +. (100.0 *. a.(1).(1)));
  Alcotest.(check (float 0.0)) "(3,2) encodes indices" 203.0
    (Ops.get m.u ~x:3 ~y:2 ~c:0)

(* ---- Validation ---- *)

let expect_invalid f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_validation () =
  let m = build_mini () in
  (* Writing through an offset stencil. *)
  expect_invalid (fun () ->
      Ops.par_loop m.ctx ~name:"bad" m.grid (Ops.interior m.u)
        [ Ops.arg_dat m.u Ops.stencil_2d_5pt Access.Write ]
        ignore);
  (* Stencil escaping the ghost ring. *)
  expect_invalid (fun () ->
      Ops.par_loop m.ctx ~name:"bad" m.grid
        { Ops.xlo = -2; xhi = m.nx; ylo = 0; yhi = m.ny }
        [ Ops.arg_dat m.u Ops.stencil_2d_minus1x Access.Read ]
        ignore);
  (* Loop-carried dependence: read neighbours of a dat the loop writes. *)
  expect_invalid (fun () ->
      Ops.par_loop m.ctx ~name:"bad" m.grid (Ops.interior m.u)
        [
          Ops.arg_dat m.u Ops.stencil_2d_5pt Access.Read;
          Ops.arg_dat m.u Ops.stencil_point Access.Write;
        ]
        ignore);
  (* Dat from another block. *)
  let other = Ops.decl_block m.ctx ~name:"other" in
  expect_invalid (fun () ->
      Ops.par_loop m.ctx ~name:"bad" other (Ops.interior m.u)
        [ Ops.arg_dat m.u Ops.stencil_point Access.Read ]
        ignore)

let test_partition_errors () =
  let m = build_mini () in
  expect_invalid (fun () -> Ops.partition m.ctx ~n_ranks:0 ~ref_ysize:m.ny);
  (* Chunks thinner than the ghost depth are rejected. *)
  expect_invalid (fun () -> Ops.partition m.ctx ~n_ranks:m.ny ~ref_ysize:m.ny)

(* ---- Strided (grid-transfer) stencils ---- *)

let test_restrict_gather () =
  let ctx = Ops.create () in
  let grid = Ops.decl_block ctx ~name:"g" in
  let fine = Ops.decl_dat ctx ~name:"fine" ~block:grid ~xsize:8 ~ysize:8 () in
  let coarse = Ops.decl_dat ctx ~name:"coarse" ~block:grid ~xsize:4 ~ysize:4 () in
  Ops.init ctx fine (fun x y _ -> Float.of_int (x + (100 * y)));
  Ops.par_loop ctx ~name:"restrict" grid (Ops.interior coarse)
    [
      Ops.arg_dat_restrict fine Ops.stencil_2d_quad ~factor:2 Access.Read;
      Ops.arg_dat coarse Ops.stencil_point Access.Write;
    ]
    (fun a ->
      (* quad order: (0,0) (1,0) (0,1) (1,1) on the fine grid at (2x, 2y) *)
      a.(1).(0) <- a.(0).(0));
  for y = 0 to 3 do
    for x = 0 to 3 do
      Alcotest.(check (float 0.0))
        (Printf.sprintf "coarse(%d,%d) = fine(2x,2y)" x y)
        (Float.of_int ((2 * x) + (200 * y)))
        (Ops.get coarse ~x ~y ~c:0)
    done
  done

let test_prolong_gather () =
  let ctx = Ops.create () in
  let grid = Ops.decl_block ctx ~name:"g" in
  let fine = Ops.decl_dat ctx ~name:"fine" ~block:grid ~xsize:8 ~ysize:8 () in
  let coarse = Ops.decl_dat ctx ~name:"coarse" ~block:grid ~xsize:4 ~ysize:4 () in
  Ops.init ctx coarse (fun x y _ -> Float.of_int (x + (10 * y)));
  Ops.par_loop ctx ~name:"prolong" grid (Ops.interior fine)
    [
      Ops.arg_dat_prolong coarse Ops.stencil_point ~factor:2 Access.Read;
      Ops.arg_dat fine Ops.stencil_point Access.Write;
    ]
    (fun a -> a.(1).(0) <- a.(0).(0));
  for y = 0 to 7 do
    for x = 0 to 7 do
      Alcotest.(check (float 0.0))
        (Printf.sprintf "fine(%d,%d) = coarse(x/2,y/2)" x y)
        (Float.of_int ((x / 2) + (10 * (y / 2))))
        (Ops.get fine ~x ~y ~c:0)
    done
  done

let test_strided_write_rejected () =
  let ctx = Ops.create () in
  let grid = Ops.decl_block ctx ~name:"g" in
  let fine = Ops.decl_dat ctx ~name:"fine" ~block:grid ~xsize:8 ~ysize:8 () in
  let coarse = Ops.decl_dat ctx ~name:"coarse" ~block:grid ~xsize:4 ~ysize:4 () in
  expect_invalid (fun () ->
      Ops.par_loop ctx ~name:"bad" grid (Ops.interior coarse)
        [
          Ops.arg_dat_restrict fine Ops.stencil_point ~factor:2 Access.Write;
          Ops.arg_dat coarse Ops.stencil_point Access.Read;
        ]
        ignore)

let test_strided_rejected_on_dist () =
  let ctx = Ops.create () in
  let grid = Ops.decl_block ctx ~name:"g" in
  let fine = Ops.decl_dat ctx ~name:"fine" ~block:grid ~xsize:8 ~ysize:8 () in
  let other = Ops.decl_dat ctx ~name:"other" ~block:grid ~xsize:8 ~ysize:8 () in
  Ops.partition ctx ~n_ranks:2 ~ref_ysize:8;
  expect_invalid (fun () ->
      Ops.par_loop ctx ~name:"bad" grid { Ops.xlo = 0; xhi = 4; ylo = 0; yhi = 4 }
        [
          Ops.arg_dat_restrict fine Ops.stencil_point ~factor:2 Access.Read;
          Ops.arg_dat other Ops.stencil_point Access.Write;
        ]
        ignore)

let test_strided_cuda_matches_seq () =
  let run backend =
    let ctx = Ops.create ?backend () in
    let grid = Ops.decl_block ctx ~name:"g" in
    let fine = Ops.decl_dat ctx ~name:"fine" ~block:grid ~xsize:12 ~ysize:12 () in
    let coarse = Ops.decl_dat ctx ~name:"coarse" ~block:grid ~xsize:6 ~ysize:6 () in
    Ops.init ctx fine (fun x y _ -> sin (0.5 *. Float.of_int ((x * 3) + y)));
    Ops.par_loop ctx ~name:"restrict" grid (Ops.interior coarse)
      [
        Ops.arg_dat_restrict fine Ops.stencil_2d_quad ~factor:2 Access.Read;
        Ops.arg_dat coarse Ops.stencil_point Access.Write;
      ]
      (fun a -> a.(1).(0) <- 0.25 *. (a.(0).(0) +. a.(0).(1) +. a.(0).(2) +. a.(0).(3)));
    Ops.fetch_interior ctx coarse
  in
  let seq = run None in
  let cuda =
    run (Some (Ops.Cuda_sim { Am_ops.Exec.tile_x = 4; tile_y = 4; strategy = Am_ops.Exec.Cuda_tiled }))
  in
  Alcotest.(check bool) "cuda tiled matches with strided args" true
    (Fa.approx_equal ~tol:0.0 seq cuda)

(* ---- Multi-block halos ---- *)

let test_multiblock_identity_halo () =
  let ctx = Ops.create () in
  let left = Ops.decl_block ctx ~name:"left" in
  let right = Ops.decl_block ctx ~name:"right" in
  let a = Ops.decl_dat ctx ~name:"a" ~block:left ~xsize:6 ~ysize:4 ~halo:2 () in
  let b = Ops.decl_dat ctx ~name:"b" ~block:right ~xsize:6 ~ysize:4 ~halo:2 () in
  Ops.init ctx a (fun x y _ -> Float.of_int ((100 * x) + y));
  Ops.init ctx b (fun _ _ _ -> 0.0);
  (* a's rightmost interior column feeds b's left ghost column. *)
  let h =
    Ops.decl_halo ctx ~name:"a->b" ~src:a ~dst:b
      ~src_range:{ Ops.xlo = 5; xhi = 6; ylo = 0; yhi = 4 }
      ~dst_range:{ Ops.xlo = -1; xhi = 0; ylo = 0; yhi = 4 }
      ()
  in
  Ops.halo_transfer ctx [ h ];
  for y = 0 to 3 do
    Alcotest.(check (float 0.0))
      (Printf.sprintf "row %d" y)
      (Float.of_int (500 + y))
      (Ops.get b ~x:(-1) ~y ~c:0)
  done

let test_multiblock_rejects_mismatch () =
  let ctx = Ops.create () in
  let blk = Ops.decl_block ctx ~name:"b" in
  let a = Ops.decl_dat ctx ~name:"a" ~block:blk ~xsize:6 ~ysize:4 () in
  let b = Ops.decl_dat ctx ~name:"b" ~block:blk ~xsize:6 ~ysize:4 () in
  expect_invalid (fun () ->
      Ops.decl_halo ctx ~name:"bad" ~src:a ~dst:b
        ~src_range:{ Ops.xlo = 0; xhi = 2; ylo = 0; yhi = 4 }
        ~dst_range:{ Ops.xlo = 0; xhi = 1; ylo = 0; yhi = 4 }
        ())

(* ---- Instrumentation ---- *)

let test_profile_and_trace () =
  let m = build_mini () in
  Am_core.Trace.set_enabled (Ops.trace m.ctx) true;
  ignore (run_mini m 2);
  (match Am_core.Profile.find (Ops.profile m.ctx) "diffuse" with
  | None -> Alcotest.fail "diffuse not profiled"
  | Some e -> Alcotest.(check int) "calls" 2 e.Am_core.Profile.count);
  let events = Am_core.Trace.events (Ops.trace m.ctx) in
  Alcotest.(check int) "loops traced" 4 (List.length events)

(* ---- Properties ---- *)

(* With zero-flux dynamics (pure copy), any backend and any decomposition
   must reproduce the field exactly. *)
let prop_dist_exact_for_copy =
  QCheck.Test.make ~name:"copy loop exact under any decomposition" ~count:30
    (QCheck.make
       QCheck.Gen.(triple (int_range 5 20) (int_range 5 20) (int_range 1 4)))
    (fun (nx, ny, n_ranks) ->
      QCheck.assume (ny / n_ranks >= 2);
      let make part =
        let ctx = Ops.create () in
        let grid = Ops.decl_block ctx ~name:"grid" in
        let u = Ops.decl_dat ctx ~name:"u" ~block:grid ~xsize:nx ~ysize:ny ~halo:2 () in
        let v = Ops.decl_dat ctx ~name:"v" ~block:grid ~xsize:nx ~ysize:ny ~halo:2 () in
        Ops.init ctx u (fun x y _ -> Float.of_int ((x * 7) + (y * 13)));
        if part then Ops.partition ctx ~n_ranks ~ref_ysize:ny;
        Ops.par_loop ctx ~name:"shift" grid (Ops.interior u)
          [
            Ops.arg_dat u Ops.stencil_2d_plus1x Access.Read;
            Ops.arg_dat v Ops.stencil_point Access.Write;
          ]
          (fun a -> a.(1).(0) <- a.(0).(1));
        Ops.fetch_interior ctx v
      in
      Fa.approx_equal ~tol:0.0 (make false) (make true))

(* Random-stencil equivalence: a loop reading through a random (in-halo)
   stencil and writing centre-only must agree between the sequential
   reference and a random backend/decomposition. *)
let prop_random_stencil_backend_equivalence =
  QCheck.Test.make ~name:"random stencils agree on every backend" ~count:40
    (QCheck.make
       QCheck.Gen.(
         quad (int_range 0 1000) (int_range 6 20) (int_range 6 20) (int_range 0 3)))
    (fun (seed, nx, ny, which) ->
      QCheck.assume (ny / 3 >= 2);
      let rng = Am_util.Prng.create seed in
      let n_points = 1 + Am_util.Prng.int rng 5 in
      let stencil =
        Array.init n_points (fun i ->
            if i = 0 then (0, 0)
            else (Am_util.Prng.int rng 5 - 2, Am_util.Prng.int rng 5 - 2))
      in
      let weights = Array.init n_points (fun _ -> Am_util.Prng.float_range rng (-1.0) 1.0) in
      let run configure =
        let ctx = Ops.create () in
        let grid = Ops.decl_block ctx ~name:"grid" in
        let u = Ops.decl_dat ctx ~name:"u" ~block:grid ~xsize:nx ~ysize:ny ~halo:2 () in
        let w = Ops.decl_dat ctx ~name:"w" ~block:grid ~xsize:nx ~ysize:ny ~halo:2 () in
        Ops.init ctx u (fun x y _ -> cos (0.3 *. Float.of_int ((x * 5) + (y * 11))));
        configure ctx;
        Ops.par_loop ctx ~name:"rand_stencil" grid (Ops.interior u)
          [
            Ops.arg_dat u stencil Access.Read;
            Ops.arg_dat w Ops.stencil_point Access.Write;
          ]
          (fun a ->
            let acc = ref 0.0 in
            for p = 0 to n_points - 1 do
              acc := !acc +. (weights.(p) *. a.(0).(p))
            done;
            a.(1).(0) <- !acc);
        Ops.fetch_interior ctx w
      in
      let reference = run (fun _ -> ()) in
      let result =
        run (fun ctx ->
            match which with
            | 0 -> Ops.partition ctx ~n_ranks:3 ~ref_ysize:ny
            | 1 ->
              Ops.set_backend ctx
                (Ops.Cuda_sim
                   { Am_ops.Exec.tile_x = 4; tile_y = 4;
                     strategy = Am_ops.Exec.Cuda_tiled })
            | 2 ->
              Ops.set_backend ctx
                (Ops.Cuda_sim
                   { Am_ops.Exec.tile_x = 8; tile_y = 2;
                     strategy = Am_ops.Exec.Cuda_global })
            | _ -> Ops.partition_grid ctx ~px:2 ~py:2 ~ref_xsize:nx ~ref_ysize:ny)
      in
      Fa.approx_equal ~tol:0.0 reference result)

(* A Cuda_sim tile size below 1 on any facade, at [create] and at
   [set_backend], and a negative mirror depth, are refused by name;
   depth 0 still mirrors nothing and returns. *)
let test_tile_and_depth_refused () =
  let refused what ~names f =
    match f () with
    | () -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument msg ->
      List.iter
        (fun n ->
          if not (Str_contains.contains msg n) then
            Alcotest.failf "%s: %S does not name %S" what msg n)
        names
  in
  let ops ~tile_x ~tile_y strategy = Ops.Cuda_sim { Am_ops.Exec.tile_x; tile_y; strategy } in
  List.iter
    (fun (what, backend, field) ->
      refused ("Ops.create " ^ what) ~names:[ "Ops.create"; field ] (fun () ->
          ignore (Ops.create ~backend ()));
      refused ("Ops.set_backend " ^ what) ~names:[ "Ops.set_backend"; field ] (fun () ->
          Ops.set_backend (Ops.create ()) backend))
    [
      ("tile_y -1, tiled", ops ~tile_x:4 ~tile_y:(-1) Am_ops.Exec.Cuda_tiled, "tile_y");
      ("tile_x -2, global", ops ~tile_x:(-2) ~tile_y:4 Am_ops.Exec.Cuda_global, "tile_x");
      ("tile_x 0", ops ~tile_x:0 ~tile_y:4 Am_ops.Exec.Cuda_tiled, "tile_x");
    ];
  let ops1 = Ops1.Cuda_sim { Am_ops.Exec.tile_x = 0; staged = true } in
  refused "Ops1.create tile_x 0" ~names:[ "Ops1.create"; "tile_x" ] (fun () ->
      ignore (Ops1.create ~backend:ops1 ()));
  refused "Ops1.set_backend tile_x 0" ~names:[ "Ops1.set_backend"; "tile_x" ] (fun () ->
      Ops1.set_backend (Ops1.create ()) ops1);
  let ops3 = Ops3.Cuda_sim { Am_ops.Exec.tile_x = 4; tile_y = 4; tile_z = 0; staged = true } in
  refused "Ops3.create tile_z 0" ~names:[ "Ops3.create"; "tile_z" ] (fun () ->
      ignore (Ops3.create ~backend:ops3 ()));
  refused "Ops3.set_backend tile_z 0" ~names:[ "Ops3.set_backend"; "tile_z" ] (fun () ->
      Ops3.set_backend (Ops3.create ()) ops3);
  (* The copy loop of the report still runs at tile size 1. *)
  let ctx =
    Ops.create ~backend:(ops ~tile_x:1 ~tile_y:1 Am_ops.Exec.Cuda_tiled) ()
  in
  let grid = Ops.decl_block ctx ~name:"grid" in
  let src = Ops.decl_dat ctx ~name:"src" ~block:grid ~xsize:6 ~ysize:5 () in
  let dst = Ops.decl_dat ctx ~name:"dst" ~block:grid ~xsize:6 ~ysize:5 () in
  Ops.init ctx src (fun x y _ -> Float.of_int (x + (10 * y)));
  Ops.par_loop ctx ~name:"copy" grid (Ops.interior src)
    [ Ops.arg_dat src Ops.stencil_point Access.Read; Ops.arg_dat dst Ops.stencil_point Access.Write ]
    (fun b -> b.(1).(0) <- b.(0).(0));
  Alcotest.(check bool) "tile 1x1: the copy ran" true
    (Ops.fetch_interior ctx src = Ops.fetch_interior ctx dst);
  refused "mirror_halo depth -1" ~names:[ "Ops.mirror_halo"; "depth -1" ] (fun () ->
      Ops.mirror_halo ctx ~depth:(-1) dst);
  let before = Array.copy dst.Am_ops.Types.data in
  Ops.mirror_halo ctx ~depth:0 dst;
  Alcotest.(check bool) "mirror_halo depth 0: nothing mirrored" true
    (before = dst.Am_ops.Types.data)

let () =
  Alcotest.run "ops"
    [
      ( "backend equivalence",
        [
          Alcotest.test_case "shared = seq" `Quick test_shared_matches;
          Alcotest.test_case "cuda global = seq" `Quick test_cuda_global_matches;
          Alcotest.test_case "cuda tiled = seq" `Quick test_cuda_tiled_matches;
          Alcotest.test_case "dist(2) = seq" `Quick (dist_test 2);
          Alcotest.test_case "dist(4) = seq" `Quick (dist_test 4);
          Alcotest.test_case "dist traffic" `Quick test_dist_traffic;
          Alcotest.test_case "depth-aware exchange" `Quick test_depth_aware_exchange;
          Alcotest.test_case "ghost-level mirror" `Quick test_mirror_ghost_cells;
          Alcotest.test_case "center-only: no traffic" `Quick
            test_dist_center_only_no_traffic;
          Alcotest.test_case "staggered dat" `Quick test_dist_staggered_dat;
          Alcotest.test_case "ghost-row BCs" `Quick test_dist_ghost_row_bc;
        ] );
      ( "reductions/args",
        [
          Alcotest.test_case "min/max" `Quick test_gbl_min_max;
          Alcotest.test_case "arg_idx" `Quick test_arg_idx;
        ] );
      ( "validation",
        [
          Alcotest.test_case "par_loop misuse" `Quick test_validation;
          Alcotest.test_case "partition misuse" `Quick test_partition_errors;
          Alcotest.test_case "tile size below 1, negative mirror depth" `Quick
            test_tile_and_depth_refused;
        ] );
      ( "strided stencils",
        [
          Alcotest.test_case "restrict gather" `Quick test_restrict_gather;
          Alcotest.test_case "prolong gather" `Quick test_prolong_gather;
          Alcotest.test_case "strided write rejected" `Quick test_strided_write_rejected;
          Alcotest.test_case "rejected on dist" `Quick test_strided_rejected_on_dist;
          Alcotest.test_case "cuda tiled with strided args" `Quick
            test_strided_cuda_matches_seq;
        ] );
      ( "multiblock",
        [
          Alcotest.test_case "identity halo" `Quick test_multiblock_identity_halo;
          Alcotest.test_case "mismatch rejected" `Quick test_multiblock_rejects_mismatch;
        ] );
      ( "instrumentation",
        [ Alcotest.test_case "profile and trace" `Quick test_profile_and_trace ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_dist_exact_for_copy;
          QCheck_alcotest.to_alcotest prop_random_stencil_backend_equivalence;
        ] );
    ]

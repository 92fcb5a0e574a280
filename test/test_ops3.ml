(* Tests for the 3D structured-mesh library: backend equivalence on a 3D
   heat problem, validation, staggered datasets and slab distribution. *)

module Ops3 = Am_ops.Ops3
module Access = Am_core.Access
module Fa = Am_util.Fa
module Pool = Am_taskpool.Pool

let nx = 9 and ny = 8 and nz = 10

type mini = { ctx : Ops3.ctx; grid : Ops3.block; u : Ops3.dat; w : Ops3.dat }

let build () =
  let ctx = Ops3.create () in
  let grid = Ops3.decl_block ctx ~name:"grid" in
  let u =
    Ops3.decl_dat ctx ~name:"u" ~block:grid ~xsize:nx ~ysize:ny ~zsize:nz ~halo:2 ()
  in
  let w =
    Ops3.decl_dat ctx ~name:"w" ~block:grid ~xsize:nx ~ysize:ny ~zsize:nz ~halo:2 ()
  in
  Ops3.init ctx u (fun x y z _ ->
      sin (0.4 *. Float.of_int x) +. cos (0.3 *. Float.of_int y)
      +. (0.2 *. Float.of_int z));
  { ctx; grid; u; w }

let diffuse args =
  (* stencil_7pt: centre, -x, +x, -y, +y, -z, +z *)
  let u = args.(0) and w = args.(1) in
  w.(0) <-
    u.(0)
    +. (0.08 *. (u.(1) +. u.(2) +. u.(3) +. u.(4) +. u.(5) +. u.(6) -. (6.0 *. u.(0))))

let copy args = args.(1).(0) <- args.(0).(0)

let run m steps =
  let interior = Ops3.interior m.u in
  let total = [| 0.0 |] in
  for _ = 1 to steps do
    Ops3.par_loop m.ctx ~name:"diffuse" m.grid interior
      [
        Ops3.arg_dat m.u Ops3.stencil_7pt Access.Read;
        Ops3.arg_dat m.w Ops3.stencil_point Access.Write;
      ]
      diffuse;
    Array.fill total 0 1 0.0;
    Ops3.par_loop m.ctx ~name:"copy" m.grid interior
      [
        Ops3.arg_dat m.w Ops3.stencil_point Access.Read;
        Ops3.arg_dat m.u Ops3.stencil_point Access.Write;
        Ops3.arg_gbl ~name:"total" total Access.Inc;
      ]
      (fun a ->
        copy a;
        a.(2).(0) <- a.(2).(0) +. a.(0).(0))
  done;
  (Ops3.fetch_interior m.ctx m.u, total.(0))

let reference = lazy (run (build ()) 5)

let check name (u, total) =
  let ref_u, ref_total = Lazy.force reference in
  if not (Fa.approx_equal ~tol:1e-10 ref_u u) then
    Alcotest.failf "%s: field diverges (%g)" name (Fa.rel_discrepancy ref_u u);
  if Float.abs (total -. ref_total) /. (1.0 +. Float.abs ref_total) > 1e-10 then
    Alcotest.failf "%s: reduction diverges" name

let test_shared () =
  Pool.with_pool ~size:4 (fun pool ->
      let m = build () in
      Ops3.set_backend m.ctx (Ops3.Shared { pool });
      check "shared" (run m 5))

let test_cuda_global () =
  let m = build () in
  Ops3.set_backend m.ctx
    (Ops3.Cuda_sim { Am_ops.Exec.tile_x = 4; tile_y = 3; tile_z = 2; staged = false });
  check "cuda global" (run m 5)

let test_cuda_staged () =
  let m = build () in
  Ops3.set_backend m.ctx
    (Ops3.Cuda_sim { Am_ops.Exec.tile_x = 4; tile_y = 3; tile_z = 2; staged = true });
  check "cuda staged" (run m 5)

let dist_test n_ranks () =
  let m = build () in
  Ops3.partition m.ctx ~n_ranks ~ref_zsize:nz;
  check (Printf.sprintf "dist(%d)" n_ranks) (run m 5)

let test_hybrid () =
  Pool.with_pool ~size:4 (fun pool ->
      let m = build () in
      Ops3.partition m.ctx ~n_ranks:3 ~ref_zsize:nz;
      Ops3.set_rank_execution m.ctx (Ops3.Rank_shared pool);
      check "dist(3)+shared" (run m 5))

let test_checkpoint_recovery () =
  (* Run 5 steps with a checkpoint requested mid-run, save to file, then
     recover into a freshly built context and replay the same program: the
     recovered run must land on the identical state. *)
  let path = Filename.temp_file "ops3_ckpt" ".bin" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let m = build () in
      Ops3.enable_checkpointing m.ctx;
      ignore (run m 2);
      Ops3.request_checkpoint m.ctx;
      let expect = run m 3 in
      Ops3.checkpoint_to_file m.ctx ~path;
      let m2 = build () in
      (* Different initial data: recovery must restore the snapshot. *)
      Ops3.init m2.ctx m2.u (fun _ _ _ _ -> 42.0);
      Ops3.recover_from_file m2.ctx ~path;
      ignore (run m2 2);
      let got = run m2 3 in
      let eu, et = expect and gu, gt = got in
      if not (Fa.approx_equal ~tol:0.0 eu gu) then
        Alcotest.fail "recovered field differs";
      Alcotest.(check (float 0.0)) "recovered reduction" et gt)

let test_dist_traffic () =
  let m = build () in
  Ops3.partition m.ctx ~n_ranks:3 ~ref_zsize:nz;
  ignore (run m 2);
  match Ops3.comm_stats m.ctx with
  | None -> Alcotest.fail "expected stats"
  | Some s ->
    Alcotest.(check bool) "planes exchanged" true (s.Am_simmpi.Comm.exchanges > 0)

let test_ghost_plane_bc () =
  (* Write a ghost plane, read it back through a -z stencil: the edge rank
     owns the global ghost planes. *)
  let run n_ranks =
    let ctx = Ops3.create () in
    let grid = Ops3.decl_block ctx ~name:"grid" in
    let u = Ops3.decl_dat ctx ~name:"u" ~block:grid ~xsize:4 ~ysize:4 ~zsize:8 ~halo:2 () in
    let w = Ops3.decl_dat ctx ~name:"w" ~block:grid ~xsize:4 ~ysize:4 ~zsize:8 ~halo:2 () in
    Ops3.init ctx u (fun x y z _ -> Float.of_int ((x * 100) + (y * 10) + z));
    if n_ranks > 1 then Ops3.partition ctx ~n_ranks ~ref_zsize:8;
    Ops3.par_loop ctx ~name:"bc" grid
      { xlo = 0; xhi = 4; ylo = 0; yhi = 4; zlo = -1; zhi = 0 }
      [ Ops3.arg_dat u Ops3.stencil_point Access.Write ]
      (fun a -> a.(0).(0) <- 7.0);
    Ops3.par_loop ctx ~name:"probe" grid
      { xlo = 0; xhi = 4; ylo = 0; yhi = 4; zlo = 0; zhi = 8 }
      [
        Ops3.arg_dat u [| (0, 0, 0); (0, 0, -1) |] Access.Read;
        Ops3.arg_dat w Ops3.stencil_point Access.Write;
      ]
      (fun a -> a.(1).(0) <- a.(0).(1));
    Ops3.fetch_interior ctx w
  in
  let seq = run 1 and dist = run 3 in
  Alcotest.(check bool) "bc visible" true (Fa.approx_equal ~tol:0.0 seq dist);
  Alcotest.(check (float 0.0)) "z0 reads bc" 7.0 seq.(0)

let test_validation () =
  let m = build () in
  (* Offset write rejected. *)
  (match
     Ops3.par_loop m.ctx ~name:"bad" m.grid (Ops3.interior m.u)
       [ Ops3.arg_dat m.u Ops3.stencil_7pt Access.Write ]
       ignore
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "offset write accepted");
  (* Stencil out of the shell. *)
  match
    Ops3.par_loop m.ctx ~name:"bad" m.grid
      { xlo = 0; xhi = nx; ylo = 0; yhi = ny; zlo = -2; zhi = nz }
      [ Ops3.arg_dat m.u [| (0, 0, -1) |] Access.Read ]
      ignore
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-shell stencil accepted"

let test_arg_idx () =
  let m = build () in
  Ops3.par_loop m.ctx ~name:"coords" m.grid (Ops3.interior m.u)
    [ Ops3.arg_dat m.u Ops3.stencil_point Access.Write; Ops3.arg_idx ]
    (fun a -> a.(0).(0) <- a.(1).(0) +. (10.0 *. a.(1).(1)) +. (100.0 *. a.(1).(2)));
  Alcotest.(check (float 0.0)) "(2,3,4)" 432.0 (Ops3.get m.u ~x:2 ~y:3 ~z:4 ~c:0)

let test_conservation_with_sealed_walls () =
  (* With mirrored (zero-flux) boundaries the 7-point diffusion conserves
     the total. Mirror by hand via init symmetry: instead check interior sum
     changes only through boundary flux: with zero ghost values, the total
     decays monotonically. *)
  let m = build () in
  let sum run_of = Fa.sum run_of in
  let s0 = sum (Ops3.fetch_interior m.ctx m.u) in
  ignore (run m 10);
  let s1 = sum (Ops3.fetch_interior m.ctx m.u) in
  Alcotest.(check bool) "finite" true (Float.is_finite s1);
  Alcotest.(check bool) "bounded drift" true (Float.abs (s1 -. s0) < Float.abs s0 +. 10.0)

(* ---- Grid-transfer (multigrid) stencils in 3D ---- *)

let test_restrict_gather_3d () =
  let ctx = Ops3.create () in
  let grid = Ops3.decl_block ctx ~name:"g" in
  let fine =
    Ops3.decl_dat ctx ~name:"fine" ~block:grid ~xsize:8 ~ysize:8 ~zsize:8 ()
  in
  let coarse =
    Ops3.decl_dat ctx ~name:"coarse" ~block:grid ~xsize:4 ~ysize:4 ~zsize:4 ()
  in
  Ops3.init ctx fine (fun x y z _ -> Float.of_int (x + (10 * y) + (100 * z)));
  Ops3.par_loop ctx ~name:"restrict" grid (Ops3.interior coarse)
    [
      Ops3.arg_dat_restrict fine Ops3.stencil_point ~factor:2 Access.Read;
      Ops3.arg_dat coarse Ops3.stencil_point Access.Write;
    ]
    (fun a -> a.(1).(0) <- a.(0).(0));
  for z = 0 to 3 do
    for y = 0 to 3 do
      for x = 0 to 3 do
        Alcotest.(check (float 0.0))
          (Printf.sprintf "coarse(%d,%d,%d)" x y z)
          (Float.of_int ((2 * x) + (20 * y) + (200 * z)))
          (Ops3.get coarse ~x ~y ~z ~c:0)
      done
    done
  done

let test_prolong_gather_3d () =
  let ctx = Ops3.create () in
  let grid = Ops3.decl_block ctx ~name:"g" in
  let fine =
    Ops3.decl_dat ctx ~name:"fine" ~block:grid ~xsize:8 ~ysize:8 ~zsize:6 ()
  in
  let coarse =
    Ops3.decl_dat ctx ~name:"coarse" ~block:grid ~xsize:4 ~ysize:4 ~zsize:3 ()
  in
  Ops3.init ctx coarse (fun x y z _ -> Float.of_int (x + (10 * y) + (100 * z)));
  Ops3.par_loop ctx ~name:"prolong" grid (Ops3.interior fine)
    [
      Ops3.arg_dat_prolong coarse Ops3.stencil_point ~factor:2 Access.Read;
      Ops3.arg_dat fine Ops3.stencil_point Access.Write;
    ]
    (fun a -> a.(1).(0) <- a.(0).(0));
  for z = 0 to 5 do
    for y = 0 to 7 do
      for x = 0 to 7 do
        Alcotest.(check (float 0.0))
          (Printf.sprintf "fine(%d,%d,%d)" x y z)
          (Float.of_int ((x / 2) + (10 * (y / 2)) + (100 * (z / 2))))
          (Ops3.get fine ~x ~y ~z ~c:0)
      done
    done
  done

let test_strided_rejected_3d () =
  let ctx = Ops3.create () in
  let grid = Ops3.decl_block ctx ~name:"g" in
  let fine = Ops3.decl_dat ctx ~name:"fine" ~block:grid ~xsize:8 ~ysize:8 ~zsize:8 () in
  let coarse =
    Ops3.decl_dat ctx ~name:"coarse" ~block:grid ~xsize:4 ~ysize:4 ~zsize:4 ()
  in
  (* Strided writes are loop-carried races: rejected. *)
  (match
     Ops3.par_loop ctx ~name:"bad" grid (Ops3.interior coarse)
       [ Ops3.arg_dat_restrict fine Ops3.stencil_point ~factor:2 Access.Write ]
       ignore
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "strided write accepted");
  (* And strided reads are unsupported on partitioned contexts. *)
  Ops3.partition ctx ~n_ranks:2 ~ref_zsize:4;
  match
    Ops3.par_loop ctx ~name:"bad" grid (Ops3.interior coarse)
      [
        Ops3.arg_dat_restrict fine Ops3.stencil_point ~factor:2 Access.Read;
        Ops3.arg_dat coarse Ops3.stencil_point Access.Write;
      ]
      (fun a -> a.(1).(0) <- a.(0).(0))
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "strided arg accepted on partitioned context"

let test_two_grid_beats_jacobi_3d () =
  (* End-to-end 3D multigrid through the strided arguments: one two-grid
     cycle (3 pre-smooths, coarse solve, trilinear-ish correction, 3
     post-smooths) must beat the same fine-sweep budget of damped Jacobi. *)
  let n = 16 in
  let h = 1.0 /. Float.of_int n in
  let omega = 0.8 in
  let build () =
    let ctx = Ops3.create () in
    let grid = Ops3.decl_block ctx ~name:"g" in
    let fine name = Ops3.decl_dat ctx ~name ~block:grid ~xsize:n ~ysize:n ~zsize:n () in
    let coarse name =
      Ops3.decl_dat ctx ~name ~block:grid ~xsize:(n / 2) ~ysize:(n / 2)
        ~zsize:(n / 2) ()
    in
    let u = fine "u" and un = fine "un" and f = fine "f" and r = fine "r" in
    let rc = coarse "rc" and ec = coarse "ec" and ecn = coarse "ecn" in
    Ops3.init ctx f (fun x y z _ ->
        let p c = Float.of_int c *. h in
        30.0 *. exp (-20.0 *. (((p x -. 0.4) ** 2.) +. ((p y -. 0.5) ** 2.)
                               +. ((p z -. 0.6) ** 2.))));
    (ctx, grid, u, un, f, r, rc, ec, ecn)
  in
  let jacobi ctx grid ~u ~un ~rhs ~spacing =
    Ops3.par_loop ctx ~name:"jacobi" grid (Ops3.interior u)
      [
        Ops3.arg_dat u Ops3.stencil_7pt Access.Read;
        Ops3.arg_dat rhs Ops3.stencil_point Access.Read;
        Ops3.arg_dat un Ops3.stencil_point Access.Write;
      ]
      (fun a ->
        let u = a.(0) in
        let relaxed =
          (u.(1) +. u.(2) +. u.(3) +. u.(4) +. u.(5) +. u.(6)
          +. (spacing *. spacing *. a.(1).(0)))
          /. 6.0
        in
        a.(2).(0) <- ((1.0 -. omega) *. u.(0)) +. (omega *. relaxed));
    Ops3.par_loop ctx ~name:"copy" grid (Ops3.interior u)
      [ Ops3.arg_dat un Ops3.stencil_point Access.Read;
        Ops3.arg_dat u Ops3.stencil_point Access.Write ]
      (fun a -> a.(1).(0) <- a.(0).(0))
  in
  let residual ctx grid ~u ~rhs ~r ~spacing =
    let acc = [| 0.0 |] in
    Ops3.par_loop ctx ~name:"residual" grid (Ops3.interior u)
      [
        Ops3.arg_dat u Ops3.stencil_7pt Access.Read;
        Ops3.arg_dat rhs Ops3.stencil_point Access.Read;
        Ops3.arg_dat r Ops3.stencil_point Access.Write;
        Ops3.arg_gbl ~name:"n2" acc Access.Inc;
      ]
      (fun a ->
        let u = a.(0) in
        let lap =
          (u.(1) +. u.(2) +. u.(3) +. u.(4) +. u.(5) +. u.(6) -. (6.0 *. u.(0)))
          /. (spacing *. spacing)
        in
        let res = a.(1).(0) +. lap in
        a.(2).(0) <- res;
        a.(3).(0) <- a.(3).(0) +. (res *. res));
    sqrt acc.(0)
  in
  (* Octant restriction stencil: the 8 fine cells of a coarse cell. *)
  let s_oct : Ops3.stencil =
    [| (0, 0, 0); (1, 0, 0); (0, 1, 0); (1, 1, 0);
       (0, 0, 1); (1, 0, 1); (0, 1, 1); (1, 1, 1) |]
  in
  let s27 =
    Array.init 27 (fun i -> ((i mod 3) - 1, (i / 3 mod 3) - 1, (i / 9) - 1))
  in
  let cycle (ctx, grid, u, un, f, r, rc, ec, ecn) =
    for _ = 1 to 3 do jacobi ctx grid ~u ~un ~rhs:f ~spacing:h done;
    ignore (residual ctx grid ~u ~rhs:f ~r ~spacing:h);
    Ops3.par_loop ctx ~name:"restrict" grid (Ops3.interior rc)
      [
        Ops3.arg_dat_restrict r s_oct ~factor:2 Access.Read;
        Ops3.arg_dat rc Ops3.stencil_point Access.Write;
      ]
      (fun a ->
        let s = ref 0.0 in
        for p = 0 to 7 do s := !s +. a.(0).(p) done;
        a.(1).(0) <- 0.125 *. !s);
    Ops3.par_loop ctx ~name:"zero" grid (Ops3.interior ec)
      [ Ops3.arg_dat ec Ops3.stencil_point Access.Write ]
      (fun a -> a.(0).(0) <- 0.0);
    for _ = 1 to 200 do jacobi ctx grid ~u:ec ~un:ecn ~rhs:rc ~spacing:(2.0 *. h) done;
    (* Trilinear prolongation with parity-dependent 0.75/0.25 weights. *)
    Ops3.par_loop ctx ~name:"prolong" grid (Ops3.interior u)
      [
        Ops3.arg_dat_prolong ec s27 ~factor:2 Access.Read;
        Ops3.arg_dat u Ops3.stencil_point Access.Rw;
        Ops3.arg_idx;
      ]
      (fun a ->
        let xi = Float.to_int a.(2).(0) and yi = Float.to_int a.(2).(1) in
        let zi = Float.to_int a.(2).(2) in
        let w parity o =
          if parity = 0 then (if o = 0 then 0.75 else if o = -1 then 0.25 else 0.0)
          else if o = 0 then 0.75
          else if o = 1 then 0.25
          else 0.0
        in
        let corr = ref 0.0 in
        Array.iteri
          (fun p (ox, oy, oz) ->
            corr :=
              !corr
              +. (w (xi land 1) ox *. w (yi land 1) oy *. w (zi land 1) oz *. a.(0).(p)))
          s27;
        a.(1).(0) <- a.(1).(0) +. !corr);
    for _ = 1 to 3 do jacobi ctx grid ~u ~un ~rhs:f ~spacing:h done
  in
  (* Budget-matched plain Jacobi: 2 cycles ~ 2*(6 + 200/8 + transfers) ~ 66. *)
  let ctx_j, grid_j, u_j, un_j, f_j, r_j, _, _, _ = build () in
  for _ = 1 to 66 do jacobi ctx_j grid_j ~u:u_j ~un:un_j ~rhs:f_j ~spacing:h done;
  let jac = residual ctx_j grid_j ~u:u_j ~rhs:f_j ~r:r_j ~spacing:h in
  let ((ctx_m, grid_m, u_m, _, f_m, r_m, _, _, _) as pm) = build () in
  cycle pm;
  cycle pm;
  let mg = residual ctx_m grid_m ~u:u_m ~rhs:f_m ~r:r_m ~spacing:h in
  Alcotest.(check bool)
    (Printf.sprintf "two-grid beats jacobi (%.3e vs %.3e)" mg jac)
    true (mg < jac /. 3.0)

(* ---- Multi-block halos (3D) ---- *)

let test_multiblock_identity_halo () =
  let ctx = Ops3.create () in
  let left = Ops3.decl_block ctx ~name:"left" in
  let right = Ops3.decl_block ctx ~name:"right" in
  let a = Ops3.decl_dat ctx ~name:"a" ~block:left ~xsize:5 ~ysize:4 ~zsize:3 ~halo:2 () in
  let b = Ops3.decl_dat ctx ~name:"b" ~block:right ~xsize:5 ~ysize:4 ~zsize:3 ~halo:2 () in
  Ops3.init ctx a (fun x y z _ -> Float.of_int ((100 * x) + (10 * y) + z));
  Ops3.init ctx b (fun _ _ _ _ -> 0.0);
  (* a's rightmost interior x-plane feeds b's left ghost plane. *)
  let h =
    Ops3.decl_halo ctx ~name:"a->b" ~src:a ~dst:b
      ~src_range:{ Ops3.xlo = 4; xhi = 5; ylo = 0; yhi = 4; zlo = 0; zhi = 3 }
      ~dst_range:{ Ops3.xlo = -1; xhi = 0; ylo = 0; yhi = 4; zlo = 0; zhi = 3 }
      ()
  in
  Ops3.halo_transfer ctx [ h ];
  for z = 0 to 2 do
    for y = 0 to 3 do
      Alcotest.(check (float 0.0))
        (Printf.sprintf "y%d z%d" y z)
        (Float.of_int (400 + (10 * y) + z))
        (Ops3.get b ~x:(-1) ~y ~z ~c:0)
    done
  done

let test_multiblock_oriented_halo () =
  (* Axis swap across the interface: source (y, z) face maps to
     destination (z, y) — the 3D orientation matrix at work. *)
  let ctx = Ops3.create () in
  let blk = Ops3.decl_block ctx ~name:"blk" in
  let a = Ops3.decl_dat ctx ~name:"a" ~block:blk ~xsize:4 ~ysize:3 ~zsize:5 ~halo:1 () in
  let b = Ops3.decl_dat ctx ~name:"b" ~block:blk ~xsize:4 ~ysize:5 ~zsize:3 ~halo:1 () in
  Ops3.init ctx a (fun x y z _ -> Float.of_int ((100 * x) + (10 * y) + z));
  Ops3.init ctx b (fun _ _ _ _ -> 0.0);
  let swap_yz =
    { Ops3.identity_orientation with
      Am_ops.Multiblock.yy = 0; yz = 1; zy = 1; zz = 0 }
  in
  let h =
    Ops3.decl_halo ctx ~name:"a->b" ~src:a ~dst:b
      ~src_range:{ Ops3.xlo = 3; xhi = 4; ylo = 0; yhi = 3; zlo = 0; zhi = 5 }
      ~dst_range:{ Ops3.xlo = -1; xhi = 0; ylo = 0; yhi = 5; zlo = 0; zhi = 3 }
      ~orientation:swap_yz ()
  in
  Ops3.halo_transfer ctx [ h ];
  (* b.(x=-1, y, z) = a.(x=3, y=z, z=y). *)
  for y = 0 to 4 do
    for z = 0 to 2 do
      Alcotest.(check (float 0.0))
        (Printf.sprintf "y%d z%d" y z)
        (Float.of_int (300 + (10 * z) + y))
        (Ops3.get b ~x:(-1) ~y ~z ~c:0)
    done
  done

let test_multiblock_rejects_mismatch () =
  let ctx = Ops3.create () in
  let blk = Ops3.decl_block ctx ~name:"b" in
  let a = Ops3.decl_dat ctx ~name:"a" ~block:blk ~xsize:4 ~ysize:3 ~zsize:3 () in
  let b = Ops3.decl_dat ctx ~name:"b" ~block:blk ~xsize:4 ~ysize:3 ~zsize:3 () in
  match
    Ops3.decl_halo ctx ~name:"bad" ~src:a ~dst:b
      ~src_range:{ Ops3.xlo = 0; xhi = 2; ylo = 0; yhi = 3; zlo = 0; zhi = 3 }
      ~dst_range:{ Ops3.xlo = 0; xhi = 1; ylo = 0; yhi = 3; zlo = 0; zhi = 3 }
      ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mismatched halo accepted"

(* Random-stencil equivalence in 3D: a loop reading through a random
   (in-halo) stencil and writing centre-only must agree between the
   sequential reference and a random backend/decomposition. *)
let prop_random_stencil_backend_equivalence =
  QCheck.Test.make ~name:"random 3D stencils agree on every backend" ~count:30
    (QCheck.make
       QCheck.Gen.(
         (* zsize >= 6 so a 3-rank z decomposition always owns >= ghost
            depth (2) planes per rank. *)
         quad (int_range 0 1000) (int_range 6 12) (int_range 6 12) (int_range 0 3)))
    (fun (seed, nxy, nzr, which) ->
      let rng = Am_util.Prng.create seed in
      let n_points = 1 + Am_util.Prng.int rng 5 in
      let stencil =
        Array.init n_points (fun i ->
            if i = 0 then (0, 0, 0)
            else
              ( Am_util.Prng.int rng 5 - 2,
                Am_util.Prng.int rng 5 - 2,
                Am_util.Prng.int rng 5 - 2 ))
      in
      let weights =
        Array.init n_points (fun _ -> Am_util.Prng.float_range rng (-1.0) 1.0)
      in
      let run configure =
        let ctx = Ops3.create () in
        let grid = Ops3.decl_block ctx ~name:"grid" in
        let u =
          Ops3.decl_dat ctx ~name:"u" ~block:grid ~xsize:nxy ~ysize:nxy ~zsize:nzr
            ~halo:2 ()
        in
        let w =
          Ops3.decl_dat ctx ~name:"w" ~block:grid ~xsize:nxy ~ysize:nxy ~zsize:nzr
            ~halo:2 ()
        in
        Ops3.init ctx u (fun x y z _ ->
            cos (0.3 *. Float.of_int ((x * 5) + (y * 11) + (z * 7))));
        configure ctx;
        Ops3.par_loop ctx ~name:"rand_stencil" grid (Ops3.interior u)
          [
            Ops3.arg_dat u stencil Access.Read;
            Ops3.arg_dat w Ops3.stencil_point Access.Write;
          ]
          (fun a ->
            let acc = ref 0.0 in
            for p = 0 to n_points - 1 do
              acc := !acc +. (weights.(p) *. a.(0).(p))
            done;
            a.(1).(0) <- !acc);
        Ops3.fetch_interior ctx w
      in
      let reference = run (fun _ -> ()) in
      let result =
        run (fun ctx ->
            match which with
            | 0 -> Ops3.partition ctx ~n_ranks:3 ~ref_zsize:nzr
            | 1 ->
              Ops3.set_backend ctx
                (Ops3.Cuda_sim
                   { Am_ops.Exec.tile_x = 4; tile_y = 3; tile_z = 2; staged = true })
            | 2 ->
              Ops3.set_backend ctx
                (Ops3.Cuda_sim
                   { Am_ops.Exec.tile_x = 8; tile_y = 2; tile_z = 3; staged = false })
            | _ -> Ops3.partition_pencil ctx ~py:2 ~pz:2 ~ref_ysize:nxy ~ref_zsize:nzr)
      in
      Fa.approx_equal ~tol:0.0 reference result)

let () =
  Alcotest.run "ops3"
    [
      ( "equivalence",
        [
          Alcotest.test_case "shared = seq" `Quick test_shared;
          Alcotest.test_case "cuda global = seq" `Quick test_cuda_global;
          Alcotest.test_case "cuda staged = seq" `Quick test_cuda_staged;
          Alcotest.test_case "dist(2) = seq" `Quick (dist_test 2);
          Alcotest.test_case "dist(4) = seq" `Quick (dist_test 4);
          Alcotest.test_case "dist(3)+shared = seq" `Quick test_hybrid;
          Alcotest.test_case "dist traffic" `Quick test_dist_traffic;
          Alcotest.test_case "ghost-plane BCs" `Quick test_ghost_plane_bc;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "arg_idx" `Quick test_arg_idx;
          Alcotest.test_case "stability" `Quick test_conservation_with_sealed_walls;
        ] );
      ( "strided stencils",
        [
          Alcotest.test_case "restrict gather" `Quick test_restrict_gather_3d;
          Alcotest.test_case "prolong gather" `Quick test_prolong_gather_3d;
          Alcotest.test_case "rejections" `Quick test_strided_rejected_3d;
          Alcotest.test_case "two-grid beats jacobi" `Quick
            test_two_grid_beats_jacobi_3d;
        ] );
      ( "multiblock",
        [
          Alcotest.test_case "identity halo" `Quick test_multiblock_identity_halo;
          Alcotest.test_case "oriented halo" `Quick test_multiblock_oriented_halo;
          Alcotest.test_case "mismatch rejected" `Quick test_multiblock_rejects_mismatch;
        ] );
      ( "checkpointing",
        [ Alcotest.test_case "file recovery" `Quick test_checkpoint_recovery ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_random_stencil_backend_equivalence ] );
    ]

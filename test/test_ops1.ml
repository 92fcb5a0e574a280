(* Tests for the 1D structured-mesh library: backend equivalence on a 1D
   heat problem, validation, boundary mirrors, chunk distribution,
   checkpoint recovery and a random-stencil property. *)

module Ops1 = Am_ops.Ops1
module Access = Am_core.Access
module Fa = Am_util.Fa
module Pool = Am_taskpool.Pool

let nx = 40

type mini = { ctx : Ops1.ctx; grid : Ops1.block; u : Ops1.dat; w : Ops1.dat }

let build () =
  let ctx = Ops1.create () in
  let grid = Ops1.decl_block ctx ~name:"grid" in
  let u = Ops1.decl_dat ctx ~name:"u" ~block:grid ~xsize:nx ~halo:2 () in
  let w = Ops1.decl_dat ctx ~name:"w" ~block:grid ~xsize:nx ~halo:2 () in
  Ops1.init ctx u (fun x _ -> sin (0.4 *. Float.of_int x) +. (0.05 *. Float.of_int x));
  { ctx; grid; u; w }

let run m steps =
  let interior = Ops1.interior m.u in
  let total = [| 0.0 |] in
  for _ = 1 to steps do
    Ops1.par_loop m.ctx ~name:"diffuse" m.grid interior
      [
        Ops1.arg_dat m.u Ops1.stencil_3pt Access.Read;
        Ops1.arg_dat m.w Ops1.stencil_point Access.Write;
      ]
      (fun a ->
        let u = a.(0) and w = a.(1) in
        w.(0) <- u.(0) +. (0.2 *. (u.(1) +. u.(2) -. (2.0 *. u.(0)))));
    Array.fill total 0 1 0.0;
    Ops1.par_loop m.ctx ~name:"copy" m.grid interior
      [
        Ops1.arg_dat m.w Ops1.stencil_point Access.Read;
        Ops1.arg_dat m.u Ops1.stencil_point Access.Write;
        Ops1.arg_gbl ~name:"total" total Access.Inc;
      ]
      (fun a ->
        a.(1).(0) <- a.(0).(0);
        a.(2).(0) <- a.(2).(0) +. a.(0).(0))
  done;
  (Ops1.fetch_interior m.ctx m.u, total.(0))

let reference = lazy (run (build ()) 5)

let check name (u, total) =
  let ref_u, ref_total = Lazy.force reference in
  if not (Fa.approx_equal ~tol:0.0 ref_u u) then
    Alcotest.failf "%s: field diverges (%g)" name (Fa.rel_discrepancy ref_u u);
  if Float.abs (total -. ref_total) > 1e-12 then
    Alcotest.failf "%s: reduction diverges" name

let test_shared () =
  Pool.with_pool ~size:4 (fun pool ->
      let m = build () in
      Ops1.set_backend m.ctx (Ops1.Shared { pool });
      check "shared" (run m 5))

let test_cuda_global () =
  let m = build () in
  Ops1.set_backend m.ctx (Ops1.Cuda_sim { Am_ops.Exec.tile_x = 7; staged = false });
  check "cuda global" (run m 5)

let test_cuda_staged () =
  let m = build () in
  Ops1.set_backend m.ctx (Ops1.Cuda_sim { Am_ops.Exec.tile_x = 7; staged = true });
  check "cuda staged" (run m 5)

let dist_test n_ranks () =
  let m = build () in
  Ops1.partition m.ctx ~n_ranks ~ref_xsize:nx;
  check (Printf.sprintf "dist(%d)" n_ranks) (run m 5)

let test_hybrid () =
  Pool.with_pool ~size:4 (fun pool ->
      let m = build () in
      Ops1.partition m.ctx ~n_ranks:3 ~ref_xsize:nx;
      Ops1.set_rank_execution m.ctx (Ops1.Rank_shared pool);
      check "dist(3)+shared" (run m 5))

let test_dist_traffic () =
  let m = build () in
  Ops1.partition m.ctx ~n_ranks:4 ~ref_xsize:nx;
  ignore (run m 2);
  match Ops1.comm_stats m.ctx with
  | None -> Alcotest.fail "expected stats"
  | Some s ->
    Alcotest.(check bool) "ghost cells exchanged" true (s.Am_simmpi.Comm.exchanges > 0);
    Alcotest.(check bool) "reductions counted" true (s.Am_simmpi.Comm.reductions > 0)

let test_mirror_halo () =
  let ctx = Ops1.create () in
  let grid = Ops1.decl_block ctx ~name:"grid" in
  let u = Ops1.decl_dat ctx ~name:"u" ~block:grid ~xsize:8 ~halo:2 () in
  Ops1.init ctx u (fun x _ -> Float.of_int x);
  Ops1.mirror_halo ctx ~depth:2 u;
  (* Cell centering: ghost -1 mirrors cell 0, ghost -2 mirrors cell 1. *)
  Alcotest.(check (float 0.0)) "left ghost 1" 0.0 (Ops1.get u ~x:(-1) ~c:0);
  Alcotest.(check (float 0.0)) "left ghost 2" 1.0 (Ops1.get u ~x:(-2) ~c:0);
  Alcotest.(check (float 0.0)) "right ghost 1" 7.0 (Ops1.get u ~x:8 ~c:0);
  Alcotest.(check (float 0.0)) "right ghost 2" 6.0 (Ops1.get u ~x:9 ~c:0);
  (* Sign flip (wall-normal velocity) and node centering. *)
  Ops1.mirror_halo ctx ~depth:1 ~sign:(-1.0) ~center:Ops1.Node u;
  Alcotest.(check (float 0.0)) "node-centred flip" (-1.0) (Ops1.get u ~x:(-1) ~c:0)

let test_mirror_matches_dist () =
  let run partitioned =
    let ctx = Ops1.create () in
    let grid = Ops1.decl_block ctx ~name:"grid" in
    let u = Ops1.decl_dat ctx ~name:"u" ~block:grid ~xsize:24 ~halo:2 () in
    let w = Ops1.decl_dat ctx ~name:"w" ~block:grid ~xsize:24 ~halo:2 () in
    if partitioned then Ops1.partition ctx ~n_ranks:3 ~ref_xsize:24;
    Ops1.init ctx u (fun x _ -> cos (0.7 *. Float.of_int x));
    for _ = 1 to 3 do
      Ops1.mirror_halo ctx ~depth:2 u;
      Ops1.par_loop ctx ~name:"smooth" grid (Ops1.interior u)
        [
          Ops1.arg_dat u Ops1.stencil_3pt Access.Read;
          Ops1.arg_dat w Ops1.stencil_point Access.Write;
        ]
        (fun a -> a.(1).(0) <- (a.(0).(0) +. a.(0).(1) +. a.(0).(2)) /. 3.0);
      Ops1.par_loop ctx ~name:"copy" grid (Ops1.interior u)
        [
          Ops1.arg_dat w Ops1.stencil_point Access.Read;
          Ops1.arg_dat u Ops1.stencil_point Access.Write;
        ]
        (fun a -> a.(1).(0) <- a.(0).(0))
    done;
    Ops1.fetch_interior ctx u
  in
  if not (Fa.approx_equal ~tol:0.0 (run false) (run true)) then
    Alcotest.fail "mirror+dist diverges from serial"

let test_validation () =
  let ctx = Ops1.create () in
  let grid = Ops1.decl_block ctx ~name:"grid" in
  let other = Ops1.decl_block ctx ~name:"other" in
  let u = Ops1.decl_dat ctx ~name:"u" ~block:grid ~xsize:8 ~halo:1 () in
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "write through offset stencil" (fun () ->
      Ops1.par_loop ctx ~name:"bad" grid (Ops1.interior u)
        [ Ops1.arg_dat u Ops1.stencil_3pt Access.Write ]
        (fun _ -> ()));
  expect_invalid "stencil escapes ghost cells" (fun () ->
      Ops1.par_loop ctx ~name:"bad" grid (Ops1.interior u)
        [ Ops1.arg_dat u [| 0; 2 |] Access.Read ]
        (fun _ -> ()));
  expect_invalid "wrong block" (fun () ->
      Ops1.par_loop ctx ~name:"bad" other (Ops1.interior u)
        [ Ops1.arg_dat u Ops1.stencil_point Access.Read ]
        (fun _ -> ()));
  expect_invalid "read-write dependence" (fun () ->
      Ops1.par_loop ctx ~name:"bad" grid { Ops1.xlo = 1; xhi = 7 }
        [
          Ops1.arg_dat u [| -1 |] Access.Read;
          Ops1.arg_dat u Ops1.stencil_point Access.Write;
        ]
        (fun _ -> ()))

let test_arg_idx () =
  let ctx = Ops1.create () in
  let grid = Ops1.decl_block ctx ~name:"grid" in
  let u = Ops1.decl_dat ctx ~name:"u" ~block:grid ~xsize:8 () in
  Ops1.par_loop ctx ~name:"iota" grid (Ops1.interior u)
    [ Ops1.arg_dat u Ops1.stencil_point Access.Write; Ops1.arg_idx ]
    (fun a -> a.(0).(0) <- 2.0 *. a.(1).(0));
  Alcotest.(check (float 0.0)) "idx 5" 10.0 (Ops1.get u ~x:5 ~c:0)

let test_checkpoint_recovery () =
  let path = Filename.temp_file "ops1_ckpt" ".bin" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let m = build () in
      Ops1.enable_checkpointing m.ctx;
      ignore (run m 2);
      Ops1.request_checkpoint m.ctx;
      let expect = run m 3 in
      Ops1.checkpoint_to_file m.ctx ~path;
      let m2 = build () in
      Ops1.init m2.ctx m2.u (fun _ _ -> 42.0);
      Ops1.recover_from_file m2.ctx ~path;
      ignore (run m2 2);
      let got = run m2 3 in
      let eu, et = expect and gu, gt = got in
      if not (Fa.approx_equal ~tol:0.0 eu gu) then
        Alcotest.fail "recovered field differs";
      Alcotest.(check (float 0.0)) "recovered reduction" et gt)

(* Random-stencil equivalence in 1D. *)
let prop_random_stencil_backend_equivalence =
  QCheck.Test.make ~name:"random 1D stencils agree on every backend" ~count:50
    (QCheck.make QCheck.Gen.(triple (int_range 0 1000) (int_range 9 64) (int_range 0 2)))
    (fun (seed, n, which) ->
      let rng = Am_util.Prng.create seed in
      let n_points = 1 + Am_util.Prng.int rng 5 in
      let stencil =
        Array.init n_points (fun i -> if i = 0 then 0 else Am_util.Prng.int rng 5 - 2)
      in
      let weights =
        Array.init n_points (fun _ -> Am_util.Prng.float_range rng (-1.0) 1.0)
      in
      let run configure =
        let ctx = Ops1.create () in
        let grid = Ops1.decl_block ctx ~name:"grid" in
        let u = Ops1.decl_dat ctx ~name:"u" ~block:grid ~xsize:n ~halo:2 () in
        let w = Ops1.decl_dat ctx ~name:"w" ~block:grid ~xsize:n ~halo:2 () in
        Ops1.init ctx u (fun x _ -> cos (0.3 *. Float.of_int (x * 5)));
        configure ctx;
        Ops1.par_loop ctx ~name:"rand_stencil" grid (Ops1.interior u)
          [
            Ops1.arg_dat u stencil Access.Read;
            Ops1.arg_dat w Ops1.stencil_point Access.Write;
          ]
          (fun a ->
            let acc = ref 0.0 in
            for p = 0 to n_points - 1 do
              acc := !acc +. (weights.(p) *. a.(0).(p))
            done;
            a.(1).(0) <- !acc);
        Ops1.fetch_interior ctx w
      in
      let reference = run (fun _ -> ()) in
      let result =
        run (fun ctx ->
            match which with
            | 0 -> Ops1.partition ctx ~n_ranks:3 ~ref_xsize:n
            | 1 ->
              Ops1.set_backend ctx
                (Ops1.Cuda_sim { Am_ops.Exec.tile_x = 5; staged = true })
            | _ ->
              Ops1.set_backend ctx
                (Ops1.Cuda_sim { Am_ops.Exec.tile_x = 9; staged = false }))
      in
      Fa.approx_equal ~tol:0.0 reference result)

let () =
  Alcotest.run "ops1"
    [
      ( "equivalence",
        [
          Alcotest.test_case "shared = seq" `Quick test_shared;
          Alcotest.test_case "cuda global = seq" `Quick test_cuda_global;
          Alcotest.test_case "cuda staged = seq" `Quick test_cuda_staged;
          Alcotest.test_case "dist(2) = seq" `Quick (dist_test 2);
          Alcotest.test_case "dist(5) = seq" `Quick (dist_test 5);
          Alcotest.test_case "dist(3)+shared = seq" `Quick test_hybrid;
          Alcotest.test_case "dist traffic" `Quick test_dist_traffic;
          Alcotest.test_case "mirror + dist = serial" `Quick test_mirror_matches_dist;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "mirror halo" `Quick test_mirror_halo;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "arg_idx" `Quick test_arg_idx;
        ] );
      ( "checkpointing",
        [ Alcotest.test_case "file recovery" `Quick test_checkpoint_recovery ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_random_stencil_backend_equivalence ] );
    ]

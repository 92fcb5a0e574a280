(* Tests for CloverLeaf 3D on the Ops3 API. *)

module App = Am_cloverleaf3.App
module Ops3 = Am_ops.Ops3
module Fa = Am_util.Fa
module Pool = Am_taskpool.Pool

let n = 10

let reference = lazy (
  let t = App.create ~n () in
  let s = App.run t ~steps:4 in
  (App.density t, s))

let check ?(tol = 1e-12) name t =
  let d = App.density t and s = App.field_summary t in
  let rd, rs = Lazy.force reference in
  if not (Fa.approx_equal ~tol rd d) then
    Alcotest.failf "%s: density diverges (%g)" name (Fa.rel_discrepancy rd d);
  if Float.abs (s.App.ke -. rs.App.ke) /. (1.0 +. rs.App.ke) > 1e-10 then
    Alcotest.failf "%s: ke diverges" name

let test_mass_conserved () =
  let t = App.create ~n () in
  let s0 = App.field_summary t in
  let s1 = App.run t ~steps:10 in
  Alcotest.(check bool) "mass conserved exactly" true
    (Float.abs (s1.App.mass -. s0.App.mass) /. s0.App.mass < 1e-12)

let test_energy_flows () =
  let t = App.create ~n () in
  let s0 = App.field_summary t in
  let s1 = App.run t ~steps:10 in
  Alcotest.(check bool) "ke grows" true (s1.App.ke > 1e-6);
  Alcotest.(check bool) "ie falls" true (s1.App.ie < s0.App.ie);
  Alcotest.(check bool) "total energy bounded" true
    (s1.App.ie +. s1.App.ke <= s0.App.ie +. s0.App.ke +. 1e-9)

let test_stays_physical () =
  let t = App.create ~n () in
  ignore (App.run t ~steps:20);
  let d = App.density t in
  Alcotest.(check bool) "finite" true (Fa.is_finite d);
  Array.iter (fun v -> if v <= 0.0 then Alcotest.fail "non-positive density") d

let test_shared_backend () =
  Pool.with_pool ~size:4 (fun pool ->
      let t = App.create ~backend:(Ops3.Shared { pool }) ~n () in
      ignore (App.run t ~steps:4);
      check "shared" t)

let test_cuda_backend () =
  let t =
    App.create
      ~backend:
        (Ops3.Cuda_sim { Am_ops.Exec.tile_x = 4; tile_y = 4; tile_z = 2; staged = true })
      ~n ()
  in
  ignore (App.run t ~steps:4);
  check "cuda staged" t

let test_dist_backend () =
  let t = App.create ~n () in
  Ops3.partition t.App.ctx ~n_ranks:3 ~ref_zsize:n;
  ignore (App.run t ~steps:4);
  check ~tol:0.0 "dist(3)" t

let test_pencil_backend () =
  (* y x z pencil decomposition: full hydro cycle, mirrors, edge-carrying
     two-phase exchanges. *)
  let t = App.create ~n () in
  Ops3.partition_pencil t.App.ctx ~py:2 ~pz:2 ~ref_ysize:n ~ref_zsize:n;
  ignore (App.run t ~steps:4);
  check ~tol:0.0 "pencil(2x2)" t

let test_pencil_hybrid_backend () =
  Pool.with_pool ~size:2 (fun pool ->
      let t = App.create ~n () in
      Ops3.partition_pencil t.App.ctx ~py:2 ~pz:2 ~ref_ysize:n ~ref_zsize:n;
      Ops3.set_rank_execution t.App.ctx (Ops3.Rank_shared pool);
      ignore (App.run t ~steps:4);
      check ~tol:0.0 "pencil(2x2)+shared" t)

let test_hybrid_backend () =
  Pool.with_pool ~size:4 (fun pool ->
      let t = App.create ~n () in
      Ops3.partition t.App.ctx ~n_ranks:2 ~ref_zsize:n;
      Ops3.set_rank_execution t.App.ctx (Ops3.Rank_shared pool);
      ignore (App.run t ~steps:4);
      check ~tol:0.0 "dist(2)+shared" t)

let test_dist_traffic () =
  let t = App.create ~n () in
  Ops3.partition t.App.ctx ~n_ranks:2 ~ref_zsize:n;
  ignore (App.run t ~steps:2);
  match Ops3.comm_stats t.App.ctx with
  | None -> Alcotest.fail "expected stats"
  | Some s ->
    Alcotest.(check bool) "plane exchanges happened" true
      (s.Am_simmpi.Comm.exchanges > 0)

let () =
  Alcotest.run "cloverleaf3"
    [
      ( "physics",
        [
          Alcotest.test_case "mass conserved" `Quick test_mass_conserved;
          Alcotest.test_case "ie -> ke" `Quick test_energy_flows;
          Alcotest.test_case "physical" `Quick test_stays_physical;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "shared" `Quick test_shared_backend;
          Alcotest.test_case "cuda staged" `Quick test_cuda_backend;
          Alcotest.test_case "dist(3)" `Quick test_dist_backend;
          Alcotest.test_case "pencil 2x2" `Quick test_pencil_backend;
          Alcotest.test_case "pencil hybrid" `Quick test_pencil_hybrid_backend;
          Alcotest.test_case "hybrid" `Quick test_hybrid_backend;
          Alcotest.test_case "dist traffic" `Quick test_dist_traffic;
        ] );
    ]

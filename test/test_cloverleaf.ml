(* Tests for the CloverLeaf proxy application: conservation, physics sanity,
   hand-coded equivalence and backend equivalence. *)

module App = Am_cloverleaf.App
module Hand = Am_cloverleaf.Hand
module Ops = Am_ops.Ops
module Fa = Am_util.Fa
module Pool = Am_taskpool.Pool

let nx = 20 and ny = 16

let reference = lazy (
  let t = App.create ~nx ~ny () in
  let s = App.run t ~steps:8 in
  (App.density t, App.energy t, s))

let check_matches ?(tol = 1e-10) name t =
  let d, e, s = (App.density t, App.energy t, App.field_summary t) in
  let rd, re, rs = Lazy.force reference in
  if not (Fa.approx_equal ~tol rd d) then
    Alcotest.failf "%s: density diverges (%g)" name (Fa.rel_discrepancy rd d);
  if not (Fa.approx_equal ~tol re e) then
    Alcotest.failf "%s: energy diverges (%g)" name (Fa.rel_discrepancy re e);
  if Float.abs (s.App.ke -. rs.App.ke) /. (1.0 +. rs.App.ke) > tol then
    Alcotest.failf "%s: kinetic energy diverges" name

(* ---- Conservation and physics ---- *)

let test_mass_conserved_exactly () =
  let t = App.create ~nx ~ny () in
  let s0 = App.field_summary t in
  let s1 = App.run t ~steps:20 in
  Alcotest.(check bool) "mass conserved" true
    (Float.abs (s1.App.mass -. s0.App.mass) /. s0.App.mass < 1e-12)

let test_energy_flows_to_kinetic () =
  let t = App.create ~nx ~ny () in
  let s0 = App.field_summary t in
  let s1 = App.run t ~steps:20 in
  Alcotest.(check (float 1e-12)) "starts at rest" 0.0 s0.App.ke;
  Alcotest.(check bool) "gains kinetic energy" true (s1.App.ke > 1e-6);
  Alcotest.(check bool) "internal energy drops" true (s1.App.ie < s0.App.ie)

let test_total_energy_roughly_conserved () =
  let t = App.create ~nx ~ny () in
  let s0 = App.field_summary t in
  let s1 = App.run t ~steps:20 in
  let e0 = s0.App.ie +. s0.App.ke and e1 = s1.App.ie +. s1.App.ke in
  (* First-order scheme with artificial viscosity: bounded dissipation. *)
  Alcotest.(check bool) "within 5%" true (Float.abs (e1 -. e0) /. e0 < 0.05);
  Alcotest.(check bool) "never grows" true (e1 <= e0 +. 1e-9)

let test_state_stays_physical () =
  let t = App.create ~nx ~ny () in
  ignore (App.run t ~steps:40);
  let d = App.density t and e = App.energy t in
  Alcotest.(check bool) "density finite" true (Fa.is_finite d);
  Alcotest.(check bool) "energy finite" true (Fa.is_finite e);
  Array.iter (fun v -> if v <= 0.0 then Alcotest.fail "non-positive density") d;
  Array.iter (fun v -> if v <= 0.0 then Alcotest.fail "non-positive energy") e

let test_blast_expands () =
  (* The energetic corner region must spread: density far from the corner
     rises above ambient eventually; the corner density drops. *)
  let t = App.create ~nx:32 ~ny:32 () in
  let before = App.density t in
  ignore (App.run t ~steps:60);
  let after = App.density t in
  Alcotest.(check bool) "corner density drops" true (after.(0) < before.(0));
  Alcotest.(check bool) "field changed" true (Fa.rel_discrepancy before after > 0.01)

let test_dt_positive_and_bounded () =
  let t = App.create ~nx ~ny () in
  for _ = 1 to 10 do
    let dt = App.hydro_step t in
    Alcotest.(check bool) "dt in (0, 0.04]" true (dt > 0.0 && dt <= 0.04)
  done

(* ---- Hand-coded equivalence ---- *)

let test_hand_matches_exactly () =
  let a = App.create ~nx ~ny () in
  let h = Hand.create ~nx ~ny () in
  let sa = App.run a ~steps:8 and sh = Hand.run h ~steps:8 in
  Alcotest.(check bool) "density identical" true
    (Fa.approx_equal ~tol:0.0 (App.density a) (Hand.density h));
  Alcotest.(check (float 1e-14)) "mass" sa.App.mass sh.App.mass;
  Alcotest.(check (float 1e-14)) "ie" sa.App.ie sh.App.ie;
  Alcotest.(check (float 1e-14)) "ke" sa.App.ke sh.App.ke

(* ---- Van Leer (second-order) advection ---- *)

let test_van_leer_conserves_and_matches_hand () =
  let a = App.create ~advection:App.Van_leer ~nx ~ny () in
  let h = Hand.create ~advection:App.Van_leer ~nx ~ny () in
  let s0 = App.field_summary a in
  let sa = App.run a ~steps:10 and sh = Hand.run h ~steps:10 in
  Alcotest.(check bool) "mass conserved" true
    (Float.abs (sa.App.mass -. s0.App.mass) /. s0.App.mass < 1e-12);
  Alcotest.(check bool) "hand identical" true
    (Fa.approx_equal ~tol:0.0 (App.density a) (Hand.density h));
  Alcotest.(check (float 1e-14)) "ke identical" sa.App.ke sh.App.ke

let test_van_leer_dist_matches () =
  let seq = App.create ~advection:App.Van_leer ~nx ~ny () in
  ignore (App.run seq ~steps:8);
  let dist = App.create ~advection:App.Van_leer ~nx ~ny () in
  Ops.partition dist.App.ctx ~n_ranks:4 ~ref_ysize:ny;
  ignore (App.run dist ~steps:8);
  Alcotest.(check bool) "dist identical" true
    (Fa.approx_equal ~tol:0.0 (App.density seq) (App.density dist))

let test_van_leer_sharper_than_first_order () =
  (* The limiter must reduce numerical diffusion: after the blast has run,
     the density interface stays sharper (larger max neighbour jump). *)
  let sharpness t =
    let d = App.density t in
    let m = ref 0.0 in
    for y = 0 to ny - 1 do
      for x = 0 to nx - 2 do
        let jump = Float.abs (d.((y * nx) + x + 1) -. d.((y * nx) + x)) in
        if jump > !m then m := jump
      done
    done;
    !m
  in
  let fo = App.create ~nx:32 ~ny:32 () in
  let vl = App.create ~advection:App.Van_leer ~nx:32 ~ny:32 () in
  ignore (App.run fo ~steps:30);
  ignore (App.run vl ~steps:30);
  let sharp t =
    let d = App.density t in
    let m = ref 0.0 in
    for y = 0 to 31 do
      for x = 0 to 30 do
        let jump = Float.abs (d.((y * 32) + x + 1) -. d.((y * 32) + x)) in
        if jump > !m then m := jump
      done
    done;
    !m
  in
  ignore sharpness;
  Alcotest.(check bool) "van Leer keeps a sharper interface" true
    (sharp vl > sharp fo)

(* ---- Backend equivalence ---- *)

let test_shared_backend () =
  Pool.with_pool ~size:4 (fun pool ->
      let t = App.create ~backend:(Ops.Shared { pool }) ~nx ~ny () in
      ignore (App.run t ~steps:8);
      check_matches "shared" t)

let test_cuda_tiled_backend () =
  let t =
    App.create
      ~backend:
        (Ops.Cuda_sim
           { Am_ops.Exec.tile_x = 8; tile_y = 4; strategy = Am_ops.Exec.Cuda_tiled })
      ~nx ~ny ()
  in
  ignore (App.run t ~steps:8);
  check_matches "cuda tiled" t

let test_dist_backend () =
  let t = App.create ~nx ~ny () in
  Ops.partition t.App.ctx ~n_ranks:4 ~ref_ysize:ny;
  ignore (App.run t ~steps:8);
  check_matches "dist(4)" t

let test_grid_dist_backend () =
  (* 2D grid decomposition (2x2 ranks): the full hydro cycle, mirror BCs
     and corner-carrying two-phase exchanges, must match serial exactly. *)
  let t = App.create ~nx ~ny () in
  Ops.partition_grid t.App.ctx ~px:2 ~py:2 ~ref_xsize:nx ~ref_ysize:ny;
  ignore (App.run t ~steps:8);
  check_matches "grid(2x2)" t

let test_grid_dist_uneven () =
  (* Uneven grid (3x2) on a non-divisible extent. *)
  let t = App.create ~nx ~ny () in
  Ops.partition_grid t.App.ctx ~px:3 ~py:2 ~ref_xsize:nx ~ref_ysize:ny;
  ignore (App.run t ~steps:8);
  check_matches "grid(3x2)" t

let test_grid_hybrid_backend () =
  Pool.with_pool ~size:2 (fun pool ->
      let t = App.create ~nx ~ny () in
      Ops.partition_grid t.App.ctx ~px:2 ~py:2 ~ref_xsize:nx ~ref_ysize:ny;
      Ops.set_rank_execution t.App.ctx (Ops.Rank_shared pool);
      ignore (App.run t ~steps:8);
      check_matches ~tol:1e-12 "grid(2x2)+shared" t)

let test_hybrid_backend () =
  Pool.with_pool ~size:2 (fun pool ->
      let t = App.create ~nx ~ny () in
      Ops.partition t.App.ctx ~n_ranks:4 ~ref_ysize:ny;
      Ops.set_rank_execution t.App.ctx (Ops.Rank_shared pool);
      ignore (App.run t ~steps:8);
      (* Global-reduction merge order differs across pool workers: the state
         is exact, the summary sums reassociate at machine epsilon. *)
      check_matches ~tol:1e-12 "mpi+shared" t)

let test_dist_traffic_flows () =
  let t = App.create ~nx ~ny () in
  Ops.partition t.App.ctx ~n_ranks:3 ~ref_ysize:ny;
  ignore (App.run t ~steps:2);
  match Ops.comm_stats t.App.ctx with
  | None -> Alcotest.fail "expected stats"
  | Some s ->
    Alcotest.(check bool) "exchanges happened" true (s.Am_simmpi.Comm.exchanges > 0)

let test_eager_halo_policy () =
  (* Eager ghost-row exchanges must change traffic, never results. *)
  let run policy =
    let t = App.create ~nx ~ny () in
    Ops.partition t.App.ctx ~n_ranks:4 ~ref_ysize:ny;
    Ops.set_halo_policy t.App.ctx policy;
    ignore (App.run t ~steps:3);
    let stats = Option.get (Ops.comm_stats t.App.ctx) in
    (App.density t, stats.Am_simmpi.Comm.bytes)
  in
  let d_e, bytes_e = run Ops.Eager in
  let d_o, bytes_o = run Ops.On_demand in
  if not (Fa.approx_equal ~tol:0.0 d_e d_o) then
    Alcotest.fail "eager halo policy changed the solution";
  Alcotest.(check bool) "eager moves strictly more bytes" true (bytes_e > bytes_o)

(* ---- Automatic checkpointing ---- *)

let test_automatic_checkpoint_recovery () =
  (* Recovery replays *the same program*: the driver below is the program
     (6 hydro steps, a field summary after step 3 and at the end), run
     uninterrupted, with a live checkpoint, and under recovery. *)
  let program ?(request_at = -1) t =
    let last = ref { App.vol = 0.0; mass = 0.0; ie = 0.0; ke = 0.0; press = 0.0 } in
    for step = 1 to 6 do
      if step = request_at then Ops.request_checkpoint t.App.ctx;
      ignore (App.hydro_step t);
      if step = 3 || step = 6 then last := App.field_summary t
    done;
    !last
  in
  let truth = App.create ~nx ~ny () in
  let truth_summary = program truth in
  let live = App.create ~nx ~ny () in
  Ops.enable_checkpointing live.App.ctx;
  ignore (program ~request_at:4 live);
  Alcotest.(check bool) "checkpointing transparent" true
    (Fa.approx_equal ~tol:0.0 (App.density truth) (App.density live));
  let path = Filename.temp_file "clover_cp" ".snap" in
  Ops.checkpoint_to_file live.App.ctx ~path;
  let recovered = App.create ~nx ~ny () in
  Ops.recover_from_file recovered.App.ctx ~path;
  let rec_summary = program recovered in
  Sys.remove path;
  Alcotest.(check bool) "recovered bit-identical" true
    (Fa.approx_equal ~tol:0.0 (App.density truth) (App.density recovered)
     && Fa.approx_equal ~tol:0.0 (App.xvel truth) (App.xvel recovered));
  (* Reductions after resumption match too. *)
  Alcotest.(check (float 1e-14)) "final summary ke" truth_summary.App.ke
    rec_summary.App.ke

(* ---- Allocation ---- *)

(* One warm Seq hydro step through the accessor entry point allocates only
   per-call bookkeeping, the same amount at every grid size (10.6k words:
   each call runs the frame its handle's executor keeps; 12.4k when every
   call built one).  A count that grows with the grid means per-point or
   per-ghost boxing — a kernel accessor the compiler did not inline, a
   local closure over floats, a boundary mirror through float closures —
   so the 32x32 and 96x96 steps must agree within 1k words.  The 13.3k
   budget also pins the handles' footprint memo (rebuilding the footprint
   key on every call costs about 31k words more per step) and the kept
   frames. *)
let step_words n =
  let t = App.create ~nx:n ~ny:n () in
  ignore (App.hydro_step t);
  Gc_util.minor_words (fun () -> ignore (App.hydro_step t))

let test_alloc_budget () =
  let small = step_words 32 and large = step_words 96 in
  List.iter
    (fun (n, words) ->
      if words > 13_300.0 then
        Alcotest.failf "one Seq step at %dx%d allocated %.0f minor words (budget 13300)"
          n n words)
    [ (32, small); (96, large) ];
  if Float.abs (large -. small) > 1_000.0 then
    Alcotest.failf
      "one Seq step allocated %.0f minor words at 32x32 but %.0f at 96x96: \
       allocation grows with the grid"
      small large

(* Every CloverLeaf 2D kernel declares a signature, and on Seq and on
   tiled Cuda_sim every call of a step and of the field summary,
   first-order and van Leer (all 19 kernels between them), runs its range
   walker: no frame stages.  On the tiles this needs each label's scratch
   buffers sized alike ([mom_flux], [mom_vel] and van Leer's flux read one
   label through two reaches). *)
let test_range_walkers () =
  let module K = Am_cloverleaf.Kernels in
  let module C = Am_obs.Counters in
  let module Obs = Am_obs.Obs in
  let kernels =
    [
      K.ideal_gas_acc; K.viscosity_acc; K.calc_dt_acc; K.pdv_acc; K.accelerate_acc;
      K.flux_calc_x_acc; K.flux_calc_y_acc; K.advec_vol_x_acc; K.advec_vol_y_acc;
      K.advec_flux_acc; K.advec_cell_acc; K.mom_node_flux_acc; K.mom_node_mass_acc;
      K.mom_flux_acc; K.mom_vel_acc; K.reset_field_acc; K.zero_acc; K.field_summary_acc;
      K.advec_flux_vanleer_acc;
    ]
  in
  List.iter
    (fun (k : Ops.Acc.kernel) ->
      if k.Ops.Acc.walkers = [||] then Alcotest.fail "a CloverLeaf kernel declares no signature")
    kernels;
  let tiled =
    Ops.Cuda_sim { Am_ops.Exec.tile_x = 8; tile_y = 4; strategy = Am_ops.Exec.Cuda_tiled }
  in
  List.iter
    (fun (name, backend, advection) ->
      let t = App.create ?backend ~advection ~nx:24 ~ny:20 () in
      let w0 = C.value Obs.ops_walker_frames and p0 = C.value Obs.ops_point_frames in
      ignore (App.hydro_step t);
      ignore (App.field_summary t);
      Alcotest.(check int) (name ^ ": no point-walker frame") 0
        (C.value Obs.ops_point_frames - p0);
      Alcotest.(check bool) (name ^ ": range-walker frames") true
        (C.value Obs.ops_walker_frames - w0 >= 43))
    [
      ("seq", None, App.First_order);
      ("seq van Leer", None, App.Van_leer);
      ("cuda tiled", Some tiled, App.First_order);
      ("cuda tiled van Leer", Some tiled, App.Van_leer);
    ]

let () =
  Alcotest.run "cloverleaf"
    [
      ( "physics",
        [
          Alcotest.test_case "mass conserved" `Quick test_mass_conserved_exactly;
          Alcotest.test_case "ie -> ke" `Quick test_energy_flows_to_kinetic;
          Alcotest.test_case "total energy bounded" `Quick
            test_total_energy_roughly_conserved;
          Alcotest.test_case "state physical" `Quick test_state_stays_physical;
          Alcotest.test_case "blast expands" `Slow test_blast_expands;
          Alcotest.test_case "dt bounded" `Quick test_dt_positive_and_bounded;
        ] );
      ( "van leer",
        [
          Alcotest.test_case "conserves + hand exact" `Quick
            test_van_leer_conserves_and_matches_hand;
          Alcotest.test_case "dist exact" `Quick test_van_leer_dist_matches;
          Alcotest.test_case "sharper than first-order" `Slow
            test_van_leer_sharper_than_first_order;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "hand-coded exact" `Quick test_hand_matches_exactly;
          Alcotest.test_case "shared backend" `Quick test_shared_backend;
          Alcotest.test_case "cuda tiled" `Quick test_cuda_tiled_backend;
          Alcotest.test_case "dist(4)" `Quick test_dist_backend;
          Alcotest.test_case "hybrid mpi+shared" `Quick test_hybrid_backend;
          Alcotest.test_case "grid dist 2x2" `Quick test_grid_dist_backend;
          Alcotest.test_case "grid dist 3x2" `Quick test_grid_dist_uneven;
          Alcotest.test_case "grid hybrid" `Quick test_grid_hybrid_backend;
          Alcotest.test_case "dist traffic" `Quick test_dist_traffic_flows;
          Alcotest.test_case "eager halo policy" `Quick test_eager_halo_policy;
        ] );
      ( "structure",
        [
          Alcotest.test_case "seq step allocation budget" `Quick test_alloc_budget;
          Alcotest.test_case "seq and tiled cuda: every kernel declared, every call a range walker"
            `Quick test_range_walkers;
        ] );
      ( "checkpointing",
        [
          Alcotest.test_case "automatic checkpoint + recovery" `Quick
            test_automatic_checkpoint_recovery;
        ] );
    ]

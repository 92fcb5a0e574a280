(* Tests for the experiment harness: workload tracing/calibration invariants
   and smoke runs of the cheap experiments. *)

module Calibrate = Am_experiments.Calibrate
module Cluster = Am_perfmodel.Cluster
module Descr = Am_core.Descr

let airfoil = lazy (Calibrate.trace_airfoil ~nx:24 ~ny:16 ())
let hydra = lazy (Calibrate.trace_hydra ~nx:16 ~ny:12 ())
let clover = lazy (Calibrate.trace_cloverleaf ~nx:20 ~ny:20 ())

let test_airfoil_trace_shape () =
  let t = Lazy.force airfoil in
  let names =
    List.map (fun p -> p.Calibrate.descr.Descr.loop_name) t.Calibrate.profiles
  in
  Alcotest.(check (list string)) "the five airfoil loops"
    [ "save_soln"; "adt_calc"; "res_calc"; "bres_calc"; "update" ]
    names;
  let calls name =
    (List.find (fun p -> p.Calibrate.descr.Descr.loop_name = name) t.Calibrate.profiles)
      .Calibrate.calls_per_iteration
  in
  Alcotest.(check int) "save once" 1 (calls "save_soln");
  Alcotest.(check int) "update twice" 2 (calls "update")

let test_extension_traces () =
  (* The extension apps trace through the same pipeline: a TeaLeaf step is
     CG-dominated (dots outnumber matvecs), a CloverLeaf 3D step carries
     the full hydro loop inventory, and both measured pencil-decomposition
     runs move real bytes. *)
  let tea = Calibrate.trace_tealeaf ~n:10 () in
  let calls name =
    (List.find
       (fun p -> p.Calibrate.descr.Descr.loop_name = name)
       tea.Calibrate.profiles)
      .Calibrate.calls_per_iteration
  in
  Alcotest.(check bool) "dots > matvecs" true (calls "cg_dot" > calls "cg_matvec");
  Alcotest.(check bool) "tea comm measured" true (tea.Calibrate.comm_bytes_per_iter > 0.0);
  Alcotest.(check bool) "tea reductions per step" true
    (tea.Calibrate.reductions_per_iter > 2);
  let c3 = Calibrate.trace_cloverleaf3 ~n:10 () in
  Alcotest.(check bool) "clover3 loop inventory" true
    (List.length c3.Calibrate.profiles >= 12);
  Alcotest.(check bool) "clover3 comm measured" true
    (c3.Calibrate.comm_bytes_per_iter > 0.0)

let test_comm_measured () =
  List.iter
    (fun traced ->
      let t = Lazy.force traced in
      Alcotest.(check bool)
        (t.Calibrate.app_name ^ " sent bytes")
        true
        (t.Calibrate.comm_bytes_per_iter > 0.0);
      Alcotest.(check bool)
        (t.Calibrate.app_name ^ " exchanged")
        true (t.Calibrate.exchanges_per_iter > 0))
    [ airfoil; hydra; clover ]

let test_workload_calibration () =
  let w = Calibrate.workload (Lazy.force airfoil) ~neighbours:4 in
  Alcotest.(check bool) "positive halo coefficient" true (w.Cluster.halo_bytes_coeff > 0.0);
  Alcotest.(check bool) "loops present" true (List.length w.Cluster.step_loops >= 9);
  (* Larger meshes must calibrate to a *similar* surface coefficient: the
     sqrt extrapolation law is the whole point. *)
  let w2 = Calibrate.workload (Calibrate.trace_airfoil ~nx:48 ~ny:32 ()) ~neighbours:4 in
  let ratio = w2.Cluster.halo_bytes_coeff /. w.Cluster.halo_bytes_coeff in
  Alcotest.(check bool)
    (Printf.sprintf "coefficient stable under mesh growth (ratio %.2f)" ratio)
    true
    (ratio > 0.5 && ratio < 2.0)

let test_scaled_iteration () =
  let t = Lazy.force airfoil in
  let loops = Calibrate.scaled_iteration t ~cells:(t.Calibrate.ref_cells * 10) in
  let res =
    List.find (fun (l : Descr.loop) -> l.Descr.loop_name = "res_calc") loops
  in
  let orig =
    (List.find (fun p -> p.Calibrate.descr.Descr.loop_name = "res_calc")
       t.Calibrate.profiles)
      .Calibrate.descr
  in
  Alcotest.(check int) "edges scaled 10x" (orig.Descr.set_size * 10) res.Descr.set_size

let test_hydra_loop_inventory () =
  let t = Lazy.force hydra in
  Alcotest.(check bool) "many distinct kernels" true
    (List.length t.Calibrate.profiles >= 14)

let test_fig_smoke () =
  (* The cheap experiments must run end-to-end without raising. Output is
     redirected away. *)
  let dev_null = open_out (if Sys.win32 then "NUL" else "/dev/null") in
  let saved = Unix.dup Unix.stdout in
  flush stdout;
  Unix.dup2 (Unix.descr_of_out_channel dev_null) Unix.stdout;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      close_out dev_null)
    (fun () ->
      Am_experiments.Figures.fig7 ();
      Am_experiments.Figures.fig8 ())

(* The one timer: [pairs] warms up a then b, then alternates the order of
   each pair (a b, b a, a b, ...) and keeps one ratio a ÷ b per pair;
   [sample] warms up once and keeps one time per call. *)
let test_timing_call_order () =
  let log = ref [] in
  let a () = log := "a" :: !log and b () = log := "b" :: !log in
  let s = Am_experiments.Timing.pairs ~repeat:5 a b in
  Alcotest.(check (list string)) "warm-ups, then a b, b a, a b, b a, a b"
    [ "a"; "b"; "a"; "b"; "b"; "a"; "a"; "b"; "b"; "a"; "a"; "b" ]
    (List.rev !log);
  Alcotest.(check int) "one ratio per pair" 5 s.Am_util.Regress.n;
  let calls = ref 0 in
  let s = Am_experiments.Timing.sample ~repeat:7 (fun () -> incr calls) in
  Alcotest.(check int) "one warm-up, then seven timed calls" 8 !calls;
  Alcotest.(check int) "one sample per timed call" 7 s.Am_util.Regress.n

(* The ratio is a ÷ b, whichever runs first in its pair: a side that
   sleeps 2 ms against one that returns at once reads far above 1, and
   the other way round far below. *)
let test_timing_ratio_direction () =
  let slow () = Unix.sleepf 0.002 and fast () = () in
  let s = Am_experiments.Timing.pairs ~repeat:4 slow fast in
  Alcotest.(check bool) "slow ÷ fast above 10" true (s.Am_util.Regress.min > 10.0);
  let s = Am_experiments.Timing.pairs ~repeat:4 fast slow in
  Alcotest.(check bool) "fast ÷ slow below 0.1" true (s.Am_util.Regress.max < 0.1);
  let s = Am_experiments.Timing.sample ~repeat:3 slow in
  Alcotest.(check bool) "sample in seconds" true
    (s.Am_util.Regress.min >= 0.002 && s.Am_util.Regress.median < 1.0)

let () =
  Alcotest.run "experiments"
    [
      ( "calibration",
        [
          Alcotest.test_case "airfoil trace shape" `Quick test_airfoil_trace_shape;
          Alcotest.test_case "comm measured" `Quick test_comm_measured;
          Alcotest.test_case "extension traces" `Quick test_extension_traces;
          Alcotest.test_case "workload calibration" `Quick test_workload_calibration;
          Alcotest.test_case "scaled iteration" `Quick test_scaled_iteration;
          Alcotest.test_case "hydra inventory" `Quick test_hydra_loop_inventory;
        ] );
      ("smoke", [ Alcotest.test_case "fig7/fig8 run" `Quick test_fig_smoke ]);
      ( "timing",
        [
          Alcotest.test_case "call order and counts" `Quick test_timing_call_order;
          Alcotest.test_case "ratio direction" `Quick test_timing_ratio_direction;
        ] );
    ]

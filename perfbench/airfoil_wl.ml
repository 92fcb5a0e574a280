(* Airfoil 120x80 through OP2: the [airfoil] workload (Seq against the hand
   baseline) and the [airfoil_shared] workload (Shared on the 2-domain pool
   against Seq). *)

module Op2 = Am_op2.Op2
module App = Am_airfoil.App
module Hand = Am_airfoil.Hand
module K = Am_airfoil.Kernels
module Access = Am_core.Access
module Umesh = Am_mesh.Umesh
module Obs = Am_obs.Obs
module C = Am_obs.Counters
module Span = Measure.Span
open Workload

let nx = 120
let ny = 80
let mesh () = Umesh.generate_airfoil ~nx ~ny ()

(* The [--verify] bound of bin/airfoil.ml for library against hand code. *)
let hand_tol = 1e-10

(* Inc reductions may reassociate under colouring: an ulp-scaled bound. *)
let reassoc_tol = 1e4 *. epsilon_float

(* Every set empty: the same declarations and loop signatures over
   zero-size sets, for the bookkeeping ("empty") rung. *)
let empty_mesh =
  {
    Umesh.n_nodes = 0;
    n_cells = 0;
    n_edges = 0;
    n_bedges = 0;
    edge_nodes = [||];
    edge_cells = [||];
    cell_nodes = [||];
    bedge_nodes = [||];
    bedge_cell = [||];
    bedge_bound = [||];
    node_coords = [||];
  }

let shared () = Op2.Shared { pool = Lazy.force pool; block_size = 256 }

(* Free stream with a seeded 0.1% perturbation per cell and component. *)
let initial_q ~seed (m : Umesh.t) =
  Array.init (4 * m.n_cells) (fun i ->
      K.qinf.(i mod 4) *. (1.0 +. (1e-3 *. Measure.noise ~seed (i / 4) (i mod 4) 0)))

let lib ?backend ~seed m =
  let t = App.create ?backend m in
  Op2.update t.ctx t.q (initial_q ~seed m);
  t

let hand ~seed m =
  let h = Hand.create m in
  Array.blit (initial_q ~seed m) 0 h.q 0 (Array.length h.q);
  h

let fresh ?backend () =
  let t0 = Measure.now () in
  let m = mesh () in
  let t1 = Measure.now () in
  let t = App.create ?backend m in
  let t2 = Measure.now () in
  ignore (App.iteration t);
  let t3 = Measure.now () in
  { mesh_s = t1 -. t0; declare_s = t2 -. t1; partition_s = 0.0; first_step_s = t3 -. t2 }

(* {1 The five loops, restated with the app's arguments} *)

type loop = Save_soln | Adt_calc | Res_calc | Bres_calc | Update

let loops = [ (Save_soln, "save_soln"); (Adt_calc, "adt_calc"); (Res_calc, "res_calc");
              (Bres_calc, "bres_calc"); (Update, "update") ]

let null_kernel (_ : float array array) = ()

(* [Op2.par_loop] exactly as [App.iteration] calls it, with the real kernel
   or, when [null], one that does nothing. *)
let par_loop ~null (t : App.t) loop =
  let k real = if null then null_kernel else real in
  match loop with
  | Save_soln ->
    Op2.par_loop t.ctx ~name:"save_soln" ~info:K.save_soln_info ~handle:t.h_save_soln t.cells
      [ Op2.arg_dat t.q Access.Read; Op2.arg_dat t.qold Access.Write ]
      (k K.save_soln)
  | Adt_calc ->
    Op2.par_loop t.ctx ~name:"adt_calc" ~info:K.adt_calc_info ~handle:t.h_adt_calc t.cells
      [
        Op2.arg_dat_indirect t.x t.cell_nodes 0 Access.Read;
        Op2.arg_dat_indirect t.x t.cell_nodes 1 Access.Read;
        Op2.arg_dat_indirect t.x t.cell_nodes 2 Access.Read;
        Op2.arg_dat_indirect t.x t.cell_nodes 3 Access.Read;
        Op2.arg_dat t.q Access.Read;
        Op2.arg_dat t.adt Access.Write;
      ]
      (k K.adt_calc)
  | Res_calc ->
    Op2.par_loop t.ctx ~name:"res_calc" ~info:K.res_calc_info ~handle:t.h_res_calc t.edges
      [
        Op2.arg_dat_indirect t.x t.edge_nodes 0 Access.Read;
        Op2.arg_dat_indirect t.x t.edge_nodes 1 Access.Read;
        Op2.arg_dat_indirect t.q t.edge_cells 0 Access.Read;
        Op2.arg_dat_indirect t.q t.edge_cells 1 Access.Read;
        Op2.arg_dat_indirect t.adt t.edge_cells 0 Access.Read;
        Op2.arg_dat_indirect t.adt t.edge_cells 1 Access.Read;
        Op2.arg_dat_indirect t.res t.edge_cells 0 Access.Inc;
        Op2.arg_dat_indirect t.res t.edge_cells 1 Access.Inc;
      ]
      (k K.res_calc)
  | Bres_calc ->
    Op2.par_loop t.ctx ~name:"bres_calc" ~info:K.bres_calc_info ~handle:t.h_bres_calc t.bedges
      [
        Op2.arg_dat_indirect t.x t.bedge_nodes 0 Access.Read;
        Op2.arg_dat_indirect t.x t.bedge_nodes 1 Access.Read;
        Op2.arg_dat_indirect t.q t.bedge_cell 0 Access.Read;
        Op2.arg_dat_indirect t.adt t.bedge_cell 0 Access.Read;
        Op2.arg_dat_indirect t.res t.bedge_cell 0 Access.Inc;
        Op2.arg_dat t.bound Access.Read;
      ]
      (k K.bres_calc)
  | Update ->
    Op2.par_loop t.ctx ~name:"update" ~info:K.update_info ~handle:t.h_update t.cells
      [
        Op2.arg_dat t.qold Access.Read;
        Op2.arg_dat t.q Access.Write;
        Op2.arg_dat t.res Access.Rw;
        Op2.arg_dat t.adt Access.Read;
        Op2.arg_gbl ~name:"rms" t.rms_buf Access.Inc;
      ]
      (k K.update)

(* Span names "<prefix>.<loop>", built once. *)
let names prefix = List.map (fun (l, n) -> (l, prefix ^ "." ^ n)) loops

(* One [App.iteration], loop by loop, each call under a span. *)
let traced_iteration sp ~null names (t : App.t) =
  let run l = Span.span sp (List.assoc l names) (fun () -> par_loop ~null t l) in
  run Save_soln;
  t.rms_buf.(0) <- 0.0;
  for _ = 1 to 2 do
    run Adt_calc;
    run Res_calc;
    run Bres_calc;
    Array.fill t.rms_buf 0 1 0.0;
    run Update
  done

let traced_hand_iteration sp names (h : Hand.t) =
  let run l f = Span.span sp (List.assoc l names) f in
  run Save_soln (fun () -> Hand.save_soln h);
  for _ = 1 to 2 do
    run Adt_calc (fun () -> Hand.adt_calc h);
    run Res_calc (fun () -> Hand.res_calc h);
    run Bres_calc (fun () -> Hand.bres_calc h);
    run Update (fun () -> ignore (Hand.update h))
  done

(* The res_calc rungs: [prefix]'s lib, null and empty spans, and the hand
   baseline's. *)
let res_calc_rungs sp ~prefix ~elems =
  rungs sp ~elems (fun rung ->
      if rung = "hand" then "airfoil.hand.res_calc" else Printf.sprintf "%s.%s.res_calc" prefix rung)

(* {1 airfoil: OP2 Seq against the hand baseline} *)

let seq_pair ~seed =
  let m = mesh () in
  let t = lib ~seed m and h = hand ~seed m in
  ( pair_of
      ~lib_step:(fun () -> ignore (App.iteration t))
      ~ref_step:(fun () -> ignore (Hand.iteration h))
      ~tol:hand_tol
      ~lib_state:(fun () -> App.solution t)
      ~ref_state:(fun () -> Hand.solution h)
      (),
    t,
    h )

let seq_traced ~seed =
  let tpair, t, h = seq_pair ~seed in
  (* The null rung runs on its own instance: a do-nothing kernel still
     scatters its Write staging buffers back and would corrupt [t]. *)
  let null = App.create (mesh ()) and empty = App.create empty_mesh in
  let mesh_s = Measure.median_time 5 (fun () -> ignore (mesh ())) in
  let n_lib = names "airfoil.lib" and n_hand = names "airfoil.hand" in
  let n_null = names "airfoil.null" and n_empty = names "airfoil.empty" in
  let actors =
    [|
      (fun sp ->
        Span.span sp "airfoil.lib.step_untraced" (fun () -> ignore (App.iteration t));
        Span.span sp "airfoil.lib.step" (fun () -> traced_iteration sp ~null:false n_lib t));
      (fun sp ->
        ignore (Hand.iteration h);
        Span.span sp "airfoil.hand.step" (fun () -> traced_hand_iteration sp n_hand h));
      (fun sp -> Span.span sp "airfoil.null.step" (fun () -> traced_iteration sp ~null:true n_null null));
      (fun sp ->
        Span.span sp "airfoil.empty.step" (fun () -> traced_iteration sp ~null:false n_empty empty));
    |]
  in
  let home_metrics sp =
    ("setup.mesh_s", mesh_s)
    :: List.concat_map
         (fun (_, loop) ->
           List.map
             (fun rung ->
               ( Printf.sprintf "airfoil.%s.%s_us" loop rung,
                 Span.self_us sp (Printf.sprintf "airfoil.%s.%s" rung loop) ))
             [ "hand"; "lib"; "null"; "empty" ])
         loops
  in
  {
    tpair;
    round = (fun sp -> rotate sp actors);
    home_metrics;
    rep = (fun sp -> res_calc_rungs sp ~prefix:"airfoil" ~elems:t.mesh.n_edges);
    traced_step = "airfoil.lib.step";
    untraced_step = "airfoil.lib.step_untraced";
  }

let airfoil =
  {
    name = "airfoil";
    fresh = (fun () -> fresh ());
    pair = (fun ~seed -> let p, _, _ = seq_pair ~seed in p);
    traced = seq_traced;
  }

(* {1 airfoil_shared: OP2 Shared on the pool against OP2 Seq} *)

let shared_pair ~seed =
  let m = mesh () in
  let t = lib ~backend:(shared ()) ~seed m and s = lib ~seed m in
  ( pair_of
      ~lib_step:(fun () -> ignore (App.iteration t))
      ~ref_step:(fun () -> ignore (App.iteration s))
      ~tol:reassoc_tol
      ~lib_state:(fun () -> App.solution t)
      ~ref_state:(fun () -> App.solution s)
      (),
    t,
    s )

(* Plan builds and block colours of one fresh Shared instance. *)
let plan_counts () =
  let b0 = C.value Obs.plan_builds and c0 = C.value Obs.plan_colours in
  ignore (fresh ~backend:(shared ()) ());
  (C.value Obs.plan_builds - b0, C.value Obs.plan_colours - c0)

let shared_traced ~seed =
  let tpair, t, s = shared_pair ~seed in
  let null = App.create ~backend:(shared ()) (mesh ()) in
  let empty = App.create ~backend:(shared ()) empty_mesh in
  let builds, colours = plan_counts () in
  let pool = Lazy.force pool in
  let members = Am_taskpool.Pool.size pool in
  let n_lib = names "shared.lib" and n_null = names "shared.null" in
  let n_empty = names "shared.empty" in
  let actors =
    [|
      (fun sp ->
        Span.span sp "shared.lib.step_untraced" (fun () -> ignore (App.iteration t));
        Span.span sp "shared.lib.step" (fun () -> traced_iteration sp ~null:false n_lib t));
      (fun _ ->
        ignore (App.iteration s);
        ignore (App.iteration s));
      (fun sp -> Span.span sp "shared.null.step" (fun () -> traced_iteration sp ~null:true n_null null));
      (fun sp ->
        Span.span sp "shared.empty.step" (fun () -> traced_iteration sp ~null:false n_empty empty));
      (fun sp ->
        for _ = 1 to 8 do
          Span.span sp "pool.fork_join" (fun () ->
              Am_taskpool.Pool.parallel_for ~chunk:1 pool ~lo:0 ~hi:members (fun _ _ -> ()))
        done);
    |]
  in
  let home_metrics sp =
    [
      ("plan.colours", Float.of_int colours);
      ("plan.builds", Float.of_int builds);
      ("pool.fork_join_us", Span.self_us sp "pool.fork_join");
    ]
    @ List.map
        (fun loop -> (Printf.sprintf "shared.%s_us" loop, Span.self_us sp ("shared.lib." ^ loop)))
        [ "res_calc"; "adt_calc"; "update" ]
  in
  {
    tpair;
    round = (fun sp -> rotate sp actors);
    home_metrics;
    rep = (fun sp -> res_calc_rungs sp ~prefix:"shared" ~elems:t.mesh.n_edges);
    traced_step = "shared.lib.step";
    untraced_step = "shared.lib.step_untraced";
  }

let airfoil_shared =
  {
    name = "airfoil_shared";
    fresh = (fun () -> fresh ~backend:(shared ()) ());
    pair = (fun ~seed -> let p, _, _ = shared_pair ~seed in p);
    traced = shared_traced;
  }

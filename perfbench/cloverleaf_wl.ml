(* CloverLeaf 192x192 through OPS 2D Seq against the hand baseline: the
   [cloverleaf] workload. *)

module Ops = Am_ops.Ops
module App = Am_cloverleaf.App
module Hand = Am_cloverleaf.Hand
module K = Am_cloverleaf.Kernels
module Access = Am_core.Access
module Span = Measure.Span
open Workload

let n = 192
let tol = 1e-10

(* The standard initial state with a seeded 0.1% perturbation of density
   and energy at every point, ghosts included, on both sides. *)
let density0 ~seed ~dx ~dy x y =
  App.initial_density ((Float.of_int x +. 0.5) *. dx) ((Float.of_int y +. 0.5) *. dy)
  *. (1.0 +. (1e-3 *. Measure.noise ~seed x y 0))

let energy0 ~seed ~dx ~dy x y =
  App.initial_energy ((Float.of_int x +. 0.5) *. dx) ((Float.of_int y +. 0.5) *. dy)
  *. (1.0 +. (1e-3 *. Measure.noise ~seed x y 1))

let lib ~seed =
  let t = App.create ~nx:n ~ny:n () in
  Ops.init t.ctx t.density0 (fun x y _ -> density0 ~seed ~dx:t.dx ~dy:t.dy x y);
  Ops.init t.ctx t.energy0 (fun x y _ -> energy0 ~seed ~dx:t.dx ~dy:t.dy x y);
  t

let hand ~seed =
  let h = Hand.create ~nx:n ~ny:n () in
  let init (f : Hand.field) v =
    for y = -f.h to f.ys + f.h - 1 do
      for x = -f.h to f.xs + f.h - 1 do
        Hand.set f x y (v x y)
      done
    done
  in
  init h.density0 (density0 ~seed ~dx:h.dx ~dy:h.dy);
  init h.energy0 (energy0 ~seed ~dx:h.dx ~dy:h.dy);
  h

let hand_interior (f : Hand.field) =
  Array.init (f.xs * f.ys) (fun i -> Hand.get f (i mod f.xs) (i / f.xs))

let lib_state (t : App.t) =
  Array.concat [ App.density t; App.energy t; App.xvel t ]

let hand_state (h : Hand.t) =
  Array.concat [ hand_interior h.density0; hand_interior h.energy0; hand_interior h.xvel0 ]

let fresh () =
  let t0 = Measure.now () in
  let t = App.create ~nx:n ~ny:n () in
  let t1 = Measure.now () in
  ignore (App.hydro_step t);
  let t2 = Measure.now () in
  { mesh_s = 0.0; declare_s = t1 -. t0; partition_s = 0.0; first_step_s = t2 -. t1 }

let make_pair ~seed =
  let t = lib ~seed and h = hand ~seed in
  ( pair_of
      ~lib_step:(fun () -> ignore (App.hydro_step t))
      ~ref_step:(fun () -> ignore (Hand.hydro_step h))
      ~tol
      ~lib_state:(fun () -> lib_state t)
      ~ref_state:(fun () -> hand_state h)
      (),
    t,
    h )

let phases =
  [ "ideal_gas"; "viscosity"; "timestep"; "pdv"; "accelerate"; "flux_calc"; "advec_cell";
    "advec_mom"; "reset_field" ]

(* [App.hydro_step] phase by phase, each phase under a span; [run] maps a
   phase name to its span and runs it. *)
let traced_lib_step run (t : App.t) =
  run "ideal_gas" (fun () -> App.ideal_gas t ~predict:false);
  run "viscosity" (fun () -> App.viscosity_step t);
  run "timestep" (fun () -> App.timestep t);
  run "pdv" (fun () -> App.pdv t ~predict:true);
  run "ideal_gas" (fun () -> App.ideal_gas t ~predict:true);
  run "accelerate" (fun () -> App.accelerate t);
  run "pdv" (fun () -> App.pdv t ~predict:false);
  run "flux_calc" (fun () -> App.flux_calc t);
  run "advec_cell" (fun () -> App.advec_cell_sweep t ~dir:`X);
  run "advec_cell" (fun () -> App.advec_cell_sweep t ~dir:`Y);
  run "advec_mom" (fun () -> App.advec_mom_sweep t ~dir:`X);
  run "advec_mom" (fun () -> App.advec_mom_sweep t ~dir:`Y);
  run "reset_field" (fun () -> App.reset_field t);
  t.step <- t.step + 1

let traced_hand_step run (h : Hand.t) =
  run "ideal_gas" (fun () -> Hand.ideal_gas h ~predict:false);
  run "viscosity" (fun () -> Hand.viscosity_step h);
  run "timestep" (fun () -> Hand.timestep h);
  run "pdv" (fun () -> Hand.pdv h ~predict:true);
  run "ideal_gas" (fun () -> Hand.ideal_gas h ~predict:true);
  run "accelerate" (fun () -> Hand.accelerate h);
  run "pdv" (fun () -> Hand.pdv h ~predict:false);
  run "flux_calc" (fun () -> Hand.flux_calc h);
  run "advec_cell" (fun () -> Hand.advec_cell_sweep h ~dir:`X);
  run "advec_cell" (fun () -> Hand.advec_cell_sweep h ~dir:`Y);
  run "advec_mom" (fun () -> Hand.advec_mom_sweep h ~dir:`X);
  run "advec_mom" (fun () -> Hand.advec_mom_sweep h ~dir:`Y);
  run "reset_field" (fun () -> Hand.reset_field h)

let null_kernel (_ : float array array) = ()

(* The corrector PdV loop exactly as [App.pdv] calls it, over [range]. *)
let pdv_loop (t : App.t) ~handle range kernel =
  Ops.par_loop t.ctx ~name:"PdV" ~info:K.pdv_info ~handle t.grid range
    [
      Ops.arg_dat t.xvel0 App.s_quad_up Access.Read;
      Ops.arg_dat t.yvel0 App.s_quad_up Access.Read;
      Ops.arg_dat t.xvel1 App.s_quad_up Access.Read;
      Ops.arg_dat t.yvel1 App.s_quad_up Access.Read;
      Ops.arg_dat t.density0 App.s_pt Access.Read;
      Ops.arg_dat t.energy0 App.s_pt Access.Read;
      Ops.arg_dat t.pressure App.s_pt Access.Read;
      Ops.arg_dat t.viscosity App.s_pt Access.Read;
      Ops.arg_dat t.density1 App.s_pt Access.Write;
      Ops.arg_dat t.energy1 App.s_pt Access.Write;
      Ops.arg_gbl ~name:"consts" (App.consts t ~dt:t.dt) Access.Read;
    ]
    kernel

let traced ~seed =
  let tpair, t, h = make_pair ~seed in
  (* The PdV rungs and the mirror run on instances of their own: PdV only
     writes density1/energy1, which none of its inputs depend on, so the
     real, null and empty rungs can share one. *)
  let r = App.create ~nx:n ~ny:n () and hr = Hand.create ~nx:n ~ny:n () in
  let lib_h = App.handle r "PdV" and null_h = Ops.make_handle () in
  let empty_h = Ops.make_handle () in
  let empty_range : Ops.range = { xlo = 0; xhi = 0; ylo = 0; yhi = 0 } in
  let span_names rung = List.map (fun p -> (p, Printf.sprintf "cloverleaf.%s.%s" rung p)) phases in
  let n_lib = span_names "lib" and n_hand = span_names "hand" in
  let runner sp names p f = Span.span sp (List.assoc p names) f in
  let actors =
    [|
      (fun sp ->
        Span.span sp "cloverleaf.lib.step_untraced" (fun () -> ignore (App.hydro_step t));
        Span.span sp "cloverleaf.lib.step" (fun () -> traced_lib_step (runner sp n_lib) t));
      (fun sp ->
        ignore (Hand.hydro_step h);
        Span.span sp "cloverleaf.hand.step" (fun () -> traced_hand_step (runner sp n_hand) h));
      (fun sp ->
        for _ = 1 to 2 do
          Span.span sp "cloverleaf.lib.pdv_loop" (fun () ->
              pdv_loop r ~handle:lib_h (App.cells r) K.pdv);
          Span.span sp "cloverleaf.null.pdv_loop" (fun () ->
              pdv_loop r ~handle:null_h (App.cells r) null_kernel);
          Span.span sp "cloverleaf.empty.pdv_loop" (fun () ->
              pdv_loop r ~handle:empty_h empty_range K.pdv);
          Span.span sp "cloverleaf.hand.pdv_loop" (fun () -> Hand.pdv hr ~predict:false);
          Span.span sp "boundary.mirror" (fun () -> Ops.mirror_halo r.ctx r.pressure);
          Span.span sp "boundary.mirror" (fun () -> Ops.mirror_halo r.ctx r.soundspeed)
        done);
    |]
  in
  let home_metrics sp =
    ("boundary.mirror_us", Span.self_us sp "boundary.mirror")
    :: List.concat_map
         (fun p ->
           List.map
             (fun rung ->
               ( Printf.sprintf "cloverleaf.%s.%s_us" p rung,
                 Span.self_us sp (Printf.sprintf "cloverleaf.%s.%s" rung p) ))
             [ "lib"; "hand" ])
         phases
  in
  {
    tpair;
    round = (fun sp -> rotate sp actors);
    home_metrics;
    rep = (fun sp -> rungs sp ~elems:(n * n) (Printf.sprintf "cloverleaf.%s.pdv_loop"));
    traced_step = "cloverleaf.lib.step";
    untraced_step = "cloverleaf.lib.step_untraced";
  }

let workload =
  {
    name = "cloverleaf";
    fresh;
    pair = (fun ~seed -> let p, _, _ = make_pair ~seed in p);
    traced;
  }

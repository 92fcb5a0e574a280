(* TeaLeaf 24^3 through Ops3, partitioned over 4 simulated z-slab ranks,
   against the same problem unpartitioned: the [tealeaf_dist] workload. *)

module Ops3 = Am_ops.Ops3
module App = Am_tealeaf.App
module Access = Am_core.Access
module Profile = Am_core.Profile
module Span = Measure.Span
open Workload

let n = 24
let ranks = 4

(* Every step runs exactly this many CG iterations, so every step does the
   same work; it is enough to reach a residual of 1e-9 on every step. *)
let cg_iters = 20

(* Partial dot products are merged per rank: an ulp-scaled bound. *)
let reassoc_tol = 1e4 *. epsilon_float

(* Backward Euler with insulated walls conserves total heat; the CG
   residual left after [cg_iters] iterations bounds the drift. *)
let heat_tol = 1e-9

(* The standard hot corner with a seeded 0.1% perturbation per point. *)
let initial_u ~seed x y z _ =
  (if x < n / 3 && y < n / 3 && z < n / 3 then 10.0 else 0.1)
  *. (1.0 +. (1e-3 *. Measure.noise ~seed x y z))

let instance ~seed ~partitioned =
  let t = App.create ~n () in
  Ops3.init t.ctx t.u (initial_u ~seed);
  if partitioned then Ops3.partition t.ctx ~n_ranks:ranks ~ref_zsize:n;
  t

let step t = ignore (App.step ~tol:0.0 ~max_iters:cg_iters t)

let fresh () =
  let t0 = Measure.now () in
  let t = App.create ~n () in
  let t1 = Measure.now () in
  Ops3.partition t.ctx ~n_ranks:ranks ~ref_zsize:n;
  let t2 = Measure.now () in
  step t;
  let t3 = Measure.now () in
  { mesh_s = 0.0; declare_s = t1 -. t0; partition_s = t2 -. t1; first_step_s = t3 -. t2 }

let make_pair ~seed =
  let d = instance ~seed ~partitioned:true and s = instance ~seed ~partitioned:false in
  let heat0 = App.total_heat s in
  let conserved t = Float.abs (App.total_heat t -. heat0) <= heat_tol *. Float.abs heat0 in
  ( pair_of
      ~lib_step:(fun () -> step d)
      ~ref_step:(fun () -> step s)
      ~tol:reassoc_tol
      ~lib_state:(fun () -> App.temperature d)
      ~ref_state:(fun () -> App.temperature s)
      ~extra:(fun () -> conserved d && conserved s)
      (),
    d,
    s )

(* The CG initialisation loop of [App.step]. *)
let cg_init (t : App.t) =
  Ops3.par_loop t.ctx ~name:"cg_init" ~info:App.axpy_info t.grid (Ops3.interior t.u)
    [
      Ops3.arg_dat t.u Ops3.stencil_point Access.Read;
      Ops3.arg_dat t.w Ops3.stencil_point Access.Read;
      Ops3.arg_dat t.r Ops3.stencil_point Access.Write;
      Ops3.arg_dat t.p Ops3.stencil_point Access.Write;
    ]
    (fun bufs ->
      let r = bufs.(0).(0) -. bufs.(1).(0) in
      bufs.(2).(0) <- r;
      bufs.(3).(0) <- r)

(* [App.step ~tol:0.0 ~max_iters:cg_iters] call by call through the app's
   [matvec]/[dot]/[axpy], each call under the span [names] gives its kind. *)
let traced_step sp names (t : App.t) =
  let name k = List.assoc k names in
  let matvec = name "matvec" and dot = name "dot" and axpy = name "axpy" in
  Span.span sp matvec (fun () -> App.matvec t ~src:t.u ~dst:t.w);
  Span.span sp (name "init") (fun () -> cg_init t);
  let rr = ref (Span.span sp dot (fun () -> App.dot t t.r t.r)) in
  let iters = ref 0 in
  while !rr > 0.0 && !iters < cg_iters do
    Span.span sp matvec (fun () -> App.matvec t ~src:t.p ~dst:t.w);
    let alpha = !rr /. Span.span sp dot (fun () -> App.dot t t.p t.w) in
    Span.span sp axpy (fun () -> App.axpy t ~a:t.u ~alpha ~b:t.p ~dst:t.u);
    Span.span sp axpy (fun () -> App.axpy t ~a:t.r ~alpha:(-.alpha) ~b:t.w ~dst:t.r);
    let rr' = Span.span sp dot (fun () -> App.dot t t.r t.r) in
    Span.span sp axpy (fun () -> App.axpy t ~a:t.r ~alpha:(rr' /. !rr) ~b:t.p ~dst:t.p);
    rr := rr';
    incr iters
  done;
  t.cg_iterations <- t.cg_iterations + !iters

let null_kernel (_ : float array array) = ()

(* The CG matvec loop exactly as [App.matvec] calls it, over [range]. *)
let matvec_loop (t : App.t) range kernel =
  Ops3.par_loop t.ctx ~name:"cg_matvec" ~info:App.matvec_info t.grid range
    [
      Ops3.arg_dat t.p Ops3.stencil_7pt Access.Read;
      Ops3.arg_dat t.kappa Ops3.stencil_7pt Access.Read;
      Ops3.arg_dat t.w Ops3.stencil_point Access.Write;
      Ops3.arg_gbl ~name:"dt" [| t.dt |] Access.Read;
    ]
    kernel

(* The same 7-point operator written as a plain loop nest over flat arrays
   with a one-point ghost shell (zero conductivity outside): the hand rung
   of the matvec signature. *)
let hand_matvec ~dt p k w =
  let s = n + 2 in
  let s2 = s * s in
  for z = 0 to n - 1 do
    for y = 0 to n - 1 do
      for x = 0 to n - 1 do
        let c = ((z + 1) * s2) + ((y + 1) * s) + x + 1 in
        let kc = k.(c) and pc = p.(c) in
        let acc = ref 0.0 in
        for f = 0 to 5 do
          let o = match f with 0 -> 1 | 1 -> -1 | 2 -> s | 3 -> -s | 4 -> s2 | _ -> -s2 in
          let ko = k.(c + o) in
          let kf = if kc +. ko <= 0.0 then 0.0 else 2.0 *. kc *. ko /. (kc +. ko) in
          acc := !acc +. (kf *. (p.(c + o) -. pc))
        done;
        w.((((z * n) + y) * n) + x) <- pc -. (dt *. !acc)
      done
    done
  done

let hand_fields ~seed ~dt =
  let s = n + 2 in
  let field f =
    Array.init (s * s * s) (fun i ->
        let x = (i mod s) - 1 and y = (i / s mod s) - 1 and z = (i / (s * s)) - 1 in
        f x y z)
  in
  let inside c = c >= 0 && c < n in
  let kappa x y z =
    if inside x && inside y && inside z then if (x + y + z) mod 7 < 4 then 1.0 else 0.1
    else 0.0
  in
  (field (fun x y z -> initial_u ~seed x y z 0), field kappa, Array.make (n * n * n) 0.0, dt)

let traced ~seed =
  let tpair, d, s = make_pair ~seed in
  let rung = instance ~seed ~partitioned:true in
  let hp, hk, hw, dt = hand_fields ~seed ~dt:rung.dt in
  let empty_range : Ops3.range = { xlo = 0; xhi = 0; ylo = 0; yhi = 0; zlo = 0; zhi = 0 } in
  let partition_s =
    Measure.median
      (List.init 5 (fun _ ->
           let t = App.create ~n () in
           Measure.time (fun () -> Ops3.partition t.ctx ~n_ranks:ranks ~ref_zsize:n)))
  in
  let names side = List.map (fun k -> (k, Printf.sprintf "tealeaf.%s.%s" side k))
      [ "matvec"; "dot"; "axpy"; "init" ] in
  let n_dist = names "dist" and n_seq = names "seq" in
  let comm = ref [] and halo = ref [] in
  let stats () = Option.get (Ops3.comm_stats d.ctx) in
  let actors =
    [|
      (fun sp ->
        Span.span sp "tealeaf.dist.step_untraced" (fun () -> step d);
        let c0 = stats () in
        let m0 = c0.messages and b0 = c0.bytes and e0 = c0.exchanges and r0 = c0.reductions in
        let h0 = Profile.total_halo_seconds (Ops3.profile d.ctx) in
        Span.span sp "tealeaf.dist.step" (fun () -> traced_step sp n_dist d);
        let c1 = stats () in
        comm := (c1.messages - m0, c1.bytes - b0, c1.exchanges - e0, c1.reductions - r0) :: !comm;
        halo := (Profile.total_halo_seconds (Ops3.profile d.ctx) -. h0) :: !halo);
      (fun sp ->
        step s;
        Span.span sp "tealeaf.seq.step" (fun () -> traced_step sp n_seq s));
      (fun sp ->
        for _ = 1 to 2 do
          Span.span sp "tealeaf.lib.matvec_loop" (fun () ->
              App.matvec rung ~src:rung.p ~dst:rung.w);
          Span.span sp "tealeaf.null.matvec_loop" (fun () ->
              matvec_loop rung (Ops3.interior rung.u) null_kernel);
          Span.span sp "tealeaf.empty.matvec_loop" (fun () ->
              matvec_loop rung empty_range App.matvec_kernel);
          Span.span sp "tealeaf.hand.matvec_loop" (fun () -> hand_matvec ~dt hp hk hw)
        done);
    |]
  in
  let home_metrics sp =
    let count f = Measure.median (List.map (fun c -> Float.of_int (f c)) !comm) in
    [
      ("setup.partition_s", partition_s);
      ("comm.messages_per_step", count (fun (m, _, _, _) -> m));
      ("comm.bytes_per_step", count (fun (_, b, _, _) -> b));
      ("comm.exchanges_per_step", count (fun (_, _, e, _) -> e));
      ("comm.reductions_per_step", count (fun (_, _, _, r) -> r));
      ("halo.exposed_us_per_step", Measure.median !halo *. 1e6);
    ]
    @ List.concat_map
        (fun side ->
          List.map
            (fun k ->
              ( Printf.sprintf "tealeaf.%s.%s_us" side k,
                Span.self_us sp (Printf.sprintf "tealeaf.%s.%s" side k) ))
            [ "matvec"; "dot"; "axpy" ])
        [ "dist"; "seq" ]
  in
  {
    tpair;
    round = (fun sp -> rotate sp actors);
    home_metrics;
    rep = (fun sp -> rungs sp ~elems:(n * n * n) (Printf.sprintf "tealeaf.%s.matvec_loop"));
    traced_step = "tealeaf.dist.step";
    untraced_step = "tealeaf.dist.step_untraced";
  }

let workload =
  {
    name = "tealeaf_dist";
    fresh;
    pair = (fun ~seed -> let p, _, _ = make_pair ~seed in p);
    traced;
  }

(* Tests for the correctness-checking stack: argument-constructor
   validation, the descriptor lints, plan validation, the cross-loop
   dataflow pass, and the sanitizer execution backends.

   The central tests are differential: the real proxy-application loop
   shapes pass with zero warning/error findings, and a seeded defect (an
   Inc demoted to Write through a many-to-one map, an undeclared stencil
   point, a kernel writing a Read argument, a forged plan colouring) is
   reported as exactly that defect, naming the loop, the argument and —
   for the sanitizer — the element. *)

module Op2 = Am_op2.Op2
module Plan = Am_op2.Plan
module Ops = Am_ops.Ops
module Ops1 = Am_ops.Ops1
module Ops3 = Am_ops.Ops3
module Access = Am_core.Access
module Descr = Am_core.Descr
module Umesh = Am_mesh.Umesh
module Analysis = Am_analysis.Analysis
module Lint = Am_analysis.Lint
module Dataflow = Am_analysis.Dataflow
module Finding = Am_analysis.Finding

let contains = Str_contains.contains

(* ---- argument-constructor validation --------------------------------- *)

let expect_invalid_arg what f =
  match f () with
  | _ -> Alcotest.fail (what ^ ": expected Invalid_argument")
  | exception Invalid_argument _ -> ()

let test_constructors () =
  let ctx = Op2.create () in
  let s = Op2.decl_set ctx ~name:"pts" ~size:4 in
  let u = Op2.decl_dat_zero ctx ~name:"u" ~set:s ~dim:1 in
  expect_invalid_arg "op2 dat Min" (fun () -> Op2.arg_dat u Access.Min);
  expect_invalid_arg "op2 gbl Write" (fun () ->
      Op2.arg_gbl ~name:"g" [| 0.0 |] Access.Write);
  let octx = Ops.create () in
  let b = Ops.decl_block octx ~name:"grid" in
  let d = Ops.decl_dat octx ~name:"d" ~block:b ~xsize:4 ~ysize:4 () in
  expect_invalid_arg "ops dat Max" (fun () ->
      Ops.arg_dat d Ops.stencil_point Access.Max);
  expect_invalid_arg "ops gbl Rw" (fun () ->
      Ops.arg_gbl ~name:"g" [| 0.0 |] Access.Rw);
  let c1 = Ops1.create () in
  let b1 = Ops1.decl_block c1 ~name:"line" in
  let d1 = Ops1.decl_dat c1 ~name:"d1" ~block:b1 ~xsize:4 () in
  expect_invalid_arg "ops1 dat Min" (fun () ->
      Ops1.arg_dat d1 Ops1.stencil_point Access.Min);
  let c3 = Ops3.create () in
  let b3 = Ops3.decl_block c3 ~name:"box" in
  let d3 = Ops3.decl_dat c3 ~name:"d3" ~block:b3 ~xsize:3 ~ysize:3 ~zsize:3 () in
  expect_invalid_arg "ops3 dat Max" (fun () ->
      Ops3.arg_dat d3 Ops3.stencil_point Access.Max);
  expect_invalid_arg "ops3 gbl Write" (fun () ->
      Ops3.arg_gbl ~name:"g" [| 0.0 |] Access.Write)

(* ---- descriptor lints ------------------------------------------------- *)

let errors_of fs = List.filter Finding.is_error fs
let warnings_of fs = List.filter Finding.is_warning fs

(* The Airfoil res_calc shape over the real generated mesh: res incremented
   through both components of edge_cells. Mutating the Inc to a Write must
   produce a witnessed many-to-one race on the real map table. *)
let airfoil_shape () =
  let mesh = Umesh.generate_airfoil ~nx:12 ~ny:8 () in
  let t = Am_airfoil.App.create mesh in
  let ec = t.Am_airfoil.App.edge_cells in
  let maps =
    [
      {
        Lint.mi_name = ec.Am_op2.Types.map_name;
        mi_arity = ec.Am_op2.Types.arity;
        mi_values = ec.Am_op2.Types.values;
      };
    ]
  in
  (maps, mesh)

let airfoil_res_loop mesh access =
  let res_arg k access =
    {
      Descr.dat_name = "res";
      dat_id = 5;
      dim = 4;
      access;
      kind =
        Descr.Indirect { map_name = "edge_cells"; map_index = k; ratio = 1.0 };
    }
  in
  {
    Descr.loop_name = "res_calc";
    set_name = "edges";
    set_size = mesh.Umesh.n_edges;
    args = [ res_arg 0 access; res_arg 1 access ];
    info = Descr.default_kernel_info;
  }

let test_lint_many_to_one () =
  let maps, mesh = airfoil_shape () in
  let loop access = airfoil_res_loop mesh access in
  let clean = Lint.lint ~maps (loop Access.Inc) in
  Alcotest.(check int) "Inc through a shared map is clean" 0
    (List.length (errors_of clean) + List.length (warnings_of clean));
  let bad = Lint.lint ~maps (loop Access.Write) in
  let errs = errors_of bad in
  Alcotest.(check bool) "mutation reported" true (errs <> []);
  List.iter
    (fun (f : Finding.t) ->
      Alcotest.(check string) "finding names the loop" "res_calc" f.Finding.loop)
    errs;
  let race =
    List.find
      (fun (f : Finding.t) -> contains f.Finding.message "definite race")
      errs
  in
  Alcotest.(check bool) "witness names the map" true
    (contains race.Finding.message "edge_cells");
  Alcotest.(check bool) "finding is arg-specific" true (race.Finding.arg >= 0)

let test_lint_aliasing () =
  let maps, mesh = airfoil_shape () in
  let arg k access =
    {
      Descr.dat_name = "q";
      dat_id = 2;
      dim = 4;
      access;
      kind =
        Descr.Indirect { map_name = "edge_cells"; map_index = k; ratio = 1.0 };
    }
  in
  let loop =
    {
      Descr.loop_name = "bad_alias";
      set_name = "edges";
      set_size = mesh.Umesh.n_edges;
      args = [ arg 0 Access.Read; arg 1 Access.Write ];
      info = Descr.default_kernel_info;
    }
  in
  let errs = errors_of (Lint.lint ~maps loop) in
  Alcotest.(check bool) "read vs cross-element write is an error" true
    (List.exists (fun (f : Finding.t) -> contains f.Finding.message "race") errs)

let test_lint_modes () =
  let loop =
    {
      Descr.loop_name = "bad_modes";
      set_name = "cells";
      set_size = 10;
      args =
        [
          {
            Descr.dat_name = "g";
            dat_id = -1;
            dim = 1;
            access = Access.Write;
            kind = Descr.Global;
          };
          {
            Descr.dat_name = "u";
            dat_id = 0;
            dim = 1;
            access = Access.Min;
            kind = Descr.Direct;
          };
        ];
      info = Descr.default_kernel_info;
    }
  in
  Alcotest.(check int) "both illegal modes reported" 2
    (List.length (errors_of (Lint.lint loop)))

(* ---- plan validation -------------------------------------------------- *)

let test_plan_validate () =
  let mesh = Umesh.generate_square ~nx:9 ~ny:7 () in
  let ctx = Op2.create () in
  let cells = Op2.decl_set ctx ~name:"cells" ~size:mesh.Umesh.n_cells in
  let edges = Op2.decl_set ctx ~name:"edges" ~size:mesh.Umesh.n_edges in
  let edge_cells =
    Op2.decl_map ctx ~name:"edge_cells" ~from_set:edges ~to_set:cells ~arity:2
      ~values:mesh.Umesh.edge_cells
  in
  let du = Op2.decl_dat_zero ctx ~name:"du" ~set:cells ~dim:1 in
  let args =
    [
      Op2.arg_dat_indirect du edge_cells 0 Access.Inc;
      Op2.arg_dat_indirect du edge_cells 1 Access.Inc;
    ]
  in
  let set_size = mesh.Umesh.n_edges in
  let plan = Plan.build ~set_size ~block_size:8 args in
  Alcotest.(check int) "built plan proves race-free" 0
    (List.length (Plan.validate ~set_size args plan));
  (* Forge the block colouring: every block in one colour round. Adjacent
     blocks share cells, so the validator must produce a witness. *)
  let nb = plan.Plan.blocks.Am_mesh.Coloring.n_blocks in
  let forged =
    {
      plan with
      Plan.block_coloring =
        {
          Am_mesh.Coloring.colors = Array.make nb 0;
          n_colors = 1;
          by_color = [| Array.init nb (fun i -> i) |];
        };
    }
  in
  let vs = Plan.validate ~set_size args forged in
  Alcotest.(check bool) "forged colouring caught" true (vs <> []);
  let msg = Plan.violation_to_string ~name:"flux" (List.hd vs) in
  Alcotest.(check bool) "witness names colour and target" true
    (contains msg "colour" && contains msg "conflict target")

(* ---- sanitizer backend: OP2 ------------------------------------------ *)

(* [f ()] raises the sanitizer's violation, whose message holds each of
   [subs]. *)
let expect_naming what subs f =
  match f () with
  | () -> Alcotest.fail (what ^ ": expected a sanitizer violation")
  | exception Am_core.Sanitizer.Violation msg ->
    List.iter
      (fun sub ->
        Alcotest.(check bool) (Printf.sprintf "%s: %S in %S" what sub msg) true (contains msg sub))
      subs

let expect_violation what sub f = expect_naming what [ sub ] f

let sani_ctx () =
  let ctx = Op2.create ~backend:Op2.Check () in
  let s = Op2.decl_set ctx ~name:"pts" ~size:8 in
  let u =
    Op2.decl_dat ctx ~name:"u" ~set:s ~dim:1
      ~data:(Array.init 8 (fun i -> 1.0 +. float_of_int i))
  in
  let w = Op2.decl_dat_zero ctx ~name:"w" ~set:s ~dim:1 in
  let acc = Op2.decl_dat_zero ctx ~name:"acc" ~set:s ~dim:1 in
  (ctx, s, u, w, acc)

let test_sanitizer_op2_violations () =
  let ctx, s, u, w, acc = sani_ctx () in
  expect_violation "write to Read arg" "Read argument" (fun () ->
      Op2.par_loop ctx ~name:"wr" s
        [ Op2.arg_dat u Access.Read ]
        (fun a -> a.(0).(0) <- 0.0));
  expect_violation "read of Write poison" "Write argument is NaN" (fun () ->
      Op2.par_loop ctx ~name:"rp" s
        [ Op2.arg_dat w Access.Write ]
        (fun a -> a.(0).(0) <- a.(0).(0) +. 1.0));
  expect_violation "unwritten Write slot" "never wrote" (fun () ->
      Op2.par_loop ctx ~name:"uw" s [ Op2.arg_dat w Access.Write ] (fun _ -> ()));
  expect_violation "canary tail" "wrote past" (fun () ->
      Op2.par_loop ctx ~name:"ct" s
        [ Op2.arg_dat w Access.Write ]
        (fun a ->
          a.(0).(0) <- 1.0;
          a.(0).(1) <- 2.0));
  expect_violation "poison propagated into Inc" "increment component" (fun () ->
      Op2.par_loop ctx ~name:"pi" s
        [ Op2.arg_dat w Access.Write; Op2.arg_dat acc Access.Inc ]
        (fun a ->
          a.(1).(0) <- a.(0).(0);
          a.(0).(0) <- 1.0));
  expect_violation "out-of-range staging index" "out-of-range" (fun () ->
      Op2.par_loop ctx ~name:"oob" s
        [ Op2.arg_dat w Access.Write ]
        (fun a ->
          a.(0).(0) <- 1.0;
          a.(0).(7) <- 1.0));
  expect_violation "write to Read global" "Read global" (fun () ->
      Op2.par_loop ctx ~name:"gw" s
        [ Op2.arg_dat w Access.Write; Op2.arg_gbl ~name:"g" [| 2.5 |] Access.Read ]
        (fun a ->
          a.(0).(0) <- 1.0;
          a.(1).(0) <- 3.0))

(* The diagnostic carries the loop, argument index and element coordinate. *)
let test_sanitizer_op2_coordinates () =
  let ctx, s, _, w, _ = sani_ctx () in
  match
    Op2.par_loop ctx ~name:"pinpoint" s
      [ Op2.arg_dat w Access.Write ]
      (fun a -> if a.(0).(1) = 0.0 then a.(0).(0) <- 1.0 (* never: slot 1 is a canary NaN *))
  with
  | _ -> Alcotest.fail "expected a violation"
  | exception Am_core.Sanitizer.Violation msg ->
    Alcotest.(check bool) "names loop, arg and element" true
      (contains msg "loop pinpoint" && contains msg "arg 0"
      && contains msg "element 0")

(* The executor's closures index without bounds checks, and maps and
   datasets are exposed records: a map entry moved out of range, or a
   dataset array replaced by a shorter one, must stop Check before any
   element runs, naming the loop, the argument, the element and the map
   or dataset; a loop with an indirect Inc is proved before its plan is
   built over the bad map. *)
let test_sanitizer_op2_corrupted () =
  let ctx = Op2.create ~backend:Op2.Check () in
  let cells = Op2.decl_set ctx ~name:"cells" ~size:4 in
  let edges = Op2.decl_set ctx ~name:"edges" ~size:6 in
  let e2c =
    Op2.decl_map ctx ~name:"e2c" ~from_set:edges ~to_set:cells ~arity:2
      ~values:(Array.init 12 (fun i -> i mod 4))
  in
  let u = Op2.decl_dat ctx ~name:"u" ~set:cells ~dim:1 ~data:(Array.make 4 1.0) in
  let du = Op2.decl_dat_zero ctx ~name:"du" ~set:cells ~dim:1 in
  let w = Op2.decl_dat_zero ctx ~name:"w" ~set:edges ~dim:1 in
  (* Element 3, slot 1. *)
  e2c.Am_op2.Types.values.(7) <- 9;
  expect_naming "moved map entry, read"
    [ "loop gather_moved"; "arg 1 (u)"; "element 3"; "map e2c slot 1 holds 9" ]
    (fun () ->
      Op2.par_loop ctx ~name:"gather_moved" edges
        [
          Op2.arg_dat_indirect u e2c 0 Access.Read;
          Op2.arg_dat_indirect u e2c 1 Access.Read;
          Op2.arg_dat w Access.Write;
        ]
        (fun a -> a.(2).(0) <- a.(0).(0) +. a.(1).(0)));
  expect_naming "moved map entry, incremented"
    [ "loop scatter_moved"; "arg 1 (du)"; "element 3"; "map e2c" ]
    (fun () ->
      Op2.par_loop ctx ~name:"scatter_moved" edges
        [ Op2.arg_dat w Access.Read; Op2.arg_dat_indirect du e2c 1 Access.Inc ]
        (fun a -> a.(1).(0) <- a.(1).(0) +. a.(0).(0)));
  Alcotest.(check bool) "nothing incremented" true (Op2.fetch ctx du = Array.make 4 0.0);
  w.Am_op2.Types.data <- Array.make 3 0.0;
  expect_naming "short direct array" [ "loop short_w"; "arg 0 (w)"; "element 3"; "dat w" ]
    (fun () ->
      Op2.par_loop ctx ~name:"short_w" edges [ Op2.arg_dat w Access.Write ] (fun a ->
          a.(0).(0) <- 1.0))

(* A clean indirect program under Check is bitwise-identical to Seq. *)
let test_sanitizer_op2_clean () =
  let build backend =
    let mesh = Umesh.generate_square ~nx:9 ~ny:7 () in
    let ctx = Op2.create ~backend () in
    let cells = Op2.decl_set ctx ~name:"cells" ~size:mesh.Umesh.n_cells in
    let edges = Op2.decl_set ctx ~name:"edges" ~size:mesh.Umesh.n_edges in
    let edge_cells =
      Op2.decl_map ctx ~name:"edge_cells" ~from_set:edges ~to_set:cells ~arity:2
        ~values:mesh.Umesh.edge_cells
    in
    let init = Array.init mesh.Umesh.n_cells (fun c -> sin (float_of_int c *. 0.1)) in
    let u = Op2.decl_dat ctx ~name:"u" ~set:cells ~dim:1 ~data:init in
    let du = Op2.decl_dat_zero ctx ~name:"du" ~set:cells ~dim:1 in
    let rms = [| 0.0 |] in
    for _ = 1 to 3 do
      Op2.par_loop ctx ~name:"flux" edges
        [
          Op2.arg_dat_indirect u edge_cells 0 Access.Read;
          Op2.arg_dat_indirect u edge_cells 1 Access.Read;
          Op2.arg_dat_indirect du edge_cells 0 Access.Inc;
          Op2.arg_dat_indirect du edge_cells 1 Access.Inc;
        ]
        (fun a ->
          let f = a.(1).(0) -. a.(0).(0) in
          a.(2).(0) <- a.(2).(0) +. f;
          a.(3).(0) <- a.(3).(0) -. f);
      Op2.par_loop ctx ~name:"update" cells
        [
          Op2.arg_dat u Access.Rw;
          Op2.arg_dat du Access.Rw;
          Op2.arg_gbl ~name:"rms" rms Access.Inc;
        ]
        (fun a ->
          a.(0).(0) <- a.(0).(0) +. (0.1 *. a.(1).(0));
          a.(2).(0) <- a.(2).(0) +. (a.(1).(0) *. a.(1).(0));
          a.(1).(0) <- 0.0)
    done;
    (Op2.fetch ctx u, rms.(0))
  in
  let u_seq, rms_seq = build Op2.Seq in
  let u_chk, rms_chk = build Op2.Check in
  Alcotest.(check bool) "u bitwise equal" true (u_seq = u_chk);
  Alcotest.(check (float 0.0)) "rms equal" rms_seq rms_chk

(* ---- sanitizer backend: OPS ------------------------------------------ *)

let test_sanitizer_ops () =
  let build backend =
    let ctx = Ops.create ~backend () in
    let b = Ops.decl_block ctx ~name:"grid" in
    let u = Ops.decl_dat ctx ~name:"u" ~block:b ~xsize:8 ~ysize:6 () in
    let w = Ops.decl_dat ctx ~name:"w" ~block:b ~xsize:8 ~ysize:6 () in
    Ops.init ctx u (fun x y _ -> float_of_int ((x * 10) + y));
    Ops.par_loop ctx ~name:"smooth" b (Ops.interior u)
      [
        Ops.arg_dat u Ops.stencil_2d_5pt Access.Read;
        Ops.arg_dat w Ops.stencil_point Access.Write;
      ]
      (fun a ->
        a.(1).(0) <- 0.25 *. (a.(0).(1) +. a.(0).(2) +. a.(0).(3) +. a.(0).(4)));
    Ops.fetch_interior ctx w
  in
  Alcotest.(check bool) "ops clean run matches seq" true
    (build Ops.Seq = build Ops.Check);
  let ctx = Ops.create ~backend:Ops.Check () in
  let b = Ops.decl_block ctx ~name:"grid" in
  let u = Ops.decl_dat ctx ~name:"u" ~block:b ~xsize:8 ~ysize:6 () in
  let w = Ops.decl_dat ctx ~name:"w" ~block:b ~xsize:8 ~ysize:6 () in
  Ops.init ctx u (fun _ _ _ -> 1.0);
  (* The stencil declares only the centre point; reading slot 1 picks up a
     canary NaN, which the Write argument's scatter then rejects. *)
  expect_violation "undeclared stencil point" "Write argument is NaN"
    (fun () ->
      Ops.par_loop ctx ~name:"missing_pt" b (Ops.interior u)
        [
          Ops.arg_dat u Ops.stencil_point Access.Read;
          Ops.arg_dat w Ops.stencil_point Access.Write;
        ]
        (fun a -> a.(1).(0) <- a.(0).(1)));
  expect_violation "write to Read arg names the point" "point ("
    (fun () ->
      Ops.par_loop ctx ~name:"wr2" b (Ops.interior u)
        [
          Ops.arg_dat u Ops.stencil_point Access.Read;
          Ops.arg_dat w Ops.stencil_point Access.Write;
        ]
        (fun a ->
          a.(0).(0) <- 0.0;
          a.(1).(0) <- 1.0))

(* A dataset array replaced by a shorter one: the range is proved inside
   every array the closures read before any point runs. *)
let test_sanitizer_ops_short_array () =
  let ctx = Ops.create ~backend:Ops.Check () in
  let b = Ops.decl_block ctx ~name:"grid" in
  let u = Ops.decl_dat ctx ~name:"u" ~block:b ~xsize:8 ~ysize:6 () in
  let w = Ops.decl_dat ctx ~name:"w" ~block:b ~xsize:8 ~ysize:6 () in
  u.Am_ops.Types.data <- Array.make 20 1.0;
  expect_naming "short array"
    [ "loop short_u"; "arg 0 (u)"; "range [0,8)x[0,6)"; "dat u, whose array holds 20" ]
    (fun () ->
      Ops.par_loop ctx ~name:"short_u" b (Ops.interior w)
        [
          Ops.arg_dat u Ops.stencil_2d_5pt Access.Read;
          Ops.arg_dat w Ops.stencil_point Access.Write;
        ]
        (fun a -> a.(1).(0) <- a.(0).(0)));
  Alcotest.(check bool) "nothing written" true
    (Ops.fetch_interior ctx w = Array.make 48 0.0)

let test_sanitizer_ops1_ops3 () =
  let c1 = Ops1.create ~backend:Ops1.Check () in
  let b1 = Ops1.decl_block c1 ~name:"line" in
  let u1 = Ops1.decl_dat c1 ~name:"u1" ~block:b1 ~xsize:8 () in
  Ops1.init c1 u1 (fun x _ -> float_of_int x);
  expect_violation "ops1 write to Read" "Read argument" (fun () ->
      Ops1.par_loop c1 ~name:"wr1" b1 (Ops1.interior u1)
        [ Ops1.arg_dat u1 Ops1.stencil_point Access.Read ]
        (fun a -> a.(0).(0) <- 9.0));
  let c3 = Ops3.create ~backend:Ops3.Check () in
  let b3 = Ops3.decl_block c3 ~name:"box" in
  let w3 = Ops3.decl_dat c3 ~name:"w3" ~block:b3 ~xsize:4 ~ysize:4 ~zsize:4 () in
  expect_violation "ops3 unwritten Write" "never wrote" (fun () ->
      Ops3.par_loop c3 ~name:"uw3" b3 (Ops3.interior w3)
        [ Ops3.arg_dat w3 Ops3.stencil_point Access.Write ]
        (fun _ -> ()))

(* ---- cross-loop dataflow ---------------------------------------------- *)

let direct_arg name id access =
  { Descr.dat_name = name; dat_id = id; dim = 1; access; kind = Descr.Direct }

let mk_loop name args =
  {
    Descr.loop_name = name;
    set_name = "cells";
    set_size = 100;
    args;
    info = Descr.default_kernel_info;
  }

let test_dataflow_dead_write () =
  let loops =
    [
      mk_loop "writer_a" [ direct_arg "d" 0 Access.Write ];
      mk_loop "writer_b" [ direct_arg "d" 0 Access.Write ];
    ]
  in
  let r = Analysis.analyze loops in
  let w = List.filter Finding.is_warning r.Analysis.findings in
  Alcotest.(check bool) "dead write warned under exact coverage" true
    (List.exists (fun (f : Finding.t) -> contains f.Finding.message "dead write") w);
  let r' = Analysis.analyze ~direct_covers:false loops in
  Alcotest.(check int) "only a note when ranges are unknown" 0
    (Analysis.warnings r' + Analysis.errors r')

let test_dataflow_halo_schedule () =
  let stencil_read name dat out out_id =
    mk_loop name
      [
        {
          Descr.dat_name = dat;
          dat_id = 0;
          dim = 1;
          access = Access.Read;
          kind = Descr.Stencil { points = 5; extent = 1 };
        };
        direct_arg out out_id Access.Write;
      ]
  in
  let cycle =
    [
      mk_loop "relax" [ direct_arg "u" 0 Access.Write ];
      stencil_read "smooth" "u" "out_a" 1;
      stencil_read "smooth_again" "u" "out_b" 2;
    ]
  in
  (* two repetitions so the period detector sees a full cycle *)
  let r = Analysis.analyze (cycle @ cycle) in
  Alcotest.(check int) "one period analysed" 3 r.Analysis.loops_analyzed;
  let sched =
    List.filter (fun ex -> ex.Dataflow.ex_dat = "u") r.Analysis.schedule
  in
  Alcotest.(check int) "two ghost-reaching reads" 2 (List.length sched);
  (match sched with
  | [ a; b ] ->
    Alcotest.(check bool) "first read needs the exchange" true
      (a.Dataflow.ex_kind = Dataflow.Needed && a.Dataflow.ex_loop = "smooth");
    Alcotest.(check bool) "second read's exchange is redundant" true
      (b.Dataflow.ex_kind = Dataflow.Redundant)
  | _ -> Alcotest.fail "unexpected schedule shape");
  Alcotest.(check int) "halo schedule is not a warning" 0
    (Analysis.warnings r + Analysis.errors r)

let test_dataflow_ghost_depth () =
  let loop =
    mk_loop "wide"
      [
        {
          Descr.dat_name = "u";
          dat_id = 0;
          dim = 1;
          access = Access.Read;
          kind = Descr.Stencil { points = 7; extent = 3 };
        };
        direct_arg "out" 1 Access.Write;
      ]
  in
  let r = Analysis.analyze ~ghost_depth:2 [ loop ] in
  Alcotest.(check int) "stencil past the ghost shell is an error" 1
    (Analysis.errors r);
  let f = List.find Finding.is_error r.Analysis.findings in
  Alcotest.(check bool) "names the loop and depth" true
    (f.Finding.loop = "wide" && contains f.Finding.message "ghost shell");
  Alcotest.(check int) "within the shell is clean" 0
    (Analysis.errors (Analysis.analyze ~ghost_depth:3 [ loop ]))

(* ---- whole applications under --check are clean ----------------------- *)

let test_airfoil_clean () =
  let mesh = Umesh.generate_airfoil ~nx:16 ~ny:12 () in
  let t = Am_airfoil.App.create mesh in
  Op2.set_backend t.Am_airfoil.App.ctx Op2.Check;
  Am_core.Trace.set_enabled (Op2.trace t.Am_airfoil.App.ctx) true;
  for _ = 1 to 3 do
    ignore (Am_airfoil.App.iteration t)
  done;
  let r = Analysis.check_op2 t.Am_airfoil.App.ctx in
  Alcotest.(check int) "airfoil has no error/warning findings" 0
    (Analysis.errors r + Analysis.warnings r)

let test_tealeaf_clean () =
  let t = Am_tealeaf.App.create ~n:8 () in
  Ops3.set_backend t.Am_tealeaf.App.ctx Ops3.Check;
  Am_core.Trace.set_enabled (Ops3.trace t.Am_tealeaf.App.ctx) true;
  for _ = 1 to 2 do
    ignore (Am_tealeaf.App.step t)
  done;
  let r = Analysis.check_ops3 t.Am_tealeaf.App.ctx in
  Alcotest.(check int) "tealeaf has no error/warning findings" 0
    (Analysis.errors r + Analysis.warnings r)

let () =
  Alcotest.run "analysis"
    [
      ( "constructors",
        [ Alcotest.test_case "access-mode validation" `Quick test_constructors ] );
      ( "lint",
        [
          Alcotest.test_case "many-to-one write mutation" `Quick
            test_lint_many_to_one;
          Alcotest.test_case "cross-element aliasing" `Quick test_lint_aliasing;
          Alcotest.test_case "illegal modes" `Quick test_lint_modes;
        ] );
      ( "plan",
        [ Alcotest.test_case "validate + forged colouring" `Quick test_plan_validate ]
      );
      ( "sanitizer-op2",
        [
          Alcotest.test_case "violations" `Quick test_sanitizer_op2_violations;
          Alcotest.test_case "diagnostic coordinates" `Quick
            test_sanitizer_op2_coordinates;
          Alcotest.test_case "clean run equals seq" `Quick test_sanitizer_op2_clean;
          Alcotest.test_case "moved map entry and short array" `Quick
            test_sanitizer_op2_corrupted;
        ] );
      ( "sanitizer-ops",
        [
          Alcotest.test_case "2d" `Quick test_sanitizer_ops;
          Alcotest.test_case "short array" `Quick test_sanitizer_ops_short_array;
          Alcotest.test_case "1d and 3d" `Quick test_sanitizer_ops1_ops3;
        ] );
      ( "dataflow",
        [
          Alcotest.test_case "dead write" `Quick test_dataflow_dead_write;
          Alcotest.test_case "halo schedule" `Quick test_dataflow_halo_schedule;
          Alcotest.test_case "ghost depth" `Quick test_dataflow_ghost_depth;
        ] );
      ( "apps",
        [
          Alcotest.test_case "airfoil clean under check" `Quick test_airfoil_clean;
          Alcotest.test_case "tealeaf clean under check" `Quick test_tealeaf_clean;
        ] );
    ]

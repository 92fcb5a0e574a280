(* Tests for kernel footprint inference (Probe) and the Verify diff.

   The central property is a round-trip: synthesize a (descriptor, kernel)
   pair from a randomly chosen footprint — the kernel mechanically reads
   exactly the chosen slots and writes exactly its output argument — and
   inference must recover that footprint bit-for-bit: every chosen slot
   observed read, no other slot observed read or written, the footprint
   clean.

   The mutation tests drive the whole pipeline instead: a real facade
   context (Airfoil-shaped OP2 program, CloverLeaf-shaped OPS stencil
   loop) runs one seeded descriptor lie — an undeclared write to a Read
   argument, an over-declared stencil point, an Inc that overwrites — and
   [Analysis.static_*] must report exactly that defect, naming the loop,
   the argument and the slot.  The OP2 lies are told again through the
   accessor ABI, where they reach memory in place, plus a write past
   [dim] that the Check backend must stop as well; the OPS accessor lies
   (a written Read argument, an undeclared stencil point, a component
   past [dim]) must be caught by both without an index error. *)

module Probe = Am_core.Probe
module Descr = Am_core.Descr
module Access = Am_core.Access
module Trace = Am_core.Trace
module Verify = Am_analysis.Verify
module Finding = Am_analysis.Finding
module Analysis = Am_analysis.Analysis
module Op2 = Am_op2.Op2
module Ops = Am_ops.Ops
module Umesh = Am_mesh.Umesh

let contains = Str_contains.contains

(* ---- round-trip property --------------------------------------------- *)

(* One synthetic input argument: [mask] marks the staging slots the
   generated kernel actually reads (length points * dim). *)
type arg_spec = { sp_dim : int; sp_points : int; sp_mask : bool array }

let spec_gen =
  QCheck.Gen.(
    let input =
      int_range 1 2 >>= fun sp_dim ->
      int_range 1 4 >>= fun sp_points ->
      array_size (return (sp_points * sp_dim)) bool >>= fun sp_mask ->
      return { sp_dim; sp_points; sp_mask }
    in
    list_size (int_range 1 3) input >>= fun inputs ->
    int_range 1 2 >>= fun out_dim ->
    bool >>= fun out_inc -> return (inputs, out_dim, out_inc))

let spec_print (inputs, out_dim, out_inc) =
  let mask m =
    String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") m))
  in
  Printf.sprintf "inputs=[%s] out_dim=%d out=%s"
    (String.concat "; "
       (List.map
          (fun sp -> Printf.sprintf "%dx%d:%s" sp.sp_points sp.sp_dim (mask sp.sp_mask))
          inputs))
    out_dim
    (if out_inc then "Inc" else "Write")

let descr_of_spec inputs out_dim out_inc =
  let nin = List.length inputs in
  let args =
    List.mapi
      (fun i sp ->
        {
          Descr.dat_name = Printf.sprintf "in%d" i;
          dat_id = i;
          dim = sp.sp_dim;
          access = Access.Read;
          kind =
            (if sp.sp_points = 1 then Descr.Direct
             else Descr.Stencil { points = sp.sp_points; extent = sp.sp_points / 2 });
        })
      inputs
    @ [
        {
          Descr.dat_name = "out";
          dat_id = nin;
          dim = out_dim;
          access = (if out_inc then Access.Inc else Access.Write);
          kind = Descr.Direct;
        };
      ]
  in
  {
    Descr.loop_name = "synth";
    set_name = "s";
    set_size = 0;
    args;
    info = Descr.default_kernel_info;
  }

(* The kernel reads exactly the masked slots (each with a distinct nonzero
   coefficient, so any masked slot's value flows into the output) and
   writes exactly the output argument's slots. *)
let kernel_of_spec inputs out_dim out_inc (bufs : float array array) =
  let nin = List.length inputs in
  let acc = ref 1.0 in
  List.iteri
    (fun i sp ->
      Array.iteri
        (fun s m -> if m then acc := !acc +. (bufs.(i).(s) *. Float.of_int (s + 2)))
        sp.sp_mask)
    inputs;
  for s = 0 to out_dim - 1 do
    let v = (!acc *. Float.of_int (s + 1)) +. 0.25 in
    if out_inc then bufs.(nin).(s) <- bufs.(nin).(s) +. v else bufs.(nin).(s) <- v
  done

let prop_roundtrip =
  QCheck.Test.make ~name:"synthesized footprint round-trips exactly" ~count:100
    (QCheck.make ~print:spec_print spec_gen)
    (fun ((inputs, out_dim, out_inc) as spec) ->
      let descr = descr_of_spec inputs out_dim out_inc in
      let fp = Probe.infer ~loop:descr ~kernel:(kernel_of_spec inputs out_dim out_inc) () in
      let fail fmt = QCheck.Test.fail_reportf ("%s: " ^^ fmt) (spec_print spec) in
      if not (Probe.clean fp) then fail "footprint not clean";
      List.iteri
        (fun i sp ->
          let af = fp.Probe.fp_args.(i) in
          if af.Probe.af_read <> sp.sp_mask then
            fail "arg %d: observed reads differ from the synthesized mask" i;
          if Probe.any af.Probe.af_written then fail "arg %d: phantom write observed" i;
          if af.Probe.af_pad_read || af.Probe.af_pad_written then
            fail "arg %d: phantom pad access" i)
        inputs;
      let out = fp.Probe.fp_args.(List.length inputs) in
      if not (Array.for_all Fun.id out.Probe.af_written) then
        fail "output: not every slot observed written";
      if out.Probe.af_non_additive then fail "output: additive Inc flagged";
      true)

(* ---- mutation: undeclared write on an Airfoil-shaped program ----------- *)

(* The res_calc shape: u read through both components of edge_cells, du
   incremented through the same map. *)
type mini = {
  ctx : Op2.ctx;
  edges : Op2.set;
  edge_cells : Op2.map_t;
  u : Op2.dat;
  du : Op2.dat;
}

let build_mini () =
  let mesh = Umesh.generate_square ~nx:9 ~ny:7 () in
  let ctx = Op2.create () in
  let cells = Op2.decl_set ctx ~name:"cells" ~size:mesh.Umesh.n_cells in
  let edges = Op2.decl_set ctx ~name:"edges" ~size:mesh.Umesh.n_edges in
  let edge_cells =
    Op2.decl_map ctx ~name:"edge_cells" ~from_set:edges ~to_set:cells ~arity:2
      ~values:mesh.Umesh.edge_cells
  in
  let init = Array.init mesh.Umesh.n_cells (fun c -> 1.0 +. (0.1 *. Float.of_int c)) in
  let u = Op2.decl_dat ctx ~name:"u" ~set:cells ~dim:1 ~data:init in
  let du = Op2.decl_dat_zero ctx ~name:"du" ~set:cells ~dim:1 in
  Trace.set_enabled (Op2.trace ctx) true;
  { ctx; edges; edge_cells; u; du }

let find_verify ~severity ~loop ~arg ~needle findings =
  List.exists
    (fun (f : Finding.t) ->
      f.Finding.layer = Finding.Verify
      && f.Finding.severity = severity
      && f.Finding.loop = loop && f.Finding.arg = arg
      && contains f.Finding.message needle)
    findings

let test_undeclared_write () =
  let m = build_mini () in
  Op2.par_loop m.ctx ~name:"flux_bad" m.edges
    [
      Op2.arg_dat_indirect m.u m.edge_cells 0 Access.Read;
      Op2.arg_dat_indirect m.u m.edge_cells 1 Access.Read;
      Op2.arg_dat_indirect m.du m.edge_cells 0 Access.Inc;
      Op2.arg_dat_indirect m.du m.edge_cells 1 Access.Inc;
    ]
    (fun a ->
      let f = a.(1).(0) -. a.(0).(0) in
      a.(2).(0) <- a.(2).(0) +. f;
      a.(3).(0) <- a.(3).(0) -. f;
      (* the lie: scribble on the Read argument's staging *)
      a.(0).(0) <- 0.0);
  let r = Analysis.static_op2 m.ctx in
  Alcotest.(check bool)
    "error names loop flux_bad, arg 0, slot 0" true
    (find_verify ~severity:Finding.Error ~loop:"flux_bad" ~arg:0
       ~needle:"observed write to slot(s) 0 of a Read argument"
       r.Analysis.findings)

(* ---- mutation: Inc that overwrites ------------------------------------ *)

let test_inc_overwrite () =
  let m = build_mini () in
  Op2.par_loop m.ctx ~name:"flux_clobber" m.edges
    [
      Op2.arg_dat_indirect m.u m.edge_cells 0 Access.Read;
      Op2.arg_dat_indirect m.du m.edge_cells 0 Access.Inc;
    ]
    (fun a -> (* overwrite instead of accumulate *)
      a.(1).(0) <- a.(0).(0));
  let r = Analysis.static_op2 m.ctx in
  Alcotest.(check bool)
    "error names loop flux_clobber, arg 1, overwriting Inc" true
    (find_verify ~severity:Finding.Error ~loop:"flux_clobber" ~arg:1
       ~needle:"Inc argument observed overwriting" r.Analysis.findings)

(* ---- the same lies through the accessor ABI ---------------------------- *)

(* An accessor kernel writes Read arguments in place, so these lies reach
   memory on Seq; probing runs the kernel over sentinel staging buffers
   when the analysis reads the footprints, and must still name the loop,
   the argument and the slot. *)

module Acc = Op2.Acc

let get (a : Acc.t) i = a.Acc.data.(a.Acc.base + i)
let set (a : Acc.t) i v = a.Acc.data.(a.Acc.base + i) <- v

let test_acc_undeclared_write () =
  let m = build_mini () in
  Op2.par_loop_acc m.ctx ~name:"flux_bad_acc" m.edges
    [
      Op2.arg_dat_indirect m.u m.edge_cells 0 Access.Read;
      Op2.arg_dat_indirect m.u m.edge_cells 1 Access.Read;
      Op2.arg_dat_indirect m.du m.edge_cells 0 Access.Inc;
      Op2.arg_dat_indirect m.du m.edge_cells 1 Access.Inc;
    ]
    (Op2.Acc.lift (fun a ->
         let f = get a.(1) 0 -. get a.(0) 0 in
         set a.(2) 0 (get a.(2) 0 +. f);
         set a.(3) 0 (get a.(3) 0 -. f);
         set a.(0) 0 0.0));
  Alcotest.(check bool)
    "error names loop flux_bad_acc, arg 0, slot 0" true
    (find_verify ~severity:Finding.Error ~loop:"flux_bad_acc" ~arg:0
       ~needle:"observed write to slot(s) 0 of a Read argument"
       (Analysis.static_op2 m.ctx).Analysis.findings)

let test_acc_inc_overwrite () =
  let m = build_mini () in
  Op2.par_loop_acc m.ctx ~name:"flux_clobber_acc" m.edges
    [
      Op2.arg_dat_indirect m.u m.edge_cells 0 Access.Read;
      Op2.arg_dat_indirect m.du m.edge_cells 0 Access.Inc;
    ]
    (Op2.Acc.lift (fun a -> set a.(1) 0 (get a.(0) 0)));
  Alcotest.(check bool)
    "error names loop flux_clobber_acc, arg 1, overwriting Inc" true
    (find_verify ~severity:Finding.Error ~loop:"flux_clobber_acc" ~arg:1
       ~needle:"Inc argument observed overwriting"
       (Analysis.static_op2 m.ctx).Analysis.findings)

(* A component past [dim]: in place it would land on the next element's
   value, so the Check backend's canary and probing's pad must both catch
   it.  Component 1 of a dim-1 argument, and component 6 of a dim-4 one,
   which a two-slot pad would miss: the pad is a whole point wide. *)
let test_acc_component_past_dim () =
  List.iter
    (fun (name, dim, comp) ->
      let m = build_mini () in
      let out =
        if dim = 1 then m.du
        else
          Op2.decl_dat_zero m.ctx ~name:"du4" ~set:m.edge_cells.Am_op2.Types.to_set ~dim
      in
      Op2.set_backend m.ctx Op2.Check;
      (match
         Op2.par_loop_acc m.ctx ~name m.edges
           [
             Op2.arg_dat_indirect m.u m.edge_cells 0 Access.Read;
             Op2.arg_dat_indirect out m.edge_cells 0 Access.Inc;
           ]
           (Op2.Acc.lift (fun a -> set a.(1) comp (get a.(0) 0)))
       with
      | () -> Alcotest.failf "check let a write past dim %d through" dim
      | exception Am_core.Sanitizer.Violation msg ->
        Alcotest.(check bool)
          (Printf.sprintf "check names loop, arg and element: %s" msg)
          true
          (contains msg ("loop " ^ name) && contains msg "arg 1" && contains msg "element 0"
          && contains msg "wrote past"));
      Alcotest.(check bool)
        (Printf.sprintf "verify names loop %s, arg 1, the pad" name)
        true
        (find_verify ~severity:Finding.Error ~loop:name ~arg:1
           ~needle:(Printf.sprintf "observed write past the %d declared staging slot(s)" dim)
           (Analysis.static_op2 m.ctx).Analysis.findings))
    [ ("flux_wide_acc", 1, 1); ("wide", 4, 6) ]

(* ---- the OPS lies through accessors ------------------------------------ *)

(* An OPS accessor kernel reads and writes datasets in place on Seq, so a
   lie reaches memory there.  Probing and Check stage every argument over
   canary-padded buffers whose offset tables reach into the pad: a write
   to a Read argument, a read of an undeclared stencil point and a read of
   a component past [dim] must each be reported — by the probe against the
   lying argument, by Check at the first point it executes — and never
   surface as an index error. *)

module OAcc = Ops.Acc

let oget (a : OAcc.t) p c = a.OAcc.data.(a.OAcc.base + a.OAcc.off.(p) + c)
let oset (a : OAcc.t) p c v = a.OAcc.data.(a.OAcc.base + a.OAcc.off.(p) + c) <- v

(* Run the lie [kernel] over u (read through [stencil]) into w on the Check
   backend; return Check's violation and the static findings. *)
let ops_lie ~name ~stencil kernel =
  let ctx = Ops.create ~backend:Ops.Check () in
  let grid = Ops.decl_block ctx ~name:"grid" in
  let u = Ops.decl_dat ctx ~name:"u" ~block:grid ~xsize:8 ~ysize:6 () in
  let w = Ops.decl_dat ctx ~name:"w" ~block:grid ~xsize:8 ~ysize:6 () in
  Ops.init ctx u (fun x y _ -> 1.0 +. Float.of_int ((x * 3) + y));
  Trace.set_enabled (Ops.trace ctx) true;
  let violation =
    match
      Ops.par_loop_acc ctx ~name grid (Ops.interior u)
        [ Ops.arg_dat u stencil Access.Read; Ops.arg_dat w Ops.stencil_point Access.Write ]
        (Ops.Acc.lift kernel)
    with
    | () -> Alcotest.failf "check let the %s lie through" name
    | exception Am_core.Sanitizer.Violation msg -> msg
  in
  (violation, (Analysis.static_ops ctx).Analysis.findings)

let check_names_point ~name ~arg msg =
  Alcotest.(check bool)
    (Printf.sprintf "check names loop %s, arg %d, point (0,0): %s" name arg msg)
    true
    (contains msg ("loop " ^ name)
    && contains msg (Printf.sprintf "arg %d" arg)
    && contains msg "point (0,0)")

let test_ops_acc_read_written () =
  let msg, fs =
    ops_lie ~name:"scribble_acc" ~stencil:Ops.stencil_point (fun a ->
        oset a.(1) 0 0 (oget a.(0) 0 0);
        oset a.(0) 0 0 0.0)
  in
  check_names_point ~name:"scribble_acc" ~arg:0 msg;
  Alcotest.(check bool) "check: Read argument written" true
    (contains msg "of a Read argument");
  Alcotest.(check bool)
    "verify names loop scribble_acc, arg 0, slot 0" true
    (find_verify ~severity:Finding.Error ~loop:"scribble_acc" ~arg:0
       ~needle:"observed write to slot(s) 0 of a Read argument" fs)

(* Point 2 of a 2-point stencil: the staged offset table's third entry
   lands in the pad, whose canary NaN poisons the written value. *)
let test_ops_acc_undeclared_point () =
  let msg, fs =
    ops_lie ~name:"wide_acc" ~stencil:Ops.stencil_2d_plus1x (fun a ->
        oset a.(1) 0 0 (oget a.(0) 0 0 +. oget a.(0) 2 0))
  in
  check_names_point ~name:"wide_acc" ~arg:1 msg;
  Alcotest.(check bool)
    "verify names loop wide_acc, arg 0, the pad" true
    (find_verify ~severity:Finding.Error ~loop:"wide_acc" ~arg:0
       ~needle:"observed read past the 2 declared staging slot(s)" fs)

let test_ops_acc_component_past_dim () =
  let msg, fs =
    ops_lie ~name:"deep_acc" ~stencil:Ops.stencil_point (fun a ->
        oset a.(1) 0 0 (oget a.(0) 0 1))
  in
  check_names_point ~name:"deep_acc" ~arg:1 msg;
  Alcotest.(check bool)
    "verify names loop deep_acc, arg 0, the pad" true
    (find_verify ~severity:Finding.Error ~loop:"deep_acc" ~arg:0
       ~needle:"observed read past the 1 declared staging slot(s)" fs)

(* ---- mutation: over-declared stencil point (CloverLeaf shape) ---------- *)

let test_overdeclared_stencil () =
  let ctx = Ops.create () in
  let grid = Ops.decl_block ctx ~name:"grid" in
  let u = Ops.decl_dat ctx ~name:"u" ~block:grid ~xsize:12 ~ysize:10 ~halo:1 () in
  let w = Ops.decl_dat ctx ~name:"w" ~block:grid ~xsize:12 ~ysize:10 ~halo:1 () in
  Ops.init ctx u (fun x y _ -> Float.of_int ((x * 3) + y));
  Trace.set_enabled (Ops.trace ctx) true;
  (* Declares the full 5-point stencil but reads only one point — the
     CloverLeaf advection shape whose over-declaration the halo consumer
     pays for. *)
  Ops.par_loop ctx ~name:"advec_narrow" grid (Ops.interior u)
    [
      Ops.arg_dat u Ops.stencil_2d_5pt Access.Read;
      Ops.arg_dat w Ops.stencil_point Access.Write;
    ]
    (fun a -> a.(1).(0) <- 2.0 *. a.(0).(0));
  let r = Analysis.static_ops ctx in
  let fs = r.Analysis.findings in
  Alcotest.(check bool)
    "warning names loop advec_narrow, arg 0, unread stencil points" true
    (find_verify ~severity:Finding.Warning ~loop:"advec_narrow" ~arg:0
       ~needle:"never observed read" fs);
  Alcotest.(check bool)
    "no error-severity finding for a mere over-declaration" true
    (not (List.exists Finding.is_error fs))

(* ---- direct Verify diff on a hand-built footprint ---------------------- *)

(* The Verify layer itself, without a facade: an undeclared write shows as
   an Error carrying the slot list, an unread declared argument as a
   Warning — the severity split the probing soundness model dictates. *)
let test_verify_severity_split () =
  let descr =
    descr_of_spec
      [ { sp_dim = 1; sp_points = 1; sp_mask = [| false |] } ]
      1 false
  in
  let fp =
    Probe.infer ~loop:descr
      ~kernel:(fun bufs ->
        bufs.(1).(0) <- 1.0 +. bufs.(0).(0);
        bufs.(0).(0) <- 7.0 (* undeclared write *))
      ()
  in
  let fi = { Probe.in_loop = descr; in_foot = fp; in_read_ext = [| -1; -1 |] } in
  let fs = Verify.check [ fi ] in
  Alcotest.(check bool)
    "undeclared write is an error" true
    (find_verify ~severity:Finding.Error ~loop:"synth" ~arg:0
       ~needle:"observed write to slot(s) 0" fs);
  Alcotest.(check bool)
    "clean footprints are withheld from consumers" false
    (Probe.clean fp)

(* ---- call-site shape: concrete offsets, not abstracted shape ---------- *)

(* Two loops under one name whose stencils agree on everything [Descr]
   renders (2 points, extent 1) but differ in offsets: the horizontal and
   vertical variants are two call sites, each with its own footprint — a
   shared one would apply one variant's read extents to the other's
   offsets. *)
let test_stencil_salt () =
  let ctx = Ops.create () in
  let grid = Ops.decl_block ctx ~name:"grid" in
  let u = Ops.decl_dat ctx ~name:"u" ~block:grid ~xsize:10 ~ysize:10 ~halo:1 () in
  let w = Ops.decl_dat ctx ~name:"w" ~block:grid ~xsize:10 ~ysize:10 ~halo:1 () in
  Ops.init ctx u (fun x y _ -> Float.of_int ((x * 3) + y));
  let run stencil =
    Ops.par_loop ctx ~name:"drift" grid (Ops.interior u)
      [
        Ops.arg_dat u stencil Access.Read;
        Ops.arg_dat w Ops.stencil_point Access.Write;
      ]
      (fun a -> a.(1).(0) <- a.(0).(0) +. a.(0).(1))
  in
  run Ops.stencil_2d_plus1x;
  run Ops.stencil_2d_plus1y;
  Alcotest.(check int) "one cached footprint per offset set" 2
    (List.length (Ops.footprints ctx))

(* ---- probing iteration-index buffers by marker, not by name ------------ *)

let idx_descr () =
  {
    Descr.loop_name = "idxprobe";
    set_name = "s";
    set_size = 0;
    args =
      [
        {
          Descr.dat_name = "idx";
          dat_id = -1;
          dim = 1;
          access = Access.Read;
          kind = Descr.Global;
        };
        {
          Descr.dat_name = "out";
          dat_id = 0;
          dim = 1;
          access = Access.Write;
          kind = Descr.Direct;
        };
      ];
    info = Descr.default_kernel_info;
  }

(* Only a facade-supplied [~idx] mask makes an argument probe as iteration
   coordinates; a user global that merely happens to be named "idx" gets
   ordinary probe values.  The first kernel call is the probe-0 baseline:
   the coordinate fill puts exactly slot+1 = 1.0 there, the ordinary fill
   a signature-deterministic value that is not 1.0. *)
let test_idx_marker () =
  let capture () =
    let seen = ref None in
    let kernel bufs =
      if !seen = None then seen := Some bufs.(0).(0);
      bufs.(1).(0) <- bufs.(0).(0) +. 1.0
    in
    (seen, kernel)
  in
  let seen_marked, k_marked = capture () in
  ignore (Probe.infer ~idx:[| true; false |] ~loop:(idx_descr ()) ~kernel:k_marked ());
  Alcotest.(check (option (float 0.0)))
    "marked arg probes as coordinates" (Some 1.0) !seen_marked;
  let seen_plain, k_plain = capture () in
  ignore (Probe.infer ~loop:(idx_descr ()) ~kernel:k_plain ());
  match !seen_plain with
  | None -> Alcotest.fail "kernel never ran"
  | Some v ->
    Alcotest.(check bool) "unmarked \"idx\" global probes normally" true (v <> 1.0)

(* ---- footprints are a report, probed when read --------------------------- *)

module Counters = Am_obs.Counters
module Obs = Am_obs.Obs

(* A kernel that writes its Read argument only for values above 1e6,
   which no probe vector reaches: the data sits at 1e7, so Check must
   stop it at the first element on both libraries. *)
let test_check_data_dependent_write_op2 () =
  let m = build_mini () in
  Op2.update m.ctx m.u (Array.make (Array.length (Op2.fetch m.ctx m.u)) 1e7);
  Op2.set_backend m.ctx Op2.Check;
  match
    Op2.par_loop m.ctx ~name:"big_scribble" m.edges
      [
        Op2.arg_dat_indirect m.u m.edge_cells 0 Access.Read;
        Op2.arg_dat_indirect m.du m.edge_cells 0 Access.Inc;
      ]
      (fun a ->
        a.(1).(0) <- a.(1).(0) +. a.(0).(0);
        if a.(0).(0) > 1e6 then a.(0).(0) <- 0.0)
  with
  | () -> Alcotest.fail "check let a data-dependent write to a Read argument through"
  | exception Am_core.Sanitizer.Violation msg ->
    Alcotest.(check bool) ("check names loop, arg and the write: " ^ msg) true
      (contains msg "loop big_scribble" && contains msg "arg 0"
      && contains msg "kernel wrote slot 0 of a Read argument")

let test_check_data_dependent_write_ops () =
  let ctx = Ops.create ~backend:Ops.Check () in
  let grid = Ops.decl_block ctx ~name:"grid" in
  let u = Ops.decl_dat ctx ~name:"u" ~block:grid ~xsize:8 ~ysize:6 () in
  let w = Ops.decl_dat ctx ~name:"w" ~block:grid ~xsize:8 ~ysize:6 () in
  Ops.init ctx u (fun _ _ _ -> 1e7);
  match
    Ops.par_loop ctx ~name:"big_scribble" grid (Ops.interior u)
      [ Ops.arg_dat u Ops.stencil_point Access.Read; Ops.arg_dat w Ops.stencil_point Access.Write ]
      (fun a ->
        a.(1).(0) <- a.(0).(0);
        if a.(0).(0) > 1e6 then a.(0).(0) <- 0.0)
  with
  | () -> Alcotest.fail "check let a data-dependent write to a Read argument through"
  | exception Am_core.Sanitizer.Violation msg ->
    check_names_point ~name:"big_scribble" ~arg:0 msg;
    Alcotest.(check bool) ("check names the write: " ^ msg) true
      (contains msg "kernel wrote slot 0 of a Read argument")

(* Three OP2 call sites: [flux] under two argument shapes and [update].
   Returns the context and the number of sites. *)
let op2_sites () =
  let m = build_mini () in
  let flux slot =
    Op2.par_loop m.ctx ~name:"flux" m.edges
      [
        Op2.arg_dat_indirect m.u m.edge_cells slot Access.Read;
        Op2.arg_dat_indirect m.du m.edge_cells 0 Access.Inc;
      ]
      (fun a -> a.(1).(0) <- a.(1).(0) +. a.(0).(0))
  in
  for _ = 1 to 3 do
    flux 0;
    flux 1;
    Op2.par_loop m.ctx ~name:"update" m.edges
      [ Op2.arg_dat_indirect m.u m.edge_cells 0 Access.Read ]
      (fun a -> ignore a.(0).(0))
  done;
  (m.ctx, 3)

(* The same on an OPS context: [copy] through two stencils and [scale]. *)
let ops_sites () =
  let ctx = Ops.create () in
  let grid = Ops.decl_block ctx ~name:"grid" in
  let u = Ops.decl_dat ctx ~name:"u" ~block:grid ~xsize:8 ~ysize:6 ~halo:1 () in
  let w = Ops.decl_dat ctx ~name:"w" ~block:grid ~xsize:8 ~ysize:6 ~halo:1 () in
  Ops.init ctx u (fun x y _ -> Float.of_int ((x * 3) + y));
  let copy stencil =
    Ops.par_loop ctx ~name:"copy" grid (Ops.interior u)
      [ Ops.arg_dat u stencil Access.Read; Ops.arg_dat w Ops.stencil_point Access.Write ]
      (fun a -> a.(1).(0) <- a.(0).(0) +. a.(0).(1))
  in
  for _ = 1 to 3 do
    copy Ops.stencil_2d_plus1x;
    copy Ops.stencil_2d_plus1y;
    Ops.par_loop ctx ~name:"scale" grid (Ops.interior u)
      [ Ops.arg_dat w Ops.stencil_point Access.Rw ]
      (fun a -> a.(0).(0) <- 0.5 *. a.(0).(0))
  done;
  (ctx, 3)

(* Running loops probes nothing: no backend reads a footprint. *)
let test_run_probes_nothing () =
  let runs = Counters.value Obs.infer_kernel_runs in
  ignore (op2_sites ());
  ignore (ops_sites ());
  Alcotest.(check int) "a run moves analysis.infer.kernel_runs by 0" 0
    (Counters.value Obs.infer_kernel_runs - runs)

(* The first [footprints] probes each call site once; a second probes
   nothing and returns the same footprints; a site added later is the
   only one the next read probes. *)
let check_probed_once ~sites ~footprints ~more =
  let probed f =
    let s0 = Counters.value Obs.infer_signatures in
    let fps = f () in
    (fps, Counters.value Obs.infer_signatures - s0)
  in
  let first, n1 = probed footprints in
  Alcotest.(check int) "the first read probes each call site once" sites n1;
  Alcotest.(check int) "one footprint per call site" sites (List.length first);
  let second, n2 = probed footprints in
  Alcotest.(check int) "a second read probes nothing" 0 n2;
  Alcotest.(check bool) "a second read returns the same footprints" true
    (List.length first = List.length second && List.for_all2 ( == ) first second);
  more ();
  let third, n3 = probed footprints in
  Alcotest.(check int) "a read after a new call site probes only it" 1 n3;
  Alcotest.(check int) "the new site's footprint joins the list" (sites + 1) (List.length third)

let test_footprints_probe_once_op2 () =
  let ctx, sites = op2_sites () in
  let cells = Op2.decl_set ctx ~name:"more_cells" ~size:4 in
  let v = Op2.decl_dat_zero ctx ~name:"v" ~set:cells ~dim:1 in
  check_probed_once ~sites
    ~footprints:(fun () -> Op2.footprints ctx)
    ~more:(fun () ->
      Op2.par_loop ctx ~name:"fill" cells [ Op2.arg_dat v Access.Write ] (fun a ->
          a.(0).(0) <- 1.0))

let test_footprints_probe_once_ops () =
  let ctx, sites = ops_sites () in
  let grid = Ops.decl_block ctx ~name:"more" in
  let v = Ops.decl_dat ctx ~name:"v" ~block:grid ~xsize:4 ~ysize:4 () in
  check_probed_once ~sites
    ~footprints:(fun () -> Ops.footprints ctx)
    ~more:(fun () ->
      Ops.par_loop ctx ~name:"fill" grid (Ops.interior v)
        [ Ops.arg_dat v Ops.stencil_point Access.Write ]
        (fun a -> a.(0).(0) <- 1.0))

(* ---- a handle two loops share ------------------------------------------ *)

(* One handle serves [clobber], which writes its Read argument, and [copy],
   which does not, over one argument list.  After both ran on Seq, Check
   must still stop [clobber], and the footprint table keeps one entry per
   name. *)
let loop_names feet = List.map (fun fi -> fi.Probe.in_loop.Descr.loop_name) feet

let test_shared_handle_op2 () =
  let m = build_mini () in
  let handle = Op2.make_handle () in
  let run name kernel =
    Op2.par_loop_acc m.ctx ~name ~handle m.edges
      [
        Op2.arg_dat_indirect m.u m.edge_cells 0 Access.Read;
        Op2.arg_dat_indirect m.du m.edge_cells 0 Access.Inc;
      ]
      (Op2.Acc.lift kernel)
  in
  let copy a = set a.(1) 0 (get a.(1) 0 +. get a.(0) 0) in
  let clobber a =
    copy a;
    set a.(0) 0 (get a.(0) 0 +. 1.0)
  in
  run "clobber" clobber;
  run "copy" copy;
  Op2.set_backend m.ctx Op2.Check;
  (match run "clobber" clobber with
  | () -> Alcotest.fail "check ran clobber under copy's clean footprint"
  | exception Am_core.Sanitizer.Violation msg ->
    Alcotest.(check bool) ("check names loop clobber: " ^ msg) true
      (contains msg "loop clobber"));
  Alcotest.(check (list string)) "one footprint per loop name" [ "clobber"; "copy" ]
    (loop_names (Op2.footprints m.ctx))

let test_shared_handle_ops () =
  let ctx = Ops.create () in
  let grid = Ops.decl_block ctx ~name:"grid" in
  let u = Ops.decl_dat ctx ~name:"u" ~block:grid ~xsize:8 ~ysize:6 () in
  let w = Ops.decl_dat ctx ~name:"w" ~block:grid ~xsize:8 ~ysize:6 () in
  Ops.init ctx u (fun x y _ -> 1.0 +. Float.of_int ((x * 3) + y));
  let handle = Ops.make_handle () in
  let run name kernel =
    Ops.par_loop_acc ctx ~name ~handle grid (Ops.interior u)
      [ Ops.arg_dat u Ops.stencil_point Access.Read; Ops.arg_dat w Ops.stencil_point Access.Write ]
      (Ops.Acc.lift kernel)
  in
  let copy a = oset a.(1) 0 0 (oget a.(0) 0 0) in
  let clobber a =
    copy a;
    oset a.(0) 0 0 (oget a.(0) 0 0 +. 1.0)
  in
  run "clobber" clobber;
  run "copy" copy;
  Ops.set_backend ctx Ops.Check;
  (match run "clobber" clobber with
  | () -> Alcotest.fail "check ran clobber under copy's clean footprint"
  | exception Am_core.Sanitizer.Violation msg ->
    Alcotest.(check bool) ("check names loop clobber: " ^ msg) true
      (contains msg "loop clobber"));
  Alcotest.(check (list string)) "one footprint per loop name" [ "clobber"; "copy" ]
    (loop_names (Ops.footprints ctx))

(* ---- halo replay: the no-information sentinel is absorbing ------------- *)

module Dataflow = Am_analysis.Dataflow

let dflow_direct name id access =
  { Descr.dat_name = name; dat_id = id; dim = 1; access; kind = Descr.Direct }

let dflow_loop name args =
  {
    Descr.loop_name = name;
    set_name = "cells";
    set_size = 100;
    args;
    info = Descr.default_kernel_info;
  }

let test_halo_merge_absorbing () =
  let loops =
    [
      dflow_loop "relax" [ dflow_direct "u" 0 Access.Write ];
      dflow_loop "smooth"
        [
          {
            Descr.dat_name = "u";
            dat_id = 0;
            dim = 1;
            access = Access.Read;
            kind = Descr.Stencil { points = 5; extent = 1 };
          };
          dflow_direct "out" 1 Access.Write;
        ];
    ]
  in
  (* one centre-only proven variant alone: the replay drops the exchange
     and flags the over-declaration *)
  let sched1, over1 =
    Dataflow.halo_schedule ~inferred:[ ("smooth", [| 0; -1 |]) ] loops
  in
  Alcotest.(check int) "proven variant drops the exchange" 0 (List.length sched1);
  Alcotest.(check int) "and reports it redundant" 1 (List.length over1);
  (* the same proven variant plus an unproven one under the same loop
     name: -1 absorbs, the exchange stays, no false warning *)
  let sched2, over2 =
    Dataflow.halo_schedule
      ~inferred:[ ("smooth", [| 0; -1 |]); ("smooth", [| -1; -1 |]) ]
      loops
  in
  Alcotest.(check int) "unproven variant keeps the exchange" 1
    (List.length sched2);
  Alcotest.(check int) "no false redundancy warning" 0 (List.length over2);
  (* mismatched argument counts discard the whole entry *)
  let sched3, over3 =
    Dataflow.halo_schedule
      ~inferred:[ ("smooth", [| 0; -1 |]); ("smooth", [| 0 |]) ]
      loops
  in
  Alcotest.(check int) "length mismatch keeps the exchange" 1
    (List.length sched3);
  Alcotest.(check int) "length mismatch emits no warning" 0 (List.length over3)

let () =
  Alcotest.run "infer"
    [
      ( "roundtrip",
        [ QCheck_alcotest.to_alcotest prop_roundtrip ] );
      ( "mutations",
        [
          Alcotest.test_case "undeclared write (airfoil shape)" `Quick
            test_undeclared_write;
          Alcotest.test_case "inc overwrite (airfoil shape)" `Quick
            test_inc_overwrite;
          Alcotest.test_case "undeclared write through accessors" `Quick
            test_acc_undeclared_write;
          Alcotest.test_case "inc overwrite through accessors" `Quick
            test_acc_inc_overwrite;
          Alcotest.test_case "component past dim through accessors" `Quick
            test_acc_component_past_dim;
          Alcotest.test_case "ops: Read written through accessors" `Quick
            test_ops_acc_read_written;
          Alcotest.test_case "ops: undeclared point through accessors" `Quick
            test_ops_acc_undeclared_point;
          Alcotest.test_case "ops: component past dim through accessors" `Quick
            test_ops_acc_component_past_dim;
          Alcotest.test_case "over-declared stencil (cloverleaf shape)" `Quick
            test_overdeclared_stencil;
        ] );
      ( "verify",
        [
          Alcotest.test_case "severity split" `Quick test_verify_severity_split;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "offsets salt the footprint cache" `Quick
            test_stencil_salt;
          Alcotest.test_case "idx probing needs the marker, not the name" `Quick
            test_idx_marker;
          Alcotest.test_case "check stops a data-dependent Read write (op2)" `Quick
            test_check_data_dependent_write_op2;
          Alcotest.test_case "check stops a data-dependent Read write (ops)" `Quick
            test_check_data_dependent_write_ops;
          Alcotest.test_case "a run probes no kernel" `Quick test_run_probes_nothing;
          Alcotest.test_case "footprints probe each call site once (op2)" `Quick
            test_footprints_probe_once_op2;
          Alcotest.test_case "footprints probe each call site once (ops)" `Quick
            test_footprints_probe_once_ops;
          Alcotest.test_case "shared handle: one footprint per name (op2)" `Quick
            test_shared_handle_op2;
          Alcotest.test_case "shared handle: one footprint per name (ops)" `Quick
            test_shared_handle_ops;
          Alcotest.test_case "halo merge: -1 absorbs" `Quick
            test_halo_merge_absorbing;
        ] );
    ]

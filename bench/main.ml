(* Benchmark harness.

   Running this executable regenerates every table and figure of the
   paper's evaluation (modelled on traced workloads) and the design
   ablations, then times the rows below on the one timer,
   [Am_experiments.Timing]: each row is the median and quartiles of
   repeated calls ([Timing.sample], seconds) or of interleaved pair ratios
   ([Timing.pairs], x).  App steps that perfbench/ times against the hand
   code (the Airfoil iteration, the CloverLeaf step) are not re-timed here.

   Usage:
     dune exec bench/main.exe              # every experiment, then the timings
     dune exec bench/main.exe -- table1    # a single experiment
     dune exec bench/main.exe -- --list    # experiment ids
     dune exec bench/main.exe -- timings [--tiny] [--repeat N] [--json [FILE]]
                                         [--compare FILE]

   --tiny shrinks every problem so the gate can run as a test-suite smoke
   check; --repeat sets n (default 10).  --json writes the dump (default
   BENCH.json): the host, the timed rows under "timings", then the counts
   (halo seconds, inference, retransmits, caches, histograms, doctor), and
   drops <stem>.trace.json and <stem>.counters.json beside it.  --compare
   gates the seconds rows against a dump's "timings" (ratio rows are
   reported, not gated): exit 1 names every regressed row, exit 2 any row
   the dump cannot gate.  BENCH.json is committed so the perf trajectory
   travels with the code; the trace/counters artifacts are gitignored. *)

module Registry = Am_experiments.Registry
module Timing = Am_experiments.Timing
module Ablations = Am_experiments.Ablations
module Regress = Am_util.Regress
module Json = Am_util.Json
module Units = Am_util.Units
module Table = Am_util.Table
module Counters = Am_obs.Counters
module Obs = Am_obs.Obs
module Op2 = Am_op2.Op2
module Ops = Am_ops.Ops
module Ops3 = Am_ops.Ops3
module Umesh = Am_mesh.Umesh
module Airfoil = Am_airfoil.App
module Clover = Am_cloverleaf.App

(* ---- Applications ------------------------------------------------------- *)

let dim ~tiny full small = if tiny then small else full

let airfoil_mesh ~tiny =
  Umesh.generate_airfoil ~nx:(dim ~tiny 48 16) ~ny:(dim ~tiny 32 12) ()

let airfoil_iteration t () = ignore (Airfoil.iteration t)
let clover_step t () = ignore (Clover.hydro_step t)

(* Airfoil and CloverLeaf on 4 simulated ranks. *)
let airfoil_dist ~tiny =
  let t = Airfoil.create (airfoil_mesh ~tiny) in
  Op2.partition t.Airfoil.ctx ~n_ranks:4
    ~strategy:(Op2.Kway_through t.Airfoil.edge_cells);
  t

let clover_dist ~tiny =
  let n = dim ~tiny 48 16 in
  let t = Clover.create ~nx:n ~ny:n () in
  Ops.partition t.Clover.ctx ~n_ranks:4 ~ref_ysize:n;
  t

(* A lossy-but-survivable schedule: drops, duplicates, delays — every loss
   is absorbed by the retry machinery. *)
let lossy () =
  Am_simmpi.Fault.create
    { Am_simmpi.Fault.default with
      seed = 42; drop = 0.05; dup = 0.05; delay = 0.1; max_delay = 3 }

(* One Aero Newton iteration from phi = 0, so every call solves the full
   CG system; a second iteration from the converged solution runs no CG
   iteration at all.  Both sides zero phi in place. *)
let aero_newton ~tiny =
  let mesh = Am_aero.App.generate_mesh ~n:(dim ~tiny 48 8) in
  let lib = Am_aero.App.create mesh and hand = Am_aero.Hand.create mesh in
  let zero a = Array.fill a 0 (Array.length a) 0.0 in
  ( (fun () ->
      zero lib.Am_aero.App.phi.Am_op2.Types.data;
      ignore (Am_aero.App.iteration lib)),
    fun () ->
      zero hand.Am_aero.Hand.phi;
      ignore (Am_aero.Hand.iteration hand) )

(* One Seq call of Airfoil's [res_calc] or [update] (120x80) through
   [Op2.par_loop_acc]: its OCaml reference walker ([Op2.Acc.reference])
   and its native walker, each on its own call site. *)
let airfoil_walker ~tiny loop =
  let module K = Am_airfoil.Kernels in
  let t =
    Airfoil.create (Umesh.generate_airfoil ~nx:(dim ~tiny 120 16) ~ny:(dim ~tiny 80 12) ())
  in
  ignore (Airfoil.iteration t);
  let ind dat map slot access = Op2.arg_dat_indirect dat map slot access in
  let read = Am_core.Access.Read and inc = Am_core.Access.Inc in
  let call ~reference =
    let name = loop ^ if reference then "_reference" else "_native" in
    let kernel k = if reference then Op2.Acc.reference k else k in
    match loop with
    | "res_calc" ->
      let k = kernel K.res_calc_acc in
      fun () ->
        Op2.par_loop_acc t.Airfoil.ctx ~name t.Airfoil.edges
          [
            ind t.x t.edge_nodes 0 read; ind t.x t.edge_nodes 1 read;
            ind t.q t.edge_cells 0 read; ind t.q t.edge_cells 1 read;
            ind t.adt t.edge_cells 0 read; ind t.adt t.edge_cells 1 read;
            ind t.res t.edge_cells 0 inc; ind t.res t.edge_cells 1 inc;
          ]
          k
    | _ ->
      let k = kernel K.update_acc and rms = [| 0.0 |] in
      fun () ->
        Op2.par_loop_acc t.Airfoil.ctx ~name t.Airfoil.cells
          [
            Op2.arg_dat t.qold read; Op2.arg_dat t.q Am_core.Access.Write;
            Op2.arg_dat t.res Am_core.Access.Rw; Op2.arg_dat t.adt read;
            Op2.arg_gbl ~name:"rms" rms inc;
          ]
          k
  in
  (call ~reference:true, call ~reference:false)

(* One Seq call of TeaLeaf's [cg_matvec] (24^3) through
   [Ops3.par_loop_acc]: its OCaml reference walker ([Ops3.Acc.reference])
   and its native walker, each on its own call site. *)
let tealeaf_walker ~tiny =
  let module Tea = Am_tealeaf.App in
  let t = Tea.create ~n:(dim ~tiny 24 6) () in
  let call ~reference =
    let name = if reference then "cg_matvec_reference" else "cg_matvec_native" in
    let k = Am_tealeaf.Kernels.matvec_acc in
    let k = if reference then Ops3.Acc.reference k else k in
    let dt = [| t.Tea.dt |] in
    fun () ->
      Ops3.par_loop_acc t.Tea.ctx ~name t.Tea.grid (Ops3.interior t.Tea.u)
        [
          Ops3.arg_dat t.Tea.p Ops3.stencil_7pt Am_core.Access.Read;
          Ops3.arg_dat t.Tea.kappa Ops3.stencil_7pt Am_core.Access.Read;
          Ops3.arg_dat t.Tea.w Ops3.stencil_point Am_core.Access.Write;
          Ops3.arg_gbl ~name:"dt" dt Am_core.Access.Read;
        ]
        k
  in
  (call ~reference:true, call ~reference:false)

let hydra ~tiny =
  let nx = dim ~tiny 64 12 and ny = dim ~tiny 48 8 in
  let lib = Am_hydra.App.create ~nx ~ny () and hand = Am_hydra.Hand.create ~nx ~ny () in
  ( (fun () -> ignore (Am_hydra.App.iteration lib)),
    fun () -> ignore (Am_hydra.Hand.iteration hand) )

(* ---- Timed rows ------------------------------------------------------------ *)

(* A row's [measure repeat] builds its state, then times it: [timed] rows
   in seconds per call, [ratio] rows as a ÷ b. *)
type row = { name : string; unit_ : string; measure : int -> Regress.summary }

let timed name setup =
  { name; unit_ = "s"; measure = (fun repeat -> Timing.sample ~repeat (setup ())) }

let ratio name setup =
  { name; unit_ = "x";
    measure = (fun repeat -> let a, b = setup () in Timing.pairs ~repeat a b) }

let rows ~tiny =
  let dim = dim ~tiny in
  let lossy_over_clean make step set_fault () =
    let lossy_t = make () in
    set_fault lossy_t (lossy ());
    (step lossy_t, step (make ()))
  in
  let checkpoint () =
    Ablations.checkpoint_runs ~nx:(dim 96 16) ~ny:(dim 64 12) ~iters:(dim 20 4)
  in
  (* One traced Airfoil iteration's loop descriptors. *)
  let airfoil_loops () =
    let traced =
      Am_experiments.Calibrate.trace_airfoil ~nx:(dim 48 16) ~ny:(dim 32 12) ()
    in
    Am_experiments.Calibrate.iteration_loops traced.Am_experiments.Calibrate.profiles
  in
  [
    timed "fig3/hydra_iteration" (fun () -> fst (hydra ~tiny));
    timed "dist/airfoil_dist_blocking" (fun () -> airfoil_iteration (airfoil_dist ~tiny));
    timed "dist/cloverleaf_dist_blocking" (fun () -> clover_step (clover_dist ~tiny));
    timed "fig6/cloverleaf_step_gpusim" (fun () ->
        let n = dim 48 16 in
        clover_step
          (Clover.create
             ~backend:
               (Ops.Cuda_sim
                  { Am_ops.Exec.tile_x = 16; tile_y = 8;
                    strategy = Am_ops.Exec.Cuda_tiled })
             ~nx:n ~ny:n ()));
    timed "fig7/codegen_res_calc" (fun () ->
        let res_calc = List.nth (airfoil_loops ()) 2 in
        fun () ->
          ignore
            (Am_codegen.Codegen.generate_op2
               (Am_codegen.Codegen.Cuda Am_codegen.Codegen.Stage_nosoa)
               res_calc));
    timed "fig8/checkpoint_plan" (fun () ->
        let e = airfoil_loops () in
        fun () ->
          ignore (Am_checkpoint.Planner.speculative_trigger (e @ e) ~requested:2));
    timed "apps/aero_newton_iteration" (fun () -> fst (aero_newton ~tiny));
    timed "apps/tealeaf_cg_step" (fun () ->
        let t = Am_tealeaf.App.create ~n:(dim 10 6) () in
        fun () -> ignore (Am_tealeaf.App.step t));
    timed "apps/cloverleaf3_step" (fun () ->
        let t = Am_cloverleaf3.App.create ~n:(dim 10 6) () in
        fun () -> ignore (Am_cloverleaf3.App.hydro_step t));
    timed "substrate/kway_partition" (fun () ->
        let dual = Umesh.cell_dual_graph (airfoil_mesh ~tiny) in
        fun () -> ignore (Am_mesh.Partition.kway dual ~parts:8));
    timed "substrate/rcm_reorder" (fun () ->
        let dual = Umesh.cell_dual_graph (airfoil_mesh ~tiny) in
        fun () -> ignore (Am_mesh.Reorder.rcm dual));
    (* The sanitizer: an Airfoil iteration on Check ÷ on Seq. *)
    ratio "sanitizer/check_over_seq" (fun () ->
        ( airfoil_iteration (Airfoil.create ~backend:Op2.Check (airfoil_mesh ~tiny)),
          airfoil_iteration (Airfoil.create (airfoil_mesh ~tiny)) ));
    ratio "recovery/airfoil_lossy_over_clean"
      (lossy_over_clean
         (fun () -> airfoil_dist ~tiny)
         airfoil_iteration
         (fun t -> Op2.set_fault_injector t.Airfoil.ctx));
    ratio "recovery/cloverleaf_lossy_over_clean"
      (lossy_over_clean
         (fun () -> clover_dist ~tiny)
         clover_step
         (fun t -> Ops.set_fault_injector t.Clover.ctx));
    ratio "checkpoint/idle_over_baseline" (fun () ->
        let baseline, idle, _ = checkpoint () in
        (idle, baseline));
    ratio "checkpoint/taken_over_baseline" (fun () ->
        let baseline, _, taken = checkpoint () in
        (taken, baseline));
    ratio "ordering/rcm_over_scrambled" (fun () ->
        let mesh = Ablations.scrambled_airfoil ~nx:(dim 300 32) ~ny:(dim 200 24) in
        ( airfoil_iteration (Ablations.airfoil_ordered mesh Ablations.rcm),
          airfoil_iteration (Ablations.airfoil_ordered mesh ignore) ));
    ratio "hydra/lib_over_hand" (fun () -> hydra ~tiny);
    ratio "aero/lib_over_hand" (fun () -> aero_newton ~tiny);
    (* One element walker call, the OCaml reference ÷ native. *)
    ratio "walkers/res_calc_reference_over_native" (fun () -> airfoil_walker ~tiny "res_calc");
    ratio "walkers/update_reference_over_native" (fun () -> airfoil_walker ~tiny "update");
    (* One range walker call, the OCaml reference ÷ native. *)
    ratio "walkers/cg_matvec_reference_over_native" (fun () -> tealeaf_walker ~tiny);
  ]

(* AM_BENCH_HANDICAP="<row>=<factor>" multiplies the current summary the
   gate judges of one row ("*" for all), never the dump: an injected
   slowdown the test suite uses to prove the gate trips on that row. *)
let handicapped name s =
  let f =
    match Sys.getenv_opt "AM_BENCH_HANDICAP" with
    | None -> 1.0
    | Some spec -> (
      match String.index_opt spec '=' with
      | None -> 1.0
      | Some i -> (
        let key = String.sub spec 0 i in
        let factor = String.sub spec (i + 1) (String.length spec - i - 1) in
        match float_of_string_opt factor with
        | Some f when key = name || key = "*" -> f
        | Some _ | None -> 1.0))
  in
  { s with
    Regress.median = s.Regress.median *. f;
    p25 = s.Regress.p25 *. f;
    p75 = s.Regress.p75 *. f;
    min = s.Regress.min *. f;
    max = s.Regress.max *. f }

let measure ~tiny ~repeat =
  List.map
    (fun r ->
      Gc.compact ();
      (r, r.measure repeat))
    (rows ~tiny)

let show unit_ v = if unit_ = "s" then Units.seconds v else Printf.sprintf "%.3fx" v

let print_rows ~repeat measured =
  let table =
    Table.create
      ~title:(Printf.sprintf "timings (monotonic clock, n=%d)" repeat)
      ~header:[ "row"; "n"; "median"; "p25"; "p75"; "min"; "max" ]
      ~aligns:[ Table.Left; Right; Right; Right; Right; Right; Right ]
      ()
  in
  List.iter
    (fun (r, s) ->
      let show = show r.unit_ in
      Table.add_row table
        [
          r.name; string_of_int s.Regress.n; show s.Regress.median; show s.Regress.p25;
          show s.Regress.p75; show s.Regress.min; show s.Regress.max;
        ])
    measured;
  Table.print table;
  print_newline ()

(* ---- Counts ---------------------------------------------------------------- *)

(* Halo seconds of the distributed proxies, from the runtime's own
   profile: run a fixed number of steps and read the total
   [Profile.record_halo] accumulated. *)
let halo_seconds ~tiny =
  let entry name profile = (name, Json.Num (Am_core.Profile.total_halo_seconds profile)) in
  let airfoil = airfoil_dist ~tiny in
  ignore (Airfoil.run airfoil ~iters:10);
  let clover = clover_dist ~tiny in
  ignore (Clover.run clover ~steps:5);
  [
    entry "airfoil_dist_blocking" (Op2.profile airfoil.Airfoil.ctx);
    entry "cloverleaf_dist_blocking" (Ops.profile clover.Clover.ctx);
  ]

(* How much each reading moved while [f] ran. *)
let deltas readings f =
  let before = List.map (fun (_, read) -> read ()) readings in
  f ();
  List.map2 (fun (name, read) b -> (name, Json.Num (read () -. b))) readings before

let int c () = Float.of_int (Counters.value c)

(* Footprint inference: what probing every call site of an Airfoil and a
   CloverLeaf run costs, paid when their footprints are read. *)
let analysis ~tiny =
  deltas
    [
      ("infer_signatures", int Obs.infer_signatures);
      ("infer_kernel_runs", int Obs.infer_kernel_runs);
      ("infer_seconds", fun () -> Counters.valuef Obs.infer_seconds);
    ]
    (fun () ->
      let af = Airfoil.create (airfoil_mesh ~tiny) in
      ignore (Airfoil.run af ~iters:10);
      ignore (Op2.footprints af.Airfoil.ctx);
      let n = dim ~tiny 96 24 in
      let cl = Clover.create ~nx:n ~ny:n () in
      ignore (Clover.run cl ~steps:2);
      ignore (Ops.footprints cl.Clover.ctx))

(* Messages the lossy schedule made the runtime send again. *)
let retransmits ~tiny =
  let count name run =
    let r0 = Counters.value Obs.fault_retransmits in
    run ();
    (name, Json.Num (Float.of_int (Counters.value Obs.fault_retransmits - r0)))
  in
  [
    count "airfoil_dist" (fun () ->
        let t = airfoil_dist ~tiny in
        Op2.set_fault_injector t.Airfoil.ctx (lossy ());
        ignore (Airfoil.run t ~iters:10));
    count "cloverleaf_dist" (fun () ->
        let t = clover_dist ~tiny in
        Ops.set_fault_injector t.Clover.ctx (lossy ());
        ignore (Clover.run t ~steps:5));
  ]

(* Executor reuse and communication totals over the counted runs. *)
let obs () =
  let c name =
    match Counters.find Obs.counters name with
    | Some (Counters.Int v) -> Float.of_int v
    | Some (Counters.Float v) -> v
    | Some (Counters.Hist _) | None -> 0.0
  in
  let hits = c "exec_cache.hits" and misses = c "exec_cache.misses" in
  [
    ( "exec_cache",
      Json.Obj
        [
          ("hits", Json.Num hits);
          ("misses", Json.Num misses);
          ("hit_rate", Json.Num (if hits +. misses = 0.0 then 0.0 else hits /. (hits +. misses)));
        ] );
    ( "comm",
      Json.Obj
        (List.map
           (fun (k, name) -> (k, Json.Num (c name)))
           [
             ("messages", "comm.messages");
             ("bytes_sent", "comm.bytes_sent");
             ("exchanges", "comm.exchanges");
             ("reductions", "comm.reductions");
           ]) );
  ]

(* Latency distributions the registry accumulated over the counted runs
   (per-loop seconds, halo latency). *)
let histograms () =
  List.filter_map
    (fun h ->
      if Am_obs.Histogram.count h = 0 then None
      else
        let s = Am_obs.Histogram.snapshot h in
        let num x = Json.Num x in
        Some
          ( Am_obs.Histogram.name_of h,
            Json.Obj
              [
                ("count", num (Float.of_int s.Am_obs.Histogram.s_count));
                ("sum", num s.Am_obs.Histogram.s_sum);
                ("min", num s.Am_obs.Histogram.s_min);
                ("max", num s.Am_obs.Histogram.s_max);
                ("p50", num (Am_obs.Histogram.p50 h));
                ("p90", num (Am_obs.Histogram.p90 h));
                ("p99", num (Am_obs.Histogram.p99 h));
                ( "buckets",
                  Json.Obj
                    (List.map
                       (fun (b, n) -> (string_of_int b, num (Float.of_int n)))
                       s.Am_obs.Histogram.s_buckets) );
              ] ))
    (Counters.histograms Obs.counters)

(* Attribution rows: a short traced Airfoil run (tracing also makes the
   facades sample per-loop GC deltas), joined against the perfmodel by
   [Doctor.diagnose]. *)
let doctor ~tiny =
  Obs.set_tracing true;
  let t = Airfoil.create (airfoil_mesh ~tiny) in
  Am_core.Trace.set_enabled (Op2.trace t.Airfoil.ctx) true;
  ignore (Airfoil.run t ~iters:5);
  let rows =
    Am_perfmodel.Doctor.diagnose ~profile:(Op2.profile t.Airfoil.ctx)
      ~loops:(Am_core.Trace.events (Op2.trace t.Airfoil.ctx))
      ()
  in
  Obs.set_tracing false;
  List.map
    (fun r ->
      let open Am_perfmodel.Doctor in
      let i n = Json.Num (Float.of_int n) and f x = Json.Num x in
      ( r.dr_name,
        Json.Obj
          [
            ("calls", i r.dr_calls);
            ("seconds", f r.dr_seconds);
            ("p50_call_seconds", f r.dr_call_seconds);
            ("bytes", i r.dr_bytes);
            ("achieved_gbs", f r.dr_achieved_gbs);
            ("model_gbs", f r.dr_model_gbs);
            ("pct_of_model", f r.dr_pct_of_model);
            ("gc_minor", i r.dr_gc_minor);
            ("gc_major", i r.dr_gc_major);
            ("verdict", Json.Str (verdict_to_string r.dr_verdict));
          ] ))
    rows

(* ---- The dump ---------------------------------------------------------------- *)

let size ~tiny = if tiny then "tiny" else "full"

(* The whole dump: the host it ran on, the timed rows, then the counts,
   taken over traced runs after the timings. *)
let dump ~tiny ~repeat measured =
  Obs.reset ();
  Obs.set_tracing true;
  let halo = halo_seconds ~tiny in
  Obs.set_tracing false;
  let analysis = analysis ~tiny in
  let retransmits = retransmits ~tiny in
  let doctor = doctor ~tiny in
  Json.Obj
    [
      ("schema", Json.Str "bench/2");
      ( "host",
        Json.Obj
          [
            ("nproc", Json.Num (Float.of_int (Domain.recommended_domain_count ())));
            ("ocaml", Json.Str Sys.ocaml_version);
            ("word_size", Json.Num (Float.of_int Sys.word_size));
          ] );
      ("size", Json.Str (size ~tiny));
      ("repeat", Json.Num (Float.of_int repeat));
      ( "timings",
        Json.Obj
          (List.map (fun (r, s) -> (r.name, Regress.to_json ~unit_:r.unit_ s)) measured) );
      ("halo_seconds", Json.Obj halo);
      ("analysis", Json.Obj analysis);
      ("retransmits", Json.Obj retransmits);
      ("obs", Json.Obj (obs ()));
      ("histograms", Json.Obj (histograms ()));
      ("doctor", Json.Obj doctor);
    ]

(* Objects break one member per line down to the rows of a section; deeper
   values stay on the row's line.  Integral numbers print without a
   fraction, non-finite ones as null. *)
let write_json path json =
  let b = Buffer.create 4096 in
  let num x =
    if not (Float.is_finite x) then "null"
    else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
    else Printf.sprintf "%.9g" x
  in
  let rec value depth = function
    | Json.Null -> Buffer.add_string b "null"
    | Json.Bool v -> Buffer.add_string b (string_of_bool v)
    | Json.Num x -> Buffer.add_string b (num x)
    | Json.Str s -> Buffer.add_string b (Printf.sprintf "%S" s)
    | Json.List vs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string b ", ";
          value (depth + 1) v)
        vs;
      Buffer.add_char b ']'
    | Json.Obj members ->
      let indent = depth < 2 in
      let pad d = if indent then "\n" ^ String.make (2 * d) ' ' else " " in
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (pad (depth + 1));
          Buffer.add_string b (Printf.sprintf "%S: " k);
          value (depth + 1) v)
        members;
      if members <> [] then Buffer.add_string b (pad depth);
      Buffer.add_char b '}'
  in
  value 0 json;
  Buffer.add_char b '\n';
  let oc = open_out path in
  Buffer.output_buffer oc b;
  close_out oc

(* ---- The gate ---------------------------------------------------------------- *)

(* The gate judges the seconds rows.  A ratio row is reported, not gated: a
   ratio also rises when its reference side gets faster, so a rise alone
   shows no slowdown. *)
let compare_rows ~tiny measured path =
  let refuse msg =
    Printf.eprintf "bench: --compare %s: %s\n%!" path msg;
    exit 2
  in
  let json = match Json.of_file path with Ok j -> j | Error msg -> refuse msg in
  (match Option.bind (Json.member "size" json) Json.to_string with
  | Some s when s = size ~tiny -> ()
  | Some s -> refuse (Printf.sprintf "measured at size %s, this run is %s" s (size ~tiny))
  | None -> refuse "no \"size\"");
  let baseline = match Regress.of_json json with Ok b -> b | Error msg -> refuse msg in
  let gated =
    List.filter_map
      (fun (r, s) -> if r.unit_ = "s" then Some (r.name, handicapped r.name s) else None)
      measured
  in
  let verdicts = try Regress.gate_all ~baseline gated with Invalid_argument msg -> refuse msg in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "regression gate vs %s, seconds rows (>%.0f%% median + IQR guard)" path
           (100.0 *. Regress.default_threshold))
      ~header:[ "row"; "baseline"; "current"; "ratio"; "base IQR"; "verdict" ]
      ~aligns:[ Table.Left; Right; Right; Right; Right; Left ]
      ()
  in
  List.iter
    (fun v ->
      Table.add_row table
        [
          v.Regress.v_name;
          Units.seconds v.Regress.v_base.Regress.median;
          Units.seconds v.Regress.v_cur.Regress.median;
          Printf.sprintf "%.2fx" v.Regress.v_ratio;
          Units.seconds (Regress.iqr v.Regress.v_base);
          (if v.Regress.v_regressed then "REGRESSED" else "ok");
        ])
    verdicts;
  Table.print table;
  print_newline ();
  match Regress.regressed verdicts with
  | [] -> ()
  | bad ->
    List.iter
      (fun v ->
        Printf.eprintf "bench: REGRESSED %s %.2fx vs %s\n" v.Regress.v_name
          v.Regress.v_ratio path)
      bad;
    exit 1

let run_timings ?json ?compare ~tiny ~repeat () =
  print_endline "######## timings — one timer, median and quartiles ########\n";
  let measured = measure ~tiny ~repeat in
  print_rows ~repeat measured;
  (match json with
  | None -> ()
  | Some path ->
    write_json path (dump ~tiny ~repeat measured);
    let stem = Filename.remove_extension path in
    Obs.write_trace ~path:(stem ^ ".trace.json");
    Obs.write_counters ~path:(stem ^ ".counters.json");
    Printf.printf "wrote %s (%d rows), %s.trace.json and %s.counters.json\n\n%!" path
      (List.length measured) stem stem);
  match compare with None -> () | Some path -> compare_rows ~tiny measured path

(* ---- Entry point ---------------------------------------------------------- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (* Extract an optional "--json [file]" (any position); the remaining
     arguments keep their usual meaning. *)
  let rec extract_json acc = function
    | [] -> (None, List.rev acc)
    | "--json" :: path :: rest when String.length path > 0 && path.[0] <> '-' ->
      (Some path, List.rev_append acc rest)
    | "--json" :: rest -> (Some "BENCH.json", List.rev_append acc rest)
    | a :: rest -> extract_json (a :: acc) rest
  in
  let rec extract_value name acc = function
    | [] -> (None, List.rev acc)
    | a :: v :: rest when a = name -> (Some v, List.rev_append acc rest)
    | a :: rest -> extract_value name (a :: acc) rest
  in
  let rec extract_flag name acc = function
    | [] -> (false, List.rev acc)
    | a :: rest when a = name -> (true, List.rev_append acc rest)
    | a :: rest -> extract_flag name (a :: acc) rest
  in
  let json, args = extract_json [] args in
  let compare_to, args = extract_value "--compare" [] args in
  let repeat, args = extract_value "--repeat" [] args in
  let tiny, args = extract_flag "--tiny" [] args in
  let repeat =
    match repeat with
    | Some r -> (
      match int_of_string_opt r with
      | Some n when n >= 2 -> n
      | Some _ | None ->
        Printf.eprintf "--repeat wants an integer >= 2, got %S\n" r;
        exit 2)
    | None -> 10
  in
  let timings () = run_timings ?json ?compare:compare_to ~tiny ~repeat () in
  match args with
  | [ "--list" ] ->
    List.iter
      (fun e -> Printf.printf "%-10s %s\n" e.Registry.id e.Registry.title)
      Registry.experiments;
    print_endline
      "timings    timed rows and counts (--tiny, --repeat N, --json [FILE],\n\
      \           --compare FILE)"
  | [] ->
    Registry.run_all ();
    timings ()
  | ids ->
    List.iter
      (fun id ->
        if id = "timings" then timings ()
        else
          match Registry.find id with
          | Some e ->
            Printf.printf "######## %s — %s ########\n\n%!" e.Registry.id
              e.Registry.title;
            e.Registry.run ()
          | None ->
            Printf.eprintf "unknown experiment %S (try --list)\n" id;
            exit 1)
      ids

(* The run skeleton of the six proxy-application drivers (airfoil, aero,
   hydra, cloverleaf, cloverleaf3, tealeaf).

   A driver declares its own flags (sizes, step counts, --verify, ...),
   builds its application and steps it; [run] does everything else, the
   same way for all six:

   - the common flags ([flags]: --backend, --ranks, --check, --analyze,
     --trace, --obs-json, --faults, --recover, --perf-report) and the
     validation of every flag: a bad one is a usage error, reported on
     stderr with exit 2 before any work;
   - the observability session: [Obs.reset], span tracing, [Obs.finish];
   - fault injection and recovery (below);
   - the backend, through the facade family's record ([op2], [ops], [ops3]);
   - the domain pool of shared and hybrid runs: one per run, made on first
     use, kept by every restart and shut down at exit, whatever the exit;
   - the epilogue: loop profile, communication summary, the --check /
     --analyze report, the driver's own checks (--verify, --save), the
     --perf-report table and [Obs.finish].

   A failed check, a sanitizer violation, a failed --verify and an
   unrecoverable fault exit 1. *)

open Cmdliner
module Pool = Am_taskpool.Pool
module Trace = Am_core.Trace
module Analysis = Am_analysis.Analysis

(* ---- The common flags --------------------------------------------------- *)

type flags = {
  app : string;
  backends : string list; (* the driver's documented backends *)
  backend : string;
  ranks : int;
  check : bool;
  analyze : bool;
  trace : string option;
  obs_json : string option;
  faults : string option;
  recover : bool;
  perf : bool;
}

let rec one_of = function
  | [] -> ""
  | [ b ] -> b
  | [ a; b ] -> a ^ " or " ^ b
  | b :: rest -> b ^ ", " ^ one_of rest

let flags ~app ~backends =
  let backend =
    Arg.(
      value
      & opt string "seq"
      & info [ "backend" ] ~doc:(Printf.sprintf "Backend: %s." (one_of backends)))
  in
  let ranks = Arg.(value & opt int 4 & info [ "ranks" ] ~doc:"Simulated MPI ranks.") in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Correctness-checking mode: execute on the sanitizer backend \
             (canary-padded, access-guarded staging buffers; overrides \
             $(b,--backend)), record the loop sequence, and run the access \
             descriptor and dataflow analyses over it after the run. Exits 1 \
             on any error-severity finding.")
  in
  let analyze =
    Arg.(
      value & flag
      & info [ "analyze" ]
          ~doc:
            "Static kernel verification: probe each kernel over sentinel \
             staging buffers once per loop signature, diff the observed \
             footprint against the declared access descriptor (undeclared \
             accesses are errors, declared-but-unobserved ones warnings), \
             and run the standard static layers over the recorded loop \
             sequence. Composes with $(b,--check). Exits 1 on any \
             error-severity finding.")
  in
  let file name doc = Arg.(value & opt (some string) None & info [ name ] ~doc ~docv:"FILE") in
  let trace =
    file "trace"
      "Write a Chrome trace-event JSON of the run to $(docv) (open in \
       chrome://tracing or ui.perfetto.dev).  Enables span tracing."
  in
  let obs_json = file "obs-json" "Write the runtime counter registry as JSON to $(docv)." in
  let faults =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Fault-injection specification: comma-separated \
             $(b,seed=N,drop=P,dup=P,delay=P,max-delay=N,corrupt=P,crash=RANK@LOOP). \
             Probabilities are per message (distributed backends); the crash \
             trigger fires on any backend.")
  in
  let recover =
    Arg.(
      value & flag
      & info [ "recover" ]
          ~doc:
            "Recover from injected faults: checkpoint early and, on a rank \
             crash or unrecoverable message loss, restore the last snapshot \
             and replay forward (up to 3 restarts) instead of aborting.")
  in
  let perf =
    Arg.(
      value & flag
      & info [ "perf-report" ]
          ~doc:
            "Print a per-loop performance-attribution table after the run: \
             achieved GB/s against the perfmodel prediction for each loop, GC \
             deltas, and an ok / below-model / above-model verdict.  Enables \
             span tracing for the run.")
  in
  let make backend ranks check analyze trace obs_json faults recover perf =
    { app; backends; backend; ranks; check; analyze; trace; obs_json; faults; recover; perf }
  in
  Term.(
    const make $ backend $ ranks $ check $ analyze $ trace $ obs_json $ faults $ recover
    $ perf)

(* The driver's command: its own flags ([term], a function of the common
   ones) and the common flags; exits with cmdliner's code. *)
let main ~app ~doc ~backends term =
  let common = flags ~app ~backends in
  exit (Cmd.eval (Cmd.v (Cmd.info app ~doc) Term.(term $ common)))

(* ---- Usage errors --------------------------------------------------------- *)

let usage_error flags msg =
  Printf.eprintf "%s: %s\n%!" flags.app msg;
  exit 2

(* A call the library refuses with [Invalid_argument] is a usage error
   carrying the library's message: a decomposition with fewer rows, planes
   or cells than ranks, or a rank thinner than the ghost depth; a Hydra
   mesh of odd size.  Only [f]'s own refusal is caught: anything else
   raised later still escapes. *)
let usage_on_refusal flags f = try f () with Invalid_argument msg -> usage_error flags msg

(* [sizes] are the driver's counted flags (problem sizes, cloverleaf's
   --summary-every) with their values, each of which must be at least 1;
   [counts] its iteration or step count, which may be 0 (run nothing) but
   not negative; [outputs] the files the run writes besides --trace and
   --obs-json (airfoil's --save and --mesh) with their flags.  Every output
   must lie in an existing directory, so a mistyped path fails now rather
   than after the whole run.  Returns the parsed --faults specification. *)
let validate flags ~sizes ~counts ~outputs =
  let at_least least (flag, v) =
    if v < least then usage_error flags (Printf.sprintf "%s must be at least %d" flag least)
  in
  List.iter (at_least 1) sizes;
  List.iter (at_least 0) counts;
  if not (List.mem flags.backend flags.backends) then
    usage_error flags
      (Printf.sprintf "unknown backend %s (expected one of %s)" flags.backend
         (String.concat ", " flags.backends));
  if flags.ranks < 1 then usage_error flags "--ranks must be at least 1";
  List.iter
    (fun (flag, path) ->
      match path with
      | Some path ->
        let dir = Filename.dirname path in
        if not (Sys.file_exists dir && Sys.is_directory dir) then
          usage_error flags (Printf.sprintf "%s %s: no directory %s" flag path dir)
      | None -> ())
    (("--trace", flags.trace) :: ("--obs-json", flags.obs_json) :: outputs);
  Option.map
    (fun s ->
      match Am_simmpi.Fault.spec_of_string s with
      | Ok spec -> spec
      | Error msg -> usage_error flags ("--faults: " ^ msg))
    flags.faults

(* The a x b process grid of a two-axis decomposition over [ranks] ranks
   (mpi2d's px x py, pencil's py x pz): [a] is the largest divisor of
   [ranks] not above its square root, so the grid is as square as [ranks]
   allows — 4 -> 2x2, 18 -> 3x6, a prime p -> 1xp. *)
let grid_shape ranks =
  let rec widest d best =
    if d * d > ranks then best else widest (d + 1) (if ranks mod d = 0 then d else best)
  in
  let a = widest 1 1 in
  (a, ranks / a)

(* ---- Facade families ------------------------------------------------------ *)

(* The backends a family sets on a context, besides the default sequential
   one and the partitioned ones (which the application's [partition]
   enters). *)
type backend = Check | Vec | Cuda | Shared of Pool.t

(* What the harness does to a context, per facade family. *)
type 'ctx family = {
  set_backend : 'ctx -> backend -> unit;
  rank_shared : 'ctx -> Pool.t -> unit; (* hybrid: each rank's share on the pool *)
  trace : 'ctx -> Trace.t;
  profile : 'ctx -> Am_core.Profile.t;
  comm_stats : 'ctx -> Am_simmpi.Comm.stats option;
  set_fault_injector : 'ctx -> Am_simmpi.Fault.t -> unit;
  checkpoint : 'ctx -> unit; (* enable checkpointing and request one *)
  checkpoint_session : 'ctx -> Am_checkpoint.Runtime.session option;
  checkpoint_to_file : 'ctx -> path:string -> unit;
  recover_from_file : 'ctx -> path:string -> unit;
  static_analysis : 'ctx -> Analysis.report; (* --analyze *)
  check_analysis : 'ctx -> Analysis.report; (* --check *)
}

let op2 =
  let module Op2 = Am_op2.Op2 in
  {
    set_backend =
      (fun ctx b ->
        Op2.set_backend ctx
          (match b with
          | Check -> Op2.Check
          | Vec -> Op2.Vec Am_op2.Exec_vec.default_config
          | Cuda -> Op2.Cuda_sim Am_op2.Exec_cuda.default_config
          | Shared pool -> Op2.Shared { pool; block_size = 256 }));
    rank_shared =
      (fun ctx pool -> Op2.set_rank_execution ctx (Op2.Rank_shared { pool; block_size = 256 }));
    trace = Op2.trace;
    profile = Op2.profile;
    comm_stats = Op2.comm_stats;
    set_fault_injector = Op2.set_fault_injector;
    checkpoint =
      (fun ctx ->
        Op2.enable_checkpointing ctx;
        Op2.request_checkpoint ctx);
    checkpoint_session = Op2.checkpoint_session;
    checkpoint_to_file = Op2.checkpoint_to_file;
    recover_from_file = Op2.recover_from_file;
    static_analysis = Analysis.static_op2;
    check_analysis = Analysis.check_op2;
  }

let ops =
  let module Ops = Am_ops.Ops in
  {
    set_backend =
      (fun ctx b ->
        Ops.set_backend ctx
          (match b with
          | Check -> Ops.Check
          | Cuda -> Ops.Cuda_sim Am_ops.Exec.default_cuda_config
          | Shared pool -> Ops.Shared { pool }
          | Vec -> invalid_arg "Ops has no vec backend"));
    rank_shared = (fun ctx pool -> Ops.set_rank_execution ctx (Ops.Rank_shared pool));
    trace = Ops.trace;
    profile = Ops.profile;
    comm_stats = Ops.comm_stats;
    set_fault_injector = Ops.set_fault_injector;
    checkpoint =
      (fun ctx ->
        Ops.enable_checkpointing ctx;
        Ops.request_checkpoint ctx);
    checkpoint_session = Ops.checkpoint_session;
    checkpoint_to_file = Ops.checkpoint_to_file;
    recover_from_file = Ops.recover_from_file;
    static_analysis = Analysis.static_ops;
    check_analysis = Analysis.check_ops;
  }

let ops3 =
  let module Ops3 = Am_ops.Ops3 in
  {
    set_backend =
      (fun ctx b ->
        Ops3.set_backend ctx
          (match b with
          | Check -> Ops3.Check
          | Cuda -> Ops3.Cuda_sim Am_ops.Exec.default_cuda_config3
          | Shared pool -> Ops3.Shared { pool }
          | Vec -> invalid_arg "Ops3 has no vec backend"));
    rank_shared = (fun ctx pool -> Ops3.set_rank_execution ctx (Ops3.Rank_shared pool));
    trace = Ops3.trace;
    profile = Ops3.profile;
    comm_stats = Ops3.comm_stats;
    set_fault_injector = Ops3.set_fault_injector;
    checkpoint =
      (fun ctx ->
        Ops3.enable_checkpointing ctx;
        Ops3.request_checkpoint ctx);
    checkpoint_session = Ops3.checkpoint_session;
    checkpoint_to_file = Ops3.checkpoint_to_file;
    recover_from_file = Ops3.recover_from_file;
    static_analysis = Analysis.static_ops3;
    check_analysis = Analysis.check_ops3;
  }

(* ---- The application a driver builds -------------------------------------- *)

type 'ctx app = {
  ctx : 'ctx;
  partition : int -> unit;
      (* split over that many ranks (mpi, hybrid, and cloverleaf's mpi2d and
         cloverleaf3's pencil, which choose their grid with [grid_shape]) *)
  steps : persist:(unit -> unit) -> unit;
      (* the time steps and their lines; [persist ()] after each step *)
  finish : unit -> unit; (* after the check report: --verify, --save *)
}

(* RCM-renumber an OP2 [ctx] through [through]; builders call it before
   returning, so before any partitioning.  The result maps a solution on
   [set] ([size] elements of [dim] values, global order) back to the
   original element order, so --verify can compare it with a baseline run
   on the mesh as generated: a dataset of original indices rides through
   the permutation. *)
let renumber ctx ~through ~set ~size ~dim =
  let module Op2 = Am_op2.Op2 in
  let ids =
    Op2.decl_dat ctx ~name:"original_index" ~set ~dim:1 ~data:(Array.init size Float.of_int)
  in
  let before, after = Op2.renumber ctx ~through in
  Printf.printf "renumbered: dual-graph mean bandwidth %.1f -> %.1f\n%!" before after;
  fun solution ->
    let original = Array.make (Array.length solution) 0.0 in
    Array.iteri
      (fun i id -> Array.blit solution (i * dim) original (Float.to_int id * dim) dim)
      (Op2.fetch ctx ids);
    original

(* The --verify verdict on the discrepancy [d] against the hand-coded
   baseline: exit 1 unless it is below [tol]. *)
let verify ~tol d =
  Printf.printf "\nverification vs hand-coded baseline: max discrepancy %.3e %s\n" d
    (if d < tol then "(PASS)" else "(FAIL)");
  if d >= tol then exit 1

(* ---- Checks --------------------------------------------------------------- *)

(* The single exit path for both failure families (static errors found
   after the run, dynamic violations raised during it): evidence first,
   then a uniform one-line verdict and exit 1. *)
let fail_run reason =
  prerr_endline (Printf.sprintf "check: %s; failing the run" reason);
  exit 1

let check_report r =
  print_newline ();
  print_string (Analysis.report r);
  if Analysis.errors r > 0 then fail_run "error-severity findings"

(* ---- Fault injection and recovery ------------------------------------------

   --faults SPEC attaches a seeded fault injector to the application's
   communicator (message drop / duplicate / delay / bit-flip corruption,
   plus an armed rank crash at a chosen parallel-loop counter); the
   reliable transport detects and retries what it can.  Without --recover
   an injected failure that survives the transport (a crash, or retries
   exhausted) aborts the run cleanly with a resilience finding and exit
   code 1.  With --recover the run checkpoints early, persists the
   snapshot as soon as it is complete, and on failure builds the
   application afresh, restores the snapshot into it and replays forward —
   up to [max_restarts] times before giving up the same way. *)

let max_restarts = 3

type faults = {
  injector : Am_simmpi.Fault.t option;
  ckpt_path : string option; (* Some iff recovery is armed *)
  mutable written : bool; (* the file holds a complete checkpoint *)
}

(* Run [attempt] under the resilience harness; an unrecoverable outcome
   prints the finding and exits 1 — no fault-layer exception escapes. *)
let with_faults flags spec attempt =
  match spec with
  | None -> attempt { injector = None; ckpt_path = None; written = false } ~recovering:false
  | Some spec ->
    Printf.printf "fault injection: %s%s\n%!"
      (Am_simmpi.Fault.spec_to_string spec)
      (if flags.recover then " (recovery armed)" else "");
    let ckpt_path =
      if flags.recover then (
        let p = Filename.temp_file (flags.app ^ "_ckpt") ".snap" in
        Sys.remove p (* existence marks a persisted checkpoint *);
        Some p)
      else None
    in
    let faults = { injector = Some (Am_simmpi.Fault.create spec); ckpt_path; written = false } in
    let result =
      Am_analysis.Resilience.protect
        ~max_restarts:(if flags.recover then max_restarts else 0)
        (fun ~recovering ->
          if recovering then
            Printf.printf "\nfault: restarting %s\n%!"
              (if faults.written then "from the persisted checkpoint" else "from the beginning");
          attempt faults ~recovering)
    in
    (match ckpt_path with
    | Some p when Sys.file_exists p -> Sys.remove p
    | _ -> ());
    (match result with
    | Ok v -> v
    | Error finding ->
      print_newline ();
      print_endline (Am_analysis.Finding.to_string finding);
      prerr_endline (flags.app ^ ": unrecoverable fault; failing the run");
      exit 1)

(* ---- The run -------------------------------------------------------------- *)

(* Put [app] on the chosen backend; --check overrides --backend with the
   sanitizer. *)
let place family flags app pool =
  let partition () = usage_on_refusal flags (fun () -> app.partition flags.ranks) in
  match if flags.check then "check" else flags.backend with
  | "seq" -> ()
  | "check" -> family.set_backend app.ctx Check
  | "vec" -> family.set_backend app.ctx Vec
  | "cuda" -> family.set_backend app.ctx Cuda
  | "shared" -> family.set_backend app.ctx (Shared (Lazy.force pool))
  | "hybrid" ->
    partition ();
    family.rank_shared app.ctx (Lazy.force pool)
  | _ (* mpi, mpi2d, pencil *) -> partition ()

(* One driver run.  [prepare ()] runs once, after the flags are validated
   (airfoil loads its mesh there, tealeaf checks its --dt); the function it
   returns builds a fresh application for each attempt, and may print the
   lines that describe it. *)
let run family flags ?(sizes = []) ~counts ?(outputs = []) prepare =
  try
    let spec = validate flags ~sizes ~counts ~outputs in
    Am_obs.Obs.reset ();
    if flags.trace <> None then Am_obs.Obs.set_tracing true;
    let build = prepare () in
    let pool =
      lazy
        (let p = Pool.create () in
         at_exit (fun () -> Pool.shutdown p);
         p)
    in
    let app =
      with_faults flags spec @@ fun faults ~recovering ->
      let app = build () in
      let ctx = app.ctx in
      if flags.perf then Am_obs.Obs.set_tracing true;
      if flags.check || flags.analyze || flags.perf then Trace.set_enabled (family.trace ctx) true;
      place family flags app pool;
      Option.iter (family.set_fault_injector ctx) faults.injector;
      (match faults.ckpt_path with
      | None -> ()
      | Some path when recovering && faults.written && Sys.file_exists path ->
        family.recover_from_file ctx ~path
      | Some _ -> family.checkpoint ctx);
      let t0 = Unix.gettimeofday () in
      app.steps ~persist:(fun () ->
          match (faults.ckpt_path, family.checkpoint_session ctx) with
          | Some path, Some s when (not faults.written) && Am_checkpoint.Runtime.complete s ->
            family.checkpoint_to_file ctx ~path;
            faults.written <- true
          | _ -> ());
      Printf.printf "wall time: %s\n\n%!" (Am_util.Units.seconds (Unix.gettimeofday () -. t0));
      app
    in
    let ctx = app.ctx in
    print_string (Am_core.Profile.report (family.profile ctx));
    Option.iter
      (fun s ->
        Printf.printf "\ncommunication: %d messages, %s, %d halo exchanges, %d reductions\n"
          s.Am_simmpi.Comm.messages
          (Am_util.Units.bytes s.Am_simmpi.Comm.bytes)
          s.Am_simmpi.Comm.exchanges s.Am_simmpi.Comm.reductions)
      (family.comm_stats ctx);
    if flags.check || flags.analyze then
      check_report
        (if flags.analyze then family.static_analysis ctx else family.check_analysis ctx);
    app.finish ();
    let device = Am_perfmodel.Machines.xeon_e5_2697v2 in
    if flags.perf then begin
      let rows =
        Am_perfmodel.Doctor.diagnose ~device ~profile:(family.profile ctx)
          ~loops:(Trace.events (family.trace ctx)) ()
      in
      print_newline ();
      print_string (Am_perfmodel.Doctor.report ~device rows)
    end;
    Am_obs.Obs.finish ?trace:flags.trace ?obs_json:flags.obs_json
      ~roofline_gbs:device.Am_perfmodel.Machines.stream_bw
      ~loops:(Am_core.Profile.obs_rows (family.profile ctx))
      ()
  with Am_op2.Exec_check.Violation msg | Am_ops.Exec_check.Violation msg ->
    (* A sanitizer violation is reported like a static error instead of
       escaping as an uncaught exception with a different exit code. *)
    prerr_endline msg;
    fail_run "dynamic access violation"

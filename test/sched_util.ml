(* Shared schedule-driving helpers for the distributed-runtime, fault and
   checkpoint suites: the n-rank halo ring and its expected result, the
   permutation enumerator, the rank-count sweep table, the fault-proxy
   runners with their checkpoint/restart plumbing, and the
   [assert_uniform] harness that drives a program through every
   inequivalent delivery schedule and demands one bitwise-identical
   outcome.

   Failing schedules print a replay token; rerun the suite with
   AM_SCHED=<token> to execute exactly that schedule (the uniformity check
   is skipped: the single replayed run is the reproduction). *)

module Op2 = Am_op2.Op2
module Ops = Am_ops.Ops
module Comm = Am_simmpi.Comm
module Halo = Am_simmpi.Halo
module Fault = Am_simmpi.Fault
module Schedcheck = Am_schedcheck.Schedcheck
module Resilience = Am_analysis.Resilience
module Umesh = Am_mesh.Umesh
module Airfoil = Am_airfoil.App
module Clover = Am_cloverleaf.App
module Fa = Am_util.Fa

(* Rank counts the sweeps cover: sequential, the two smallest nontrivial
   decompositions, and one that leaves some ranks with ragged partitions. *)
let rank_counts = [ 1; 2; 3; 7 ]

let rec perms = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x -> List.map (fun p -> x :: p) (perms (List.filter (fun y -> y <> x) l)))
      l

(* ---- n-rank halo ring -------------------------------------------------- *)

(* Every rank exports slot 0 to both neighbours and imports into slot 1
   (from the previous rank) and slot 2 (from the next).  At n = 2 the two
   neighbours coincide, degenerating to one message each way (slot 2). *)
let ring_plan ~n =
  let exports = Array.init n (fun _ -> Array.make n [||]) in
  let imports = Array.init n (fun _ -> Array.make n [||]) in
  for r = 0 to n - 1 do
    exports.(r).((r + 1) mod n) <- [| 0 |];
    exports.(r).((r + n - 1) mod n) <- [| 0 |]
  done;
  for p = 0 to n - 1 do
    imports.(p).((p + n - 1) mod n) <- [| 1 |];
    imports.(p).((p + 1) mod n) <- [| 2 |]
  done;
  Halo.create ~n_ranks:n ~exports ~imports

let ring_data ~n base =
  Array.init n (fun r -> [| base +. Float.of_int r; 0.0; 0.0 |])

(* One complete ring exchange, flattened for fingerprint comparison; checks
   the transport left nothing behind. *)
let ring_exchange ~n base =
  let comm = Comm.create ~n_ranks:n in
  let plan = ring_plan ~n in
  let data = ring_data ~n base in
  Halo.exchange comm plan ~dim:1 data;
  if not (Comm.all_drained comm) then failwith "ring exchange left messages behind";
  Array.concat (Array.to_list data)

let check_ring ~what expected data =
  Array.iteri
    (fun r row ->
      if not (Fa.approx_equal ~tol:0.0 expected.(r) row) then
        Alcotest.failf "%s: rank %d got [%s], wanted [%s]" what r
          (String.concat "; " (Array.to_list (Array.map string_of_float row)))
          (String.concat "; "
             (Array.to_list (Array.map string_of_float expected.(r)))))
    expected;
  ignore data

(* ---- Fault proxies and the restart harness ------------------------------ *)

(* One proxy application, abstracted over what the restart harness needs:
   [run] builds the application from scratch (partitioned over [n_ranks],
   the injector attached when given), drives it while persisting the first
   complete checkpoint to [ckpt], restoring from it when [recovering], and
   returns a result fingerprint. *)
type proxy = {
  p_name : string;
  crash_range : int * int; (* injected crash-loop window *)
  run :
    n_ranks:int -> fault:Fault.t option -> ckpt:string option ->
    written:bool ref -> recovering:bool -> float array;
}

let airfoil_mesh = lazy (Umesh.generate_airfoil ~nx:12 ~ny:8 ())

let airfoil_proxy =
  {
    p_name = "airfoil";
    crash_range = (3, 22);
    run =
      (fun ~n_ranks ~fault ~ckpt ~written ~recovering ->
        let t = Airfoil.create (Lazy.force airfoil_mesh) in
        let ctx = t.Airfoil.ctx in
        if n_ranks > 1 then
          Op2.partition ctx ~n_ranks ~strategy:(Op2.Kway_through t.Airfoil.edge_cells);
        (match fault with Some f -> Op2.set_fault_injector ctx f | None -> ());
        (match ckpt with
        | Some path when recovering && !written -> Op2.recover_from_file ctx ~path
        | Some _ ->
          Op2.enable_checkpointing ctx;
          Op2.request_checkpoint ctx
        | None -> ());
        for _ = 1 to 5 do
          ignore (Airfoil.iteration t);
          match (ckpt, Op2.checkpoint_session ctx) with
          | Some path, Some s
            when (not !written) && Am_checkpoint.Runtime.complete s ->
            Op2.checkpoint_to_file ctx ~path;
            written := true
          | _ -> ()
        done;
        Airfoil.solution t);
  }

let clover_proxy =
  {
    p_name = "cloverleaf";
    crash_range = (5, 90);
    run =
      (fun ~n_ranks ~fault ~ckpt ~written ~recovering ->
        (* 16 rows: every rank count in the soak (up to 7) still owns at
           least the 2-deep ghost region. *)
        let t = Clover.create ~nx:12 ~ny:16 () in
        let ctx = t.Clover.ctx in
        if n_ranks > 1 then Ops.partition ctx ~n_ranks ~ref_ysize:16;
        (match fault with Some f -> Ops.set_fault_injector ctx f | None -> ());
        (match ckpt with
        | Some path when recovering && !written -> Ops.recover_from_file ctx ~path
        | Some _ ->
          Ops.enable_checkpointing ctx;
          Ops.request_checkpoint ctx
        | None -> ());
        for _ = 1 to 4 do
          ignore (Clover.hydro_step t);
          match (ckpt, Ops.checkpoint_session ctx) with
          | Some path, Some s
            when (not !written) && Am_checkpoint.Runtime.complete s ->
            Ops.checkpoint_to_file ctx ~path;
            written := true
          | _ -> ()
        done;
        Array.append (Clover.density t) (Clover.energy t));
  }

let proxies = [ airfoil_proxy; clover_proxy ]

(* Fault-free result of a proxy at one rank count, built once per suite. *)
let clean_cache : (string * int, float array) Hashtbl.t = Hashtbl.create 16

let clean proxy ~n_ranks =
  match Hashtbl.find_opt clean_cache (proxy.p_name, n_ranks) with
  | Some r -> r
  | None ->
    let r =
      proxy.run ~n_ranks ~fault:None ~ckpt:None ~written:(ref false)
        ~recovering:false
    in
    Hashtbl.replace clean_cache (proxy.p_name, n_ranks) r;
    r

(* Run one fault schedule under the restart harness.  [recover] arms
   checkpoint/restart (crash schedules must survive); without it the
   harness is detect-and-abort. *)
let run_schedule proxy ~n_ranks ~spec ~recover =
  let fault = Some (Fault.create spec) in
  let ckpt =
    if recover then (
      let p = Filename.temp_file ("am_fault_" ^ proxy.p_name) ".snap" in
      Sys.remove p;
      Some p)
    else None
  in
  let written = ref false in
  let result =
    Resilience.protect ~max_restarts:(if recover then 3 else 0)
      (fun ~recovering -> proxy.run ~n_ranks ~fault ~ckpt ~written ~recovering)
  in
  (match ckpt with Some p when Sys.file_exists p -> Sys.remove p | _ -> ());
  result

(* ---- DPOR harness ------------------------------------------------------- *)

let am_sched = Sys.getenv_opt "AM_SCHED"

let class_lines classes =
  String.concat "\n"
    (List.map
       (fun (c : _ Schedcheck.cls) ->
         Printf.sprintf "  %s x%d  [replay with AM_SCHED=%s]"
           (match c.Schedcheck.cls_result with
           | Ok _ -> "Ok"
           | Error msg -> "Error: " ^ msg)
           c.Schedcheck.cls_count c.Schedcheck.cls_token)
       classes)

(* Explore every inequivalent delivery schedule of [prog] (within [bound]
   deviations) and demand a single, non-raising outcome; returns it with
   the exploration report.  On failure the report and every outcome class
   — each with its replay token — are printed.  Under AM_SCHED=<token> the
   exploration is skipped and the named schedule runs alone. *)
let assert_uniform ?bound ?max_executions ?dependent
    ?(equal = fun a b -> a = b) ~what prog =
  match am_sched with
  | Some token ->
    let v = Schedcheck.replay ~token prog in
    ( v,
      {
        Schedcheck.rp_executions = 1;
        rp_backtracks = 0;
        rp_sleep_hits = 0;
        rp_bound_skips = 0;
        rp_max_depth = 0;
        rp_truncated = false;
        rp_traces = [];
        rp_classes =
          [ { Schedcheck.cls_token = token; cls_count = 1; cls_result = Ok v } ];
      } )
  | None -> (
    let r = Schedcheck.explore ?bound ?max_executions ?dependent ~equal prog in
    if r.Schedcheck.rp_truncated then
      Alcotest.failf "%s: exploration truncated before covering the bound\n%s" what
        (Schedcheck.report_to_string r);
    match r.Schedcheck.rp_classes with
    | [ { Schedcheck.cls_result = Ok v; _ } ] -> (v, r)
    | classes ->
      Alcotest.failf "%s: schedules are not observationally equivalent\n%s\n%s"
        what
        (Schedcheck.report_to_string r)
        (class_lines classes))

(* The analysis facade: run every static layer over a loop sequence and
   aggregate the findings.

   The input is the backend-independent program the runtime already records
   — [Descr.loop] descriptors from a {!Am_core.Trace} — plus whatever
   concrete structure the caller can supply: OP2 map tables turn "possible"
   races into witnessed ones, and the OPS ghost depth lets stencil extents
   be checked against the shell.  A trace normally holds many iterations of
   the same solver cycle, so the checkpoint planner's period detection is
   reused to analyse exactly one period (falling back to deduplicated
   first occurrences when the sequence is aperiodic). *)

module Descr = Am_core.Descr
module Probe = Am_core.Probe
module Trace = Am_core.Trace

type report = {
  findings : Finding.t list; (* sorted worst-first *)
  schedule : Dataflow.exchange list;
  loops_analyzed : int;
}

(* One period of the recorded sequence: the detected period when the trace
   is periodic, the first occurrence of each distinct loop otherwise (an
   aperiodic prefix — e.g. init loops before the cycle — would duplicate
   per-loop findings without adding information). *)
let one_period (loops : Descr.loop list) =
  match Am_checkpoint.Planner.detect_period loops with
  | Some p ->
    let arr = Array.of_list loops in
    Array.to_list (Array.sub arr 0 p)
  | None ->
    let seen = Hashtbl.create 16 in
    List.filter
      (fun (l : Descr.loop) ->
        if Hashtbl.mem seen l.Descr.loop_name then false
        else begin
          Hashtbl.add seen l.Descr.loop_name ();
          true
        end)
      loops

let significant f = Finding.is_error f || Finding.is_warning f

let count_significant findings = List.length (List.filter significant findings)

(* [footprints] carries the facades' once-per-call-site kernel probe results
   (see {!Am_core.Probe} and the [footprints] accessor on each facade): the
   Verify layer diffs each observed footprint against its declared
   descriptor, and the observed read radii feed the halo-schedule replay so
   exchanges forced only by declared-but-unread stencil points surface.
   The default is empty — the [check_*] paths report only dynamic facts, so
   a clean app stays clean; the [static_*] entry points (and the drivers'
   [--analyze] flag) opt in. *)
let analyze ?(maps = []) ?(direct_covers = true) ?ghost_depth ?(footprints = [])
    (loops : Descr.loop list) =
  let period = one_period loops in
  let lint_findings = List.concat_map (Lint.lint ~maps) period in
  let verify_findings = Verify.check footprints in
  let inferred =
    List.map
      (fun (fi : Probe.info) ->
        (fi.Probe.in_loop.Descr.loop_name, fi.Probe.in_read_ext))
      footprints
  in
  let df = Dataflow.analyze ~direct_covers ?ghost_depth ~inferred period in
  Am_obs.Counters.add Am_obs.Obs.analysis_lint_findings
    (count_significant lint_findings);
  Am_obs.Counters.add Am_obs.Obs.analysis_dataflow_findings
    (count_significant df.Dataflow.findings);
  Am_obs.Counters.add Am_obs.Obs.infer_findings
    (count_significant verify_findings);
  {
    findings = Finding.sort (verify_findings @ lint_findings @ df.Dataflow.findings);
    schedule = df.Dataflow.schedule;
    loops_analyzed = List.length period;
  }

let errors r = List.length (List.filter Finding.is_error r.findings)
let warnings r = List.length (List.filter Finding.is_warning r.findings)

(* ------------------------------------------------------------------ *)
(* Context-aware entry points: pull the recorded trace and whatever      *)
(* concrete structure the facade exposes.                                *)

let map_infos_of_op2 ctx =
  List.map
    (fun (m : Am_op2.Types.map_t) ->
      {
        Lint.mi_name = m.Am_op2.Types.map_name;
        mi_arity = m.Am_op2.Types.arity;
        mi_values = m.Am_op2.Types.values;
      })
    (Am_op2.Op2.maps ctx)

let op2_analyze ?footprints ctx =
  analyze ~maps:(map_infos_of_op2 ctx) ?footprints
    (Trace.events (Am_op2.Op2.trace ctx))

let check_op2 ctx = op2_analyze ctx

let min_halo halos = List.fold_left min max_int halos

let ops_analyze ?footprints ctx =
  let ghost_depth =
    match Am_ops.Ops.dats ctx with
    | [] -> None
    | dats -> Some (min_halo (List.map (fun d -> d.Am_ops.Types.halo) dats))
  in
  analyze ~direct_covers:false ?ghost_depth ?footprints
    (Trace.events (Am_ops.Ops.trace ctx))

let check_ops ctx = ops_analyze ctx

let ops1_analyze ?footprints ctx =
  let ghost_depth =
    match Am_ops.Ops1.dats ctx with
    | [] -> None
    | dats -> Some (min_halo (List.map (fun d -> d.Am_ops.Types.halo) dats))
  in
  analyze ~direct_covers:false ?ghost_depth ?footprints
    (Trace.events (Am_ops.Ops1.trace ctx))

let check_ops1 ctx = ops1_analyze ctx

let ops3_analyze ?footprints ctx =
  let ghost_depth =
    match Am_ops.Ops3.dats ctx with
    | [] -> None
    | dats -> Some (min_halo (List.map (fun d -> d.Am_ops.Types.halo) dats))
  in
  analyze ~direct_covers:false ?ghost_depth ?footprints
    (Trace.events (Am_ops.Ops3.trace ctx))

let check_ops3 ctx = ops3_analyze ctx

(* Static verification entry points: the [check_*] analysis plus the Verify
   diff of the kernel footprint of every call site the context has run,
   probed here if no read has probed it yet.  Over-declarations surface as
   Warnings and observed-outside-declared accesses as Errors. *)
let static_op2 ctx = op2_analyze ~footprints:(Am_op2.Op2.footprints ctx) ctx
let static_ops ctx = ops_analyze ~footprints:(Am_ops.Ops.footprints ctx) ctx
let static_ops1 ctx = ops1_analyze ~footprints:(Am_ops.Ops1.footprints ctx) ctx
let static_ops3 ctx = ops3_analyze ~footprints:(Am_ops.Ops3.footprints ctx) ctx

(* ------------------------------------------------------------------ *)
(* Reporting                                                            *)

let report ?(show_info = true) r =
  let buf = Buffer.create 256 in
  let shown =
    List.filter (fun f -> show_info || significant f) r.findings
  in
  Buffer.add_string buf
    (Printf.sprintf "analysis: %d loop(s) per cycle, %d error(s), %d warning(s), %d note(s)\n"
       r.loops_analyzed (errors r) (warnings r)
       (List.length r.findings - count_significant r.findings));
  List.iter
    (fun f ->
      Buffer.add_string buf "  ";
      Buffer.add_string buf (Finding.to_string f);
      Buffer.add_char buf '\n')
    shown;
  Buffer.contents buf

(* Global observability singletons and the reporting front end. *)

let tracer = Tracer.create ()
let counters = Counters.create ()

let set_tracing flag = Tracer.set_enabled tracer flag
let tracing () = Tracer.enabled tracer

let begin_span ?lane ?args ~cat name = Tracer.begin_span tracer ?lane ?args ~cat name
let end_span ?lane () = Tracer.end_span tracer ?lane ()
let span ?lane ?args ~cat name f = Tracer.with_span tracer ?lane ?args ~cat name f
let instant ?lane ?args ~cat name = Tracer.instant tracer ?lane ?args ~cat name

(* Colour-round span names for the executors: precomputed so emitting one
   costs an array read, not an allocation. *)
let colour_names = Array.init 64 (fun i -> "colour" ^ string_of_int i)

let colour_name i =
  if i >= 0 && i < Array.length colour_names then colour_names.(i)
  else "colour" ^ string_of_int i

let loop_calls = Counters.counter counters "loop.calls"
let loop_bytes = Counters.counter counters ~unit_:"bytes" "loop.bytes"
let loop_elements = Counters.counter counters ~unit_:"elements" "loop.elements"
let plan_builds = Counters.counter counters "plan.builds"
let plan_colours = Counters.counter counters "plan.colours"
let exec_hits = Counters.counter counters "exec_cache.hits"
let exec_misses = Counters.counter counters "exec_cache.misses"
let ops_walker_frames = Counters.counter counters "ops.range_walker_frames"
let ops_point_frames = Counters.counter counters "ops.point_walker_frames"
let op2_walker_frames = Counters.counter counters "op2.element_walker_frames"
let op2_point_frames = Counters.counter counters "op2.point_walker_frames"
let comm_messages = Counters.counter counters "comm.messages"
let comm_bytes = Counters.counter counters ~unit_:"bytes" "comm.bytes_sent"
let comm_exchanges = Counters.counter counters "comm.exchanges"
let comm_reductions = Counters.counter counters "comm.reductions"
let checkpoint_snapshots = Counters.counter counters "checkpoint.snapshots"
let checkpoint_restores = Counters.counter counters "checkpoint.restores"
let analysis_lint_findings = Counters.counter counters "analysis.lint_findings"
let analysis_plan_violations = Counters.counter counters "analysis.plan_violations"
let analysis_dataflow_findings = Counters.counter counters "analysis.dataflow_findings"
let infer_signatures = Counters.counter counters "analysis.infer.signatures"
let infer_kernel_runs = Counters.counter counters "analysis.infer.kernel_runs"
let infer_seconds = Counters.gauge counters ~unit_:"s" "analysis.infer.seconds"
let infer_findings = Counters.counter counters "analysis.infer.findings"
let fault_drops = Counters.counter counters "fault.injected_drops"
let fault_dups = Counters.counter counters "fault.injected_dups"
let fault_delays = Counters.counter counters "fault.injected_delays"
let fault_corruptions = Counters.counter counters "fault.injected_corruptions"
let fault_crc_failures = Counters.counter counters "fault.crc_failures"
let fault_stale = Counters.counter counters "fault.stale_discards"
let fault_timeouts = Counters.counter counters "fault.timeouts"
let fault_retransmits = Counters.counter counters "fault.retransmits"
let fault_crashes = Counters.counter counters "fault.crashes"
let fault_recoveries = Counters.counter counters "fault.recoveries"
let fault_aborts = Counters.counter counters "fault.aborts"
let check_loops = Counters.counter counters "check.loops"
let check_elements = Counters.counter counters ~unit_:"elements" "check.elements"
let check_violations = Counters.counter counters "check.violations"
let dpor_executions = Counters.counter counters "dpor.executions"
let dpor_backtracks = Counters.counter counters "dpor.backtracks"
let dpor_sleep_hits = Counters.counter counters "dpor.sleep_hits"
let dpor_bound_skips = Counters.counter counters "dpor.bound_skips"
let gc_minor = Counters.counter counters "gc.minor_collections"
let gc_major = Counters.counter counters "gc.major_collections"
let gc_promoted = Counters.gauge counters ~unit_:"words" "gc.promoted_words"
let pool_busy_seconds = Counters.gauge counters ~unit_:"s" "pool.busy_seconds"
let pool_wall_seconds = Counters.gauge counters ~unit_:"s" "pool.wall_seconds"
let pool_occupancy = Counters.gauge counters "pool.occupancy"

(* Latency-distribution cells: per-call loop wall time (all facades) and
   one sample per halo exchange. *)
let loop_seconds = Counters.histogram counters ~unit_:"s" "loop.seconds"
let halo_seconds = Counters.histogram counters ~unit_:"s" "halo.exchange_seconds"

let reset () =
  Counters.reset counters;
  Tracer.clear tracer;
  Tracer.set_enabled tracer false

(* ---- Reporting ------------------------------------------------------- *)

type loop_row = {
  lr_name : string;
  lr_calls : int;
  lr_seconds : float;
  lr_bytes : int;
  lr_halo_seconds : float;
}

let rate hits misses =
  let total = Counters.value hits + Counters.value misses in
  if total = 0 then "-"
  else Printf.sprintf "%.1f%%" (100.0 *. float_of_int (Counters.value hits) /. float_of_int total)

let loops_table ?roofline_gbs loops =
  let header =
    [ "loop"; "calls"; "time"; "GB/s" ]
    @ (match roofline_gbs with Some _ -> [ "% roof" ] | None -> [])
    @ [ "halo time" ]
  in
  let aligns = Am_util.Table.Left :: List.map (fun _ -> Am_util.Table.Right) (List.tl header) in
  let table = Am_util.Table.create ~title:"observed loops" ~header ~aligns () in
  List.iter
    (fun r ->
      let gbs =
        if r.lr_seconds <= 0.0 || r.lr_bytes = 0 then None
        else Some (Am_util.Units.bandwidth_gbs r.lr_bytes r.lr_seconds)
      in
      Am_util.Table.add_row table
        ([
           r.lr_name;
           string_of_int r.lr_calls;
           Am_util.Units.seconds r.lr_seconds;
           (match gbs with Some g -> Printf.sprintf "%.2f" g | None -> "-");
         ]
        @ (match roofline_gbs with
          | Some roof ->
            [
              (match gbs with
              | Some g when roof > 0.0 -> Printf.sprintf "%.0f%%" (100.0 *. g /. roof)
              | _ -> "-");
            ]
          | None -> [])
        @ [ Am_util.Units.seconds r.lr_halo_seconds ]))
    (List.sort (fun a b -> Float.compare b.lr_seconds a.lr_seconds) loops);
  Am_util.Table.render table

(* The dpor.* counters are rendered in their own section below rather
   than in the generic table. *)
let in_dpor_section name = String.starts_with ~prefix:"dpor." name

let counters_table () =
  let table =
    Am_util.Table.create ~title:"runtime counters" ~header:[ "counter"; "value" ]
      ~aligns:[ Am_util.Table.Left; Right ] ()
  in
  let row name value = Am_util.Table.add_row table [ name; value ] in
  row "exec cache hit rate" (rate exec_hits exec_misses);
  List.iter
    (fun (name, v) ->
      if not (in_dpor_section name) then
        match v with
        | Counters.Int 0 | Counters.Float 0.0 -> ()
        | Counters.Int n ->
          row name
            (if name = "comm.bytes_sent" || name = "loop.bytes" then Am_util.Units.bytes n
             else string_of_int n)
        | Counters.Float x -> row name (Printf.sprintf "%.6g" x)
        | Counters.Hist _ -> () (* rendered in the latency-distribution table *))
    (Counters.snapshot counters);
  Am_util.Table.render table

let dpor_table () =
  if Counters.value dpor_executions = 0 then None
  else begin
    let table =
      Am_util.Table.create ~title:"schedule exploration (dpor)"
        ~header:[ "counter"; "value" ] ~aligns:[ Am_util.Table.Left; Right ] ()
    in
    let row name value = Am_util.Table.add_row table [ name; value ] in
    row "dpor.executions" (string_of_int (Counters.value dpor_executions));
    row "dpor.backtracks" (string_of_int (Counters.value dpor_backtracks));
    row "dpor.sleep_hits" (string_of_int (Counters.value dpor_sleep_hits));
    row "dpor.bound_skips" (string_of_int (Counters.value dpor_bound_skips));
    Some (Am_util.Table.render table)
  end

let histograms_table () =
  let live = List.filter (fun h -> Histogram.count h > 0) (Counters.histograms counters) in
  if live = [] then None
  else begin
    let table =
      Am_util.Table.create ~title:"latency distributions"
        ~header:[ "histogram"; "count"; "p50"; "p90"; "p99"; "max" ]
        ~aligns:
          [ Am_util.Table.Left; Right; Right; Right; Right; Right ]
        ()
    in
    List.iter
      (fun h ->
        Am_util.Table.add_row table
          [
            Histogram.name_of h;
            string_of_int (Histogram.count h);
            Am_util.Units.seconds (Histogram.p50 h);
            Am_util.Units.seconds (Histogram.p90 h);
            Am_util.Units.seconds (Histogram.p99 h);
            Am_util.Units.seconds (Histogram.max_value h);
          ])
      live;
    Some (Am_util.Table.render table)
  end

let report ?roofline_gbs ?(loops = []) () =
  let b = Buffer.create 1024 in
  if loops <> [] then begin
    Buffer.add_string b (loops_table ?roofline_gbs loops);
    (match roofline_gbs with
    | Some roof ->
      Buffer.add_string b
        (Printf.sprintf "roofline ceiling: %.1f GB/s (perfmodel stream bandwidth)\n" roof)
    | None -> ());
    Buffer.add_char b '\n'
  end;
  Buffer.add_string b (counters_table ());
  List.iter
    (fun section ->
      match section with
      | Some text ->
        Buffer.add_char b '\n';
        Buffer.add_string b text
      | None -> ())
    [ dpor_table (); histograms_table () ];
  Buffer.contents b

let counters_json () = Counters.to_json counters

let write_counters ~path =
  let oc = open_out path in
  output_string oc (counters_json ());
  close_out oc

let write_trace ~path = Tracer.write_chrome tracer ~path

let finish ?trace ?obs_json ?roofline_gbs ?loops () =
  match (trace, obs_json) with
  | None, None -> ()
  | _ ->
    print_newline ();
    print_string (report ?roofline_gbs ?loops ());
    (match trace with
    | Some path ->
      write_trace ~path;
      print_newline ();
      print_string (Tracer.flame_summary tracer);
      Printf.printf "trace written to %s (open in chrome://tracing or ui.perfetto.dev)\n" path
    | None -> ());
    (match obs_json with
    | Some path ->
      write_counters ~path;
      Printf.printf "counters written to %s\n" path
    | None -> ())

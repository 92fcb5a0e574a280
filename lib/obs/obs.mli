(** Process-wide observability front end.

    The runtime layers (op2, ops, simmpi, checkpoint) have no common context
    object — [Simmpi.Comm] in particular is constructed far from any facade —
    so the span tracer and the counter registry they report into are process
    globals defined here.  Drivers enable tracing, run, then export with
    {!write_trace} / {!write_counters} / {!report}. *)

val tracer : Tracer.t
val counters : Counters.t

val set_tracing : bool -> unit
val tracing : unit -> bool
(** Fast enabled check for call sites that build span arguments. *)

(** Span helpers on the global tracer (no-ops while tracing is off). *)

val begin_span : ?lane:int -> ?args:(string * float) list -> cat:Tracer.category -> string -> unit

val end_span : ?lane:int -> unit -> unit
val span : ?lane:int -> ?args:(string * float) list -> cat:Tracer.category -> string -> (unit -> 'a) -> 'a
val instant : ?lane:int -> ?args:(string * float) list -> cat:Tracer.category -> string -> unit

val colour_name : int -> string
(** ["colour0"], ["colour1"], ... without allocating for small indices. *)

(** {1 Pre-registered counters}

    Always-on; updating one is a single field write.
    [plan_builds]/[plan_colours] count plans constructed and their block
    colours; [exec_hits]/[exec_misses] count compiled-executor reuses vs.
    (re)compilations; [ops_walker_frames]/[ops_point_frames] count OPS
    accessor-kernel frames that run a generated range walker vs. the
    staging point walker, and [op2_walker_frames]/[op2_point_frames] the
    same for OP2's element walker. *)

val loop_calls : Counters.counter
val loop_bytes : Counters.counter
val loop_elements : Counters.counter
val plan_builds : Counters.counter
val plan_colours : Counters.counter
val exec_hits : Counters.counter
val exec_misses : Counters.counter
val ops_walker_frames : Counters.counter
val ops_point_frames : Counters.counter
val op2_walker_frames : Counters.counter
val op2_point_frames : Counters.counter
val comm_messages : Counters.counter
val comm_bytes : Counters.counter
val comm_exchanges : Counters.counter
val comm_reductions : Counters.counter
val checkpoint_snapshots : Counters.counter
val checkpoint_restores : Counters.counter

(** Fault-injection and recovery activity: faults injected per kind
    (drops, duplicates, delays, corruptions), faults detected by the
    reliable transport (CRC failures, stale-sequence discards, timeouts)
    and its retransmissions, plus whole-run events — injected rank
    crashes, recovery restarts, and aborts after retries were exhausted. *)

val fault_drops : Counters.counter
val fault_dups : Counters.counter
val fault_delays : Counters.counter
val fault_corruptions : Counters.counter
val fault_crc_failures : Counters.counter
val fault_stale : Counters.counter
val fault_timeouts : Counters.counter
val fault_retransmits : Counters.counter
val fault_crashes : Counters.counter
val fault_recoveries : Counters.counter
val fault_aborts : Counters.counter

(** Static-analysis findings per layer (descriptor lints, plan/colouring
    validation, cross-loop dataflow) and the sanitizer backend's activity:
    loops and elements executed under guard, violations raised. *)

val analysis_lint_findings : Counters.counter
val analysis_plan_violations : Counters.counter
val analysis_dataflow_findings : Counters.counter
val check_loops : Counters.counter
val check_elements : Counters.counter
val check_violations : Counters.counter

(** Footprint-inference activity, which only a read of a context's
    footprints sets off: call sites probed, kernel invocations spent
    probing, the cumulative probing time, and significant findings the
    verifier derived from observed-vs-declared diffs. *)

val infer_signatures : Counters.counter
val infer_kernel_runs : Counters.counter
val infer_seconds : Counters.gauge
val infer_findings : Counters.counter

(** Schedule-exploration (bounded DPOR) activity: program executions run by
    the explorer, backtrack points taken, redundant schedules pruned by
    sleep sets, and backtrack points skipped by the delay bound. *)

val dpor_executions : Counters.counter
val dpor_backtracks : Counters.counter
val dpor_sleep_hits : Counters.counter
val dpor_bound_skips : Counters.counter

(** Runtime-environment telemetry.  GC cells accumulate per-loop
    [Gc.quick_stat] deltas (sampled only while tracing is enabled, so the
    default path never calls the GC); pool cells aggregate taskpool worker
    occupancy — busy time over wall time x workers for traced parallel
    regions. *)

val gc_minor : Counters.counter
val gc_major : Counters.counter
val gc_promoted : Counters.gauge
val pool_busy_seconds : Counters.gauge
val pool_wall_seconds : Counters.gauge
val pool_occupancy : Counters.gauge

(** Pre-registered latency histograms (always-on, like the counters):
    per-call loop wall time across all facades and per-exchange halo
    latency. *)

val loop_seconds : Counters.histogram
val halo_seconds : Counters.histogram

val reset : unit -> unit
(** Zero all counters, drop all trace events, disable tracing. *)

(** {1 Reporting} *)

type loop_row = {
  lr_name : string;
  lr_calls : int;
  lr_seconds : float;
  lr_bytes : int;
  lr_halo_seconds : float;  (** communication time *)
}

val report : ?roofline_gbs:float -> ?loops:loop_row list -> unit -> string
(** Rendered tables: per-loop time and achieved GB/s (against the perfmodel
    roofline ceiling when [roofline_gbs] is given) and halo time,
    followed by the executor cache hit rate and communication totals,
    then a schedule-exploration section ([dpor.*]) when the explorer ran,
    and a latency-distribution table (count/p50/p90/p99/max) for every
    non-empty histogram cell. *)

val counters_json : unit -> string
val write_counters : path:string -> unit
val write_trace : path:string -> unit

val finish : ?trace:string -> ?obs_json:string -> ?roofline_gbs:float -> ?loops:loop_row list -> unit -> unit
(** Driver epilogue for the [--trace] / [--obs-json] flags: write whichever
    artifact paths are given and, if any is, print {!report} and the flame
    summary to stdout. *)

(* The repository benchmark: hand-vs-library cost per app step, end to end
   (untraced runs) and layer by layer (traced runs).  See README.md.

   main.exe --workload W --seed N --seconds S --trace 0|1 [--spans FILE]

   Prints one line per metric, a provenance line, and as its last line the
   JSON result {"correct", "attempted", "failed", "metrics"}. *)

module Obs = Am_obs.Obs
module C = Am_obs.Counters
module Span = Measure.Span
open Workload

let workloads =
  [ Airfoil_wl.airfoil; Cloverleaf_wl.workload; Tealeaf_wl.workload; Airfoil_wl.airfoil_shared ]

(* Fresh instances per run.  [setup_s] is the fastest of them: a shared host
   switches between a fast and a ~1.6x slower state every few seconds, so
   the median of a run follows the share of slow seconds in it, while the
   fastest instance, spread over the whole run, lands in a fast second.
   The setup layer metrics of a traced run are medians. *)
let n_fresh = 32

(* [step_p90_s] needs ten samples beyond the 90th percentile. *)
let min_samples = 100

(* [heap_peak_mb] is read after this many timed pairs, before the first
   fresh setup instance: a fixed step count keeps it independent of speed. *)
let heap_after = 20

(* Library/reference agreement is re-checked every this many step pairs. *)
let check_every = 50

(* Printed with the other metrics but left out of the JSON result: absolute
   step times follow the load of a shared host from one set of runs to the
   next by more than any bound the result may carry.  [overhead_x], timed
   interleaved with the reference, carries the step cost instead. *)
let printed_only = [ "step_s"; "step_p90_s" ]

let unit_of name =
  let ends s = String.ends_with ~suffix:s name in
  if ends "_us" || ends "_us_per_step" then "us"
  else if ends "ns_per_elem" then "ns"
  else if ends "_s" || ends ".seconds" then "s"
  else if ends "_x" then "x"
  else if ends "_mw_per_step" then "MW"
  else if ends "_mb" then "MB"
  else if ends "bytes_per_step" then "bytes"
  else "count"

(* Result checks: [attempted] and [failed] of the JSON result. *)
let attempted = ref 0
let failed = ref 0

let check ok =
  incr attempted;
  if not ok then incr failed

let check_pair (p : pair) =
  check (p.check ());
  (* The check must reject a deliberately perturbed reference. *)
  check (p.check_rejects_perturbed ())

(* One fresh library instance: its setup phases and the layer counts it
   moved. *)
let fresh_sample w =
  let s0 = C.value Obs.infer_signatures and x0 = C.value Obs.exec_misses in
  let i0 = C.valuef Obs.infer_seconds in
  let s = w.fresh () in
  ( s,
    C.value Obs.infer_signatures - s0,
    C.value Obs.exec_misses - x0,
    C.valuef Obs.infer_seconds -. i0 )

(* [setup_s], the fastest fresh instance, and the setup layer metrics,
   medians over fresh instances. *)
let summarize_fresh runs =
  let med f = Measure.median (List.map f runs) in
  ( List.fold_left (fun m (s, _, _, _) -> Float.min m (setup_total s)) infinity runs,
    [
      ("setup.declare_s", med (fun (s, _, _, _) -> s.declare_s));
      ("setup.first_step_s", med (fun (s, _, _, _) -> s.first_step_s));
      ("infer.signatures", med (fun (_, n, _, _) -> Float.of_int n));
      ("exec.compiles", med (fun (_, _, n, _) -> Float.of_int n));
      ("infer.seconds", med (fun (_, _, _, t) -> t));
    ] )

let heap_peak_mb () =
  Float.of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Untraced run: library and reference steps interleaved ABAB/BABA in one
   process until [seconds] have passed and [min_samples] pairs exist.  The
   fresh instances for [setup_s] are spread over the same time, so a burst
   of outside load reaches a few of them, not all. *)
let end_to_end w ~seed ~seconds =
  let p = w.pair ~seed in
  for _ = 1 to 2 do
    p.lib_step ();
    p.ref_step ()
  done;
  check (p.check ());
  let alloc = Measure.alloc_mw 5 p.lib_step in
  for _ = 1 to 5 do
    p.ref_step ()
  done;
  let lib = ref [] and ratio = ref [] and pairs = ref 0 and fresh = ref [] in
  let heap = ref (heap_peak_mb ()) in
  let start = Measure.now () in
  let deadline = start +. seconds and hard_stop = start +. (3.0 *. seconds) in
  let fresh_every = seconds /. Float.of_int n_fresh in
  let next_fresh = ref (start +. (fresh_every /. 2.0)) in
  while
    let t = Measure.now () in
    t < deadline || (!pairs < min_samples && t < hard_stop)
  do
    if !pairs = heap_after then heap := heap_peak_mb ();
    if !pairs > heap_after && Measure.now () >= !next_fresh && List.length !fresh < n_fresh
    then begin
      fresh := fresh_sample w :: !fresh;
      next_fresh := !next_fresh +. fresh_every
    end;
    let tl, tr =
      if !pairs mod 2 = 0 then
        let a = Measure.time p.lib_step in
        (a, Measure.time p.ref_step)
      else
        let b = Measure.time p.ref_step in
        (Measure.time p.lib_step, b)
    in
    lib := tl :: !lib;
    ratio := (tl /. tr) :: !ratio;
    incr pairs;
    if !pairs mod check_every = 0 then check (p.check ())
  done;
  check_pair p;
  while List.length !fresh < n_fresh do
    fresh := fresh_sample w :: !fresh
  done;
  [
    ("step_s", Measure.median !lib);
    ("step_p90_s", Am_util.Stats.percentile (Array.of_list !lib) 90.0);
    ("overhead_x", Measure.median !ratio);
    ("setup_s", fst (summarize_fresh !fresh));
    ("alloc_mw_per_step", alloc);
    ("heap_peak_mb", !heap);
  ]

(* Traced run: every workload's rungs and phases under spans, each workload
   given an equal share of [seconds]; the layer-wide metrics (loop, setup,
   gc, trace) are those of [w]. *)
let traced w ~seed ~seconds ~spans_path =
  let _, setup_metrics = summarize_fresh (List.init n_fresh (fun _ -> fresh_sample w)) in
  let groups = List.map (fun (x : Workload.t) -> (x.name, x.traced ~seed)) workloads in
  let sel = List.assoc w.name groups in
  List.iter (fun (_, g) -> g.round (Span.create ())) groups;
  let sp = Span.create () in
  let slice = 0.25 in
  let deadline = Measure.now () +. seconds in
  while Measure.now () < deadline do
    List.iter
      (fun (_, g) ->
        let stop = Measure.now () +. slice in
        while Measure.now () < stop do
          g.round sp
        done)
      groups
  done;
  List.iter (fun (_, g) -> check_pair g.tpair) groups;
  let p = sel.tpair in
  let calls0 = C.value Obs.loop_calls in
  p.lib_step ();
  let calls = C.value Obs.loop_calls - calls0 in
  p.ref_step ();
  let steps = 10 in
  let g0 = Gc.quick_stat () in
  for _ = 1 to steps do
    p.lib_step ()
  done;
  let g1 = Gc.quick_stat () in
  for _ = 1 to steps do
    p.ref_step ()
  done;
  check (p.check ());
  let per_step d = Float.of_int d /. Float.of_int steps in
  let r = sel.rep sp in
  let per_elem us = us *. 1e3 /. Float.of_int r.elems in
  Option.iter (Span.write sp) spans_path;
  setup_metrics
  @ [
      ("loop.calls_per_step", Float.of_int calls);
      ("loop.bookkeeping_us", r.empty_us);
      ("loop.dispatch_ns_per_elem", per_elem (r.null_us -. r.empty_us));
      ("loop.kernel_ns_per_elem", per_elem (r.lib_us -. r.null_us));
      ("hand.ns_per_elem", per_elem r.hand_us);
      ("gc.minor_per_step", per_step (g1.minor_collections - g0.minor_collections));
      ("gc.major_per_step", per_step (g1.major_collections - g0.major_collections));
      ( "trace.overhead_x",
        Span.duration_median sp sel.traced_step /. Span.duration_median sp sel.untraced_step );
    ]
  @ List.concat_map (fun (_, g) -> g.home_metrics sp) groups

let usage () =
  prerr_endline
    "usage: main.exe --workload airfoil|cloverleaf|tealeaf_dist|airfoil_shared --seed N \
     --seconds S --trace 0|1 [--spans FILE]";
  exit 2

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  let spans = ref None in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "workload name");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measuring time");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
      ("--spans", Arg.String (fun s -> spans := Some s), "file for the traced run's spans");
    ]
    (fun _ -> usage ())
    "perfbench";
  let w =
    match List.find_opt (fun (x : Workload.t) -> x.name = !workload) workloads with
    | Some w -> w
    | None -> usage ()
  in
  if !trace <> 0 && !trace <> 1 then usage ();
  let metrics =
    Fun.protect ~finally:shutdown_pool (fun () ->
        if !trace = 0 then end_to_end w ~seed:!seed ~seconds:!seconds
        else traced w ~seed:!seed ~seconds:!seconds ~spans_path:!spans)
  in
  List.iter (fun (k, v) -> Printf.printf "%-34s %16.9g %s\n" k v (unit_of k)) metrics;
  let ratio = List.assoc_opt "overhead_x" metrics in
  (match (w.name, ratio) with
  | "tealeaf_dist", Some x -> Printf.printf "%-34s %16.9g x\n" "dist_overhead_x" x
  | "airfoil_shared", Some x -> Printf.printf "%-34s %16.9g x\n" "parallel_speedup_x" (1.0 /. x)
  | _ -> ());
  Printf.printf "%-34s %16.9g ratio\n" "error_rate"
    (Float.of_int !failed /. Float.of_int (max 1 !attempted));
  Printf.printf
    "provenance: {\"workload\":%S,\"seed\":%d,\"trace\":%d,\"recommended_domains\":%d,\"pool_size\":%d,\"ocaml\":%S}\n"
    w.name !seed !trace
    (Domain.recommended_domain_count ())
    (pool_size ()) Sys.ocaml_version;
  let json_metrics =
    String.concat ","
      (List.map
         (fun (k, v) -> Printf.sprintf "%S:{\"value\":%.17g,\"unit\":%S}" k v (unit_of k))
         (List.filter (fun (k, _) -> not (List.mem k printed_only)) metrics))
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (!failed = 0) !attempted !failed json_metrics

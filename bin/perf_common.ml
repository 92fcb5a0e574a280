(* Shared --perf-report plumbing for the proxy-app drivers.

   The flag turns on span tracing (so the facades sample per-loop GC
   deltas) and the context's loop-descriptor trace (so the doctor has a
   signature to price), then prints the per-loop attribution table after
   the run: achieved GB/s vs. the perfmodel prediction, GC activity and a
   verdict per loop handle. *)

let device = Am_perfmodel.Machines.xeon_e5_2697v2

let enable perf trace =
  if perf then begin
    Am_obs.Obs.set_tracing true;
    Am_core.Trace.set_enabled trace true
  end

let print perf ~profile ~trace =
  if perf then begin
    let rows =
      Am_perfmodel.Doctor.diagnose ~device ~profile ~loops:(Am_core.Trace.events trace) ()
    in
    print_newline ();
    print_string (Am_perfmodel.Doctor.report ~device rows)
  end

open Cmdliner

let arg =
  Arg.(
    value & flag
    & info [ "perf-report" ]
        ~doc:
          "Print a per-loop performance-attribution table after the run: \
           achieved GB/s against the perfmodel prediction for each loop, GC \
           deltas, and an ok / below-model / above-model verdict.  Enables \
           span tracing for the run.")

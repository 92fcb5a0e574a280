(* Shared --check / --analyze plumbing for the proxy-application drivers:
   the flags themselves, and the end-of-run reporting / exit-code policy.

   Under --check a driver (a) forces the sanitizer backend, which keeps
   sequential semantics but stages every kernel argument through
   canary-padded, access-guarded buffers, (b) records the loop sequence,
   and (c) runs the static analysis layers (descriptor lints + cross-loop
   dataflow) over the recorded cycle once the run finishes.

   Under --analyze the backend is left alone; after the run the driver
   additionally probes every call site's kernel once (from its first
   call's descriptor) and diffs the observed footprint against the
   declared descriptor — the Verify layer — and feeds the observed read
   radii into the halo-schedule replay.

   Static error-severity findings and dynamic sanitizer violations go
   through one exit path: both print their evidence and fail the run with
   exit code 1. *)

let arg =
  let open Cmdliner in
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Correctness-checking mode: execute on the sanitizer backend \
           (canary-padded, access-guarded staging buffers; overrides \
           $(b,--backend)), record the loop sequence, and run the access \
           descriptor and dataflow analyses over it after the run. Exits 1 \
           on any error-severity finding.")

let analyze_arg =
  let open Cmdliner in
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

(* The single exit path for both failure families (static errors found
   after the run, dynamic violations raised during it): evidence first,
   then a uniform one-line verdict and exit 1. *)
let fail_run reason =
  prerr_endline (Printf.sprintf "check: %s; failing the run" reason);
  exit 1

let report r =
  print_newline ();
  print_string (Am_analysis.Analysis.report r);
  if Am_analysis.Analysis.errors r > 0 then fail_run "error-severity findings"

(* Wrap a driver body so a sanitizer violation (either facade family) is
   reported like a static error instead of escaping as an uncaught
   exception with a different exit code. *)
let guard f =
  try f () with
  | Am_op2.Exec_check.Violation msg | Am_ops.Exec_check.Violation msg ->
    prerr_endline msg;
    fail_run "dynamic access violation"

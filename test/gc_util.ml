(* Minor-heap words allocated by [f ()], with a minor collection on both
   sides so the count covers every domain (as perfbench/measure.ml counts
   them).  Kernels that box floats — a cross-module accessor helper or a
   closure capturing floats, under [-opaque] without flambda — allocate per
   element and blow any per-iteration budget built on this. *)
let minor_words f =
  Gc.minor ();
  let w0 = (Gc.quick_stat ()).Gc.minor_words in
  f ();
  Gc.minor ();
  (Gc.quick_stat ()).Gc.minor_words -. w0

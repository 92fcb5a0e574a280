(* Sequential reference backend.

   This is the "generic implementation" of the paper: a plain loop over the
   iteration set, moving each argument to the element (in place or through
   its staging buffer, see [Exec_common]) before the kernel runs.  It is
   the correctness oracle every other backend is tested against, and the
   human-readable debugging target the source-to-source generator also
   emits. *)

(* [?compiled] lets a loop handle supply a cached executor (see [Plan]);
   without one the arguments are compiled on the spot. *)
let run ?resolvers ?compiled ~set_size ~args ~kernel () =
  let compiled =
    match compiled with
    | Some c -> c
    | None -> Exec_common.compile ?resolvers args
  in
  let frame = Exec_common.make_frame compiled kernel in
  for e = 0 to set_size - 1 do
    Exec_common.run_element frame e
  done;
  if Exec_common.has_globals compiled then
    Exec_common.merge_globals compiled frame.Exec_common.bufs

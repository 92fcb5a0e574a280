(* Sequential reference backend.

   This is the "generic implementation" of the paper: one walk over the
   whole iteration set, through the kernel's generated element walker
   with every dataset in place where the arguments allow it, through the
   staging point walker otherwise (see [Exec_common]).  It is the
   correctness oracle every other backend is tested against, and the
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
  Exec_common.run_range frame 0 set_size;
  if Exec_common.has_globals compiled then
    Exec_common.merge_globals compiled frame.Exec_common.bufs

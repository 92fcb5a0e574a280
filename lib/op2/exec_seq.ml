(* Sequential reference backend.

   This is the "generic implementation" of the paper: one walk over the
   whole iteration set, through the kernel's generated element walker
   with every dataset in place where the arguments allow it, through the
   staging point walker otherwise (see [Exec_common]).  It is the
   correctness oracle every other backend is tested against, and the
   human-readable debugging target the source-to-source generator also
   emits. *)

(* [compiled] is the executor a loop handle keeps (see [Plan]), or a
   rank's (see [Dist]). *)
let run ~compiled ~set_size ~args ~kernel =
  let frame = Exec_common.make_frame compiled kernel args in
  Exec_common.run_range frame 0 set_size;
  if Exec_common.has_globals compiled then
    Exec_common.merge_globals args frame.Exec_common.bufs

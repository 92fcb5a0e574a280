(* Layer 4: observed kernel footprint versus declared descriptor.

   [Probe.infer] runs each kernel over sentinel-laden staging buffers and
   records which slots were actually read and written.  This pass diffs
   that observation against the declaration the library plans with, under
   a definite/possible severity split that follows the probing soundness
   model:

   - an access the probe *observed* and the declaration forbids is a
     definite [Error] — the kernel was caught in the act, over probe data
     (the Check backend finds the same lies, but per element, at about
     20x Seq, and only after the corrupted values have been computed);

   - a declared access that was *never observed* is only an
     over-declaration [Warning]: probing samples data-dependent branches,
     so absence is evidence, not proof.  The warning carries the
     tightened footprint, which the halo-schedule report replays;

   - a kernel that raised on probe data leaves the footprint
     inconclusive, reported as [Info] and ignored by every consumer. *)

module Descr = Am_core.Descr
module Probe = Am_core.Probe
module Access = Am_core.Access

let slot_list mask ~keep =
  let out = ref [] in
  Array.iteri (fun i b -> if b = keep then out := i :: !out) mask;
  String.concat "," (List.rev_map string_of_int !out)

let count mask ~keep =
  Array.fold_left (fun acc b -> if b = keep then acc + 1 else acc) 0 mask

(* Findings for one (declared loop, observed footprint) pair.  The probe
   was constructed from this same descriptor, so the argument arrays line
   up by index. *)
let diff (loop : Descr.loop) (fp : Probe.t) =
  let findings = ref [] in
  let add ?arg ~severity ~subject message =
    findings :=
      Finding.make ~layer:Finding.Verify ~severity ~loop:loop.Descr.loop_name
        ?arg ~subject message
      :: !findings
  in
  (match fp.Probe.fp_oob with
  | Some msg ->
    add ~severity:Finding.Error ~subject:loop.Descr.loop_name
      (Printf.sprintf
         "kernel raised Invalid_argument (%s) on probe data — it indexes \
          past every declared staging slot and the canary pad"
         msg)
  | None -> ());
  (match fp.Probe.fp_failed with
  | Some msg ->
    add ~severity:Finding.Info ~subject:loop.Descr.loop_name
      (Printf.sprintf
         "footprint inference inconclusive: kernel raised %s on probe data \
          (declaration taken at face value)"
         msg)
  | None -> ());
  List.iteri
    (fun i (a : Descr.arg) ->
      if i < Array.length fp.Probe.fp_args then begin
        let af = fp.Probe.fp_args.(i) in
        let arg = i in
        if af.Probe.af_pad_written then
          add ~arg ~severity:Finding.Error ~subject:af.Probe.af_name
            (Printf.sprintf
               "observed write past the %d declared staging slot(s): \
                undeclared stencil point or out-of-range component"
               af.Probe.af_slots);
        if af.Probe.af_pad_read then
          add ~arg ~severity:Finding.Error ~subject:af.Probe.af_name
            (Printf.sprintf
               "observed read past the %d declared staging slot(s): the \
                kernel's footprint is wider than its declaration"
               af.Probe.af_slots);
        (match a.Descr.access with
        | Access.Read ->
          if Probe.any af.Probe.af_written then
            add ~arg ~severity:Finding.Error ~subject:af.Probe.af_name
              (Printf.sprintf
                 "observed write to slot(s) %s of a Read argument"
                 (slot_list af.Probe.af_written ~keep:true))
        | Access.Write ->
          if Probe.any af.Probe.af_read then
            add ~arg ~severity:Finding.Error ~subject:af.Probe.af_name
              (Printf.sprintf
                 "observed read of the (dead) previous value in slot(s) %s \
                  of a Write argument"
                 (slot_list af.Probe.af_read ~keep:true));
          if Probe.any af.Probe.af_unwritten then
            add ~arg ~severity:Finding.Error ~subject:af.Probe.af_name
              (Printf.sprintf
                 "slot(s) %s of a Write argument left unwritten on some \
                  probe — the previous value is dead, so the result is \
                  undefined there"
                 (slot_list af.Probe.af_unwritten ~keep:true))
        | Access.Inc ->
          if af.Probe.af_non_additive then
            add ~arg ~severity:Finding.Error ~subject:af.Probe.af_name
              "Inc argument observed overwriting: seeding the staging \
               buffer does not shift the result by the seed, so colouring \
               and distributed reductions would lose contributions"
        | Access.Rw | Access.Min | Access.Max -> ());
        (* over-declaration: declared reads never observed on any probe *)
        if fp.Probe.fp_oob = None && fp.Probe.fp_failed = None then begin
          match (a.Descr.access, a.Descr.kind) with
          | (Access.Read | Access.Rw), Descr.Stencil { points; extent } ->
            let pr = Probe.points_read af ~dim:a.Descr.dim in
            let unread = count pr ~keep:false in
            if unread > 0 && unread < points then
              add ~arg ~severity:Finding.Warning ~subject:af.Probe.af_name
                (Printf.sprintf
                   "stencil point(s) %s never observed read (%d of %d \
                    declared points used): declared radius %d is wider \
                    than the kernel's footprint — halo exchanges pay for \
                    the difference"
                   (slot_list pr ~keep:false) (points - unread) points extent)
            else if unread = points then
              add ~arg ~severity:Finding.Warning ~subject:af.Probe.af_name
                (Printf.sprintf
                   "argument never observed read on any probe (declared a \
                    %d-point stencil read)"
                   points)
          | Access.Read, Descr.Global when a.Descr.dat_name <> "idx" ->
            let unread = count af.Probe.af_read ~keep:false in
            if unread > 0 && a.Descr.dim > 1 then
              add ~arg ~severity:Finding.Warning ~subject:af.Probe.af_name
                (Printf.sprintf
                   "component(s) %s of a %d-component Read global never \
                    observed read: over-declared footprint"
                   (slot_list af.Probe.af_read ~keep:false) a.Descr.dim)
            else if unread = a.Descr.dim then
              add ~arg ~severity:Finding.Warning ~subject:af.Probe.af_name
                "Read global never observed read on any probe"
          | Access.Read, (Descr.Direct | Descr.Indirect _) ->
            if not (Probe.any af.Probe.af_read) then
              add ~arg ~severity:Finding.Warning ~subject:af.Probe.af_name
                "argument never observed read on any probe: over-declared \
                 footprint"
          | _ -> ()
        end
      end)
    loop.Descr.args;
  List.rev !findings

(* Diff every footprint a facade collected; [infos] come from
   [Op2.footprints] / [Ops*.footprints]. *)
let check (infos : Probe.info list) =
  List.concat_map (fun (fi : Probe.info) -> diff fi.Probe.in_loop fi.Probe.in_foot) infos

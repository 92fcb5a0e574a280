(* Kernel footprint inference: execute a loop kernel over probe staging
   buffers and observe which slots it actually reads and writes, once per
   loop signature.

   The facades hand every kernel the same shape of argument: one staging
   buffer per declared argument ([dim] values per stencil point for OPS,
   [dim] values for OP2 dats and globals; OP2 accessor kernels see each
   buffer through a base-0 accessor).  That convention makes the kernel a
   pure function of its staging buffers, so its memory footprint can be
   *observed* instead of trusted:

   - writes are caught by a write-shadow: every slot starts from a
     distinguishable sentinel payload and a changed bit pattern after the
     kernel means the slot was written;
   - reads are caught by perturbation: re-run the kernel with one input
     slot moved (two-sided — both up and down, so a read masked by a
     min/max selection on one side still shows on the other) and any
     changed output bit means the slot's value flowed into the result;
   - a canary pad past the declared slots catches out-of-bounds accesses
     that stay inside the OCaml array; indexing past the pad raises
     [Invalid_argument], which is caught and recorded;
   - [Inc] arguments are checked for additivity: seeding the staging
     buffer must shift the result by exactly the seed, which an
     increment-that-overwrites cannot reproduce.

   Branch coverage is sampled, not proved: the kernel runs over a small
   set of probe vectors (positive O(1) values, mixed signs for
   sign-dependent branches like viscosity's [div < 0] split, spread
   magnitudes).  Observed accesses are therefore *definite* facts —
   an access that happened cannot be argued away — while absence of an
   access is only evidence, which is why [Verify] reports undeclared
   accesses as errors but never-observed declarations only as warnings. *)

module A = Access
module Counters = Am_obs.Counters
module Obs = Am_obs.Obs

type arg_foot = {
  af_name : string;
  af_access : A.t;
  af_slots : int; (* declared staging slots: points*dim (stencil) or dim *)
  af_read : bool array; (* some probe's output depended on the slot's input *)
  af_written : bool array; (* the slot's bits changed on some probe *)
  af_unwritten : bool array; (* Write-declared slot left untouched on some probe *)
  af_pad_read : bool; (* output depended on a canary-pad slot *)
  af_pad_written : bool; (* kernel wrote past the declared slots *)
  af_non_additive : bool; (* Inc argument observed overwriting, not adding *)
}

type t = {
  fp_loop : string;
  fp_args : arg_foot array;
  fp_probes : int; (* probe vectors run *)
  fp_runs : int; (* kernel invocations *)
  fp_oob : string option; (* kernel indexed past the staging pad *)
  fp_failed : string option; (* probing aborted: kernel raised on probe data *)
}

let slots_of (a : Descr.arg) =
  match a.Descr.kind with
  | Descr.Stencil { points; _ } -> points * a.Descr.dim
  | Descr.Direct | Descr.Indirect _ | Descr.Global -> a.Descr.dim

(* Pad width past the declared slots, matching the sanitizer executors so
   an index that the Check backend would catch in the canary tail is also
   observed here. *)
let pad_of (a : Descr.arg) = max 2 a.Descr.dim

(* ---- deterministic probe values -------------------------------------- *)

let splitmix state =
  let s = Int64.add state 0x9E3779B97F4A7C15L in
  let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  (s, Int64.logxor z (Int64.shift_right_logical z 31))

let unit_float bits =
  Int64.to_float (Int64.shift_right_logical bits 11) /. 9007199254740992.0

let hash_string s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    s;
  !h

let n_probes = 4

(* The probe values' seed: the loop name and its rendered arguments, so
   inference is reproducible run to run. *)
let seed_of (loop : Descr.loop) =
  hash_string
    (loop.Descr.loop_name ^ "|" ^ String.concat "," (List.map Descr.arg_to_string loop.Descr.args))

(* One pseudo-random unit float per (probe, arg, slot), deterministic in
   the seed. *)
let unit_of ~seed ~probe ~arg ~slot =
  let s =
    Int64.add seed
      (Int64.of_int ((probe * 0x3779_91) + (arg * 0x10_0001) + slot))
  in
  let _, z = splitmix s in
  unit_float z

(* The probe vectors: positive O(1) values (twice, independent draws, so
   physics kernels see ordinary magnitudes and avoid NaN), mixed signs
   (covers sign-dependent branches), spread magnitudes. *)
let probe_value ~seed ~probe ~arg ~slot =
  let u = unit_of ~seed ~probe ~arg ~slot in
  match probe with
  | 0 -> 0.5 +. u
  | 1 -> 0.25 +. (1.5 *. u)
  | 2 ->
    let v = (2.0 *. u) -. 1.0 in
    if Float.abs v < 0.1 then if v < 0.0 then v -. 0.1 else v +. 0.1 else v
  | _ -> Float.pow 10.0 (2.0 *. (u -. 0.5))

(* OPS index arguments carry iteration coordinates; probe them with small
   non-negative integers so coordinate comparisons behave like real grid
   points. *)
let idx_value ~probe ~slot =
  match probe with
  | 0 -> Float.of_int (slot + 1)
  | 1 -> 0.0
  | 2 -> Float.of_int (7 + slot)
  | _ -> 31.0

(* Write-declared slots start from an improbable finite sentinel: the
   kernel is promised the previous value is dead, so the only way these
   bits can influence the output is a descriptor lie. *)
let write_sentinel ~seed ~probe ~arg ~slot =
  1.0e17 *. (1.0 +. unit_of ~seed ~probe ~arg ~slot)

exception Probe_stop of string option * string option (* oob, failed *)

(* [idx] marks argument positions the facade declared as iteration-index
   buffers (its [Arg_idx] constructor) — [Descr] flattens those into a
   Read global, and matching on the rendered name would misprobe a user
   global genuinely called "idx". *)
let infer ?(idx = [||]) ~(loop : Descr.loop) ~(kernel : float array array -> unit)
    () =
  let is_idx i = i < Array.length idx && idx.(i) in
  Counters.incr Obs.infer_signatures;
  let t0 = Sys.time () in
  let seed = seed_of loop in
  let args = Array.of_list loop.Descr.args in
  let n = Array.length args in
  let nslots = Array.map slots_of args in
  let pads = Array.map pad_of args in
  let total i = nslots.(i) + pads.(i) in
  let bufs = Array.init n (fun i -> Array.make (total i) 0.0) in
  let fills = Array.init n (fun i -> Array.make (total i) 0.0) in
  let base = Array.init n (fun i -> Array.make (total i) 0.0) in
  let read = Array.init n (fun i -> Array.make (nslots.(i)) false) in
  let written = Array.init n (fun i -> Array.make (nslots.(i)) false) in
  let unwritten = Array.init n (fun i -> Array.make (nslots.(i)) false) in
  let pad_read = Array.make n false in
  let pad_written = Array.make n false in
  let non_additive = Array.make n false in
  let runs = ref 0 in
  let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  let run_kernel () =
    incr runs;
    Counters.incr Obs.infer_kernel_runs;
    try kernel bufs with
    | Invalid_argument msg -> raise (Probe_stop (Some msg, None))
    | Stack_overflow | Out_of_memory | Sys.Break as e -> raise e
    | e -> raise (Probe_stop (None, Some (Printexc.to_string e)))
  in
  let load fills = Array.iteri (fun i f -> Array.blit f 0 bufs.(i) 0 (total i)) fills in
  (* Read detection: perturb one input slot both ways and compare every
     other slot's output bits against the baseline. *)
  let probe_read ~i ~s =
    let orig = fills.(i).(s) in
    let differs () =
      let d = ref false in
      for j = 0 to n - 1 do
        for t = 0 to total j - 1 do
          if (j <> i || t <> s) && not (same_bits bufs.(j).(t) base.(j).(t)) then
            d := true
        done
      done;
      !d
    in
    let try_delta v =
      load fills;
      bufs.(i).(s) <- v;
      run_kernel ();
      differs ()
    in
    try_delta ((orig *. 1.618) +. 0.511) || try_delta ((orig *. 0.382) -. 0.733)
  in
  let oob = ref None and failed = ref None and probes_done = ref 0 in
  (try
     for probe = 0 to n_probes - 1 do
       (* fill: probe values for readable slots, write sentinels for dead
          slots, zero for Inc (the staging convention), and probe values in
          the canary pad so pad reads are detectable too. *)
       for i = 0 to n - 1 do
         let a = args.(i) in
         for s = 0 to total i - 1 do
           fills.(i).(s) <-
             (if s >= nslots.(i) then write_sentinel ~seed ~probe ~arg:i ~slot:s
              else
                match a.Descr.access with
                | A.Write -> write_sentinel ~seed ~probe ~arg:i ~slot:s
                | A.Inc -> 0.0
                | A.Min -> 1.0e30
                | A.Max -> -1.0e30
                | A.Read | A.Rw ->
                  if is_idx i then idx_value ~probe ~slot:s
                  else probe_value ~seed ~probe ~arg:i ~slot:s)
         done
       done;
       (* baseline + write shadow *)
       load fills;
       run_kernel ();
       Array.iteri (fun i b -> Array.blit b 0 base.(i) 0 (total i)) bufs;
       for i = 0 to n - 1 do
         for s = 0 to nslots.(i) - 1 do
           if not (same_bits base.(i).(s) fills.(i).(s)) then written.(i).(s) <- true
           else if args.(i).Descr.access = A.Write then unwritten.(i).(s) <- true
         done;
         for s = nslots.(i) to total i - 1 do
           if not (same_bits base.(i).(s) fills.(i).(s)) then pad_written.(i) <- true
         done
       done;
       (* read probes: declared slots of value-carrying accesses, and the
          pad tail of every argument *)
       for i = 0 to n - 1 do
         (match args.(i).Descr.access with
         | A.Read | A.Rw | A.Write ->
           for s = 0 to nslots.(i) - 1 do
             if (not read.(i).(s)) && probe_read ~i ~s then read.(i).(s) <- true
           done
         | A.Inc | A.Min | A.Max -> ());
         for s = nslots.(i) to total i - 1 do
           if (not pad_read.(i)) && probe_read ~i ~s then pad_read.(i) <- true
         done
       done;
       (* Inc additivity: seeding the staging must shift the result by
          exactly the seed (within rounding); an overwrite cannot. *)
       if Array.exists (fun (a : Descr.arg) -> a.Descr.access = A.Inc) args then begin
         let seed_of i s = 1.0 +. (0.5 *. Float.of_int ((i * 7) + s)) in
         load fills;
         for i = 0 to n - 1 do
           if args.(i).Descr.access = A.Inc then
             for s = 0 to nslots.(i) - 1 do
               bufs.(i).(s) <- seed_of i s
             done
         done;
         run_kernel ();
         for i = 0 to n - 1 do
           if args.(i).Descr.access = A.Inc then
             for s = 0 to nslots.(i) - 1 do
               let expect = base.(i).(s) +. seed_of i s in
               let got = bufs.(i).(s) in
               if
                 (not (Float.is_nan expect))
                 && (not (Float.is_nan got))
                 && Float.abs (got -. expect)
                    > 1e-6 *. (1.0 +. Float.abs expect +. Float.abs got)
               then non_additive.(i) <- true
             done
         done
       end;
       incr probes_done
     done
   with Probe_stop (o, f) ->
     oob := o;
     failed := f);
  Counters.addf Obs.infer_seconds (Sys.time () -. t0);
  {
    fp_loop = loop.Descr.loop_name;
    fp_args =
      Array.mapi
        (fun i (a : Descr.arg) ->
          {
            af_name = a.Descr.dat_name;
            af_access = a.Descr.access;
            af_slots = nslots.(i);
            af_read = read.(i);
            af_written = written.(i);
            af_unwritten = unwritten.(i);
            af_pad_read = pad_read.(i);
            af_pad_written = pad_written.(i);
            af_non_additive = non_additive.(i);
          })
        args;
    fp_probes = !probes_done;
    fp_runs = !runs;
    fp_oob = !oob;
    fp_failed = !failed;
  }

(* ---- derived facts ---------------------------------------------------- *)

let any = Array.exists (fun b -> b)

(* Error-class observations: accesses the declaration forbids, caught in
   the act.  These are the facts [Verify] turns into definite errors and
   the Check backend refuses to lighten. *)
let arg_violates af =
  af.af_pad_read || af.af_pad_written || af.af_non_additive
  ||
  match af.af_access with
  | A.Read -> any af.af_written
  | A.Write -> any af.af_read || any af.af_unwritten
  | A.Rw | A.Inc | A.Min | A.Max -> false

(* A footprint the downstream consumers may act on: probing completed and
   no argument was caught violating its declaration. *)
let clean fp =
  fp.fp_oob = None && fp.fp_failed = None
  && fp.fp_probes > 0
  && Array.for_all (fun af -> not (arg_violates af)) fp.fp_args

(* Stencil points whose value was observed flowing into the output (any
   component), for mapping back onto the facade's concrete offsets. *)
let points_read af ~dim =
  let points = if dim > 0 then af.af_slots / dim else 0 in
  Array.init points (fun p ->
      let rec comp c = c < dim && (af.af_read.((p * dim) + c) || comp (c + 1)) in
      comp 0)

(* A footprint paired with facade-side facts the analysis layer cannot
   recover from [Descr] alone: the observed Chebyshev read extent per
   argument (computed against the real stencil offsets; -1 where the
   argument has no stencil or the footprint is not clean). *)
type info = { in_loop : Descr.loop; in_foot : t; in_read_ext : int array }

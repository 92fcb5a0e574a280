(* What every workload of the benchmark provides. *)

(* Phases of one fresh library instance, in seconds. *)
type setup = { mesh_s : float; declare_s : float; partition_s : float; first_step_s : float }

let setup_total s = s.mesh_s +. s.declare_s +. s.partition_s +. s.first_step_s

(* A library instance and its reference, always stepped the same number of
   times, so [check] can compare them at any point between steps. *)
type pair = {
  lib_step : unit -> unit;
  ref_step : unit -> unit;
  check : unit -> bool;
  (* The same comparison against a deliberately perturbed copy of the
     reference; true when the check rejects it, as it must. *)
  check_rejects_perturbed : unit -> bool;
}

(* Median self times (microseconds) of the rungs of one loop signature and
   the elements each call visits. *)
type rungs = {
  lib_us : float;
  null_us : float;
  empty_us : float;
  hand_us : float;
  elems : int;
}

(* The per-layer view of a workload.  [round] runs one interleaved round of
   every rung and phase under spans; [home_metrics] reads the layer metrics
   this workload is the home of from the spans; [rep] gives the rungs of the
   workload's representative signature; [traced_step]/[untraced_step] name
   the spans of one library step with and without inner spans. *)
type traced = {
  tpair : pair;
  round : Measure.Span.t -> unit;
  home_metrics : Measure.Span.t -> (string * float) list;
  rep : Measure.Span.t -> rungs;
  traced_step : string;
  untraced_step : string;
}

type t = {
  name : string;
  fresh : unit -> setup;
  pair : seed:int -> pair;
  traced : seed:int -> traced;
}

(* The rungs of a signature from the spans [span rung] names, for rung
   "lib", "null", "empty" and "hand". *)
let rungs sp span ~elems =
  let us rung = Measure.Span.self_us sp (span rung) in
  { lib_us = us "lib"; null_us = us "null"; empty_us = us "empty"; hand_us = us "hand"; elems }

(* Run the actors of a round in an order that rotates from round to round,
   so no rung always follows the same neighbour. *)
let rotate sp actors =
  let n = Array.length actors in
  let k = sp.Measure.Span.cur_step mod n in
  for i = 0 to n - 1 do
    actors.((i + k) mod n) sp
  done;
  Measure.Span.next_step sp

(* [agree ~tol lib reference]: same shape, finite, and within [tol] in
   [Am_util.Fa.rel_discrepancy]. *)
let agree ~tol lib reference =
  Array.length lib = Array.length reference
  && Array.for_all Float.is_finite lib
  && Am_util.Fa.rel_discrepancy lib reference <= tol

(* A copy of [reference] with one value moved by a millionth. *)
let perturbed reference =
  let b = Array.copy reference in
  let i = Array.length b / 2 in
  b.(i) <- (b.(i) *. (1.0 +. 1e-6)) +. 1e-6;
  b

let pair_of ~lib_step ~ref_step ~tol ~lib_state ~ref_state ?(extra = fun () -> true) () =
  {
    lib_step;
    ref_step;
    check = (fun () -> agree ~tol (lib_state ()) (ref_state ()) && extra ());
    check_rejects_perturbed =
      (fun () -> not (agree ~tol (lib_state ()) (perturbed (ref_state ()))));
  }

(* The 2-domain pool of the shared-memory workload, capped at the domain
   count the runtime recommends for this host. *)
let pool_size () = min 2 (Domain.recommended_domain_count ())

let pool = lazy (Am_taskpool.Pool.create ~size:(pool_size ()) ())

let shutdown_pool () = if Lazy.is_val pool then Am_taskpool.Pool.shutdown (Lazy.force pool)

(* Sanitizer backend: the call site's compiled executor, element by element,
   under the guards of [Am_core.Sanitizer].

   Every argument is staged whatever the kernel form, through the
   executor's own gather and scatter closures: the sanitizer decides what
   each staging buffer starts as and checks it after the kernel, this
   module only walks the elements.  An accessor kernel runs its point form
   on base-0 accessors over the canary-padded buffers, built once per call,
   so the pad sits right past each argument's declared components.

   The closures index without bounds checks, which validation covers for
   the arrays and maps the library declared.  Both are exposed records, so
   before any element runs Check proves that every map entry the loop
   loads names an element of its dataset's array and that a direct
   argument's array holds the iteration set ([prove]).  A loop with
   indirect writes then has its call site's plan proved race-free for the
   colourings the parallel backends run ([Plan.validate]).  A clean run
   leaves memory bitwise as [Exec_seq] does. *)

module Access = Am_core.Access
module Acc = Am_core.Acc
module S = Am_core.Sanitizer
open Types

(* Whether an indirect argument before [i] loads through map table
   [values] at [slot] with [arity] into a dataset of at most [n] elements:
   its scan, which passed, proved argument [i]'s entries too. *)
let rec covered (cargs : Exec_common.compiled_arg array) values ~arity ~slot ~n i j =
  j < i
  && ((match cargs.(j) with
      | Exec_common.C_dat { indirect = true; map_values; arity = a; idx; n = m; _ } ->
        map_values == values && a = arity && idx = slot && m <= n
      | Exec_common.C_dat _ | Exec_common.C_gbl _ -> false)
     || covered cargs values ~arity ~slot ~n i (j + 1))

(* Before any element runs, every map entry the loop loads must name an
   element of its dataset, and every direct dataset must hold the
   iteration set.  The proof runs argument by argument and raises at the
   first argument that fails, at its first such element, naming the loop,
   the argument, the element, the map and the dataset.  An argument that
   an earlier one [covered] is not scanned again, so each (map, slot) is
   scanned once when the datasets it reaches agree in size. *)
let prove ~name ~set_size (compiled : Exec_common.compiled) args =
  let cargs = compiled.Exec_common.args in
  List.iteri
    (fun i arg ->
      match (cargs.(i), arg) with
      | ( Exec_common.C_dat { n; map_values; arity; idx; _ },
          Arg_dat { dat; map = Some (m, _); _ } )
        when not (covered cargs map_values ~arity ~slot:idx ~n i 0) ->
        let fail e fmt =
          S.fail ~loop:name ~arg:i ~name:dat.dat_name ~at:(Printf.sprintf "element %d" e) fmt
        in
        let entries = Array.length map_values in
        if entries < set_size * arity then
          fail (entries / arity) "map %s holds %d entries, the loop's %d elements need %d"
            m.map_name entries set_size (set_size * arity);
        for e = 0 to set_size - 1 do
          let t = map_values.((e * arity) + idx) in
          if t < 0 || t >= n then
            fail e "map %s slot %d holds %d, outside the %d elements of dat %s" m.map_name idx t
              n dat.dat_name
        done
      | Exec_common.C_dat { n; _ }, Arg_dat { dat; map = None; _ } ->
        if set_size > n then
          S.fail ~loop:name ~arg:i ~name:dat.dat_name ~at:(Printf.sprintf "element %d" n)
            "dat %s holds %d elements, the loop runs over %d" dat.dat_name n set_size
      | (Exec_common.C_dat _ | Exec_common.C_gbl _), _ -> ())
    args

let guard = function
  | Arg_dat { dat; access; _ } -> S.dat ~name:dat.dat_name ~access ~points:1 ~dim:dat.dim
  | Arg_gbl { name; buf; access } -> S.gbl ~name ~access buf

let run ~handle ~compiled ~name ~set_size ~args ~kernel =
  prove ~name ~set_size compiled args;
  let indirect_write = function
    | Arg_dat { map = Some _; access; _ } -> Access.writes access
    | Arg_dat _ | Arg_gbl _ -> false
  in
  if List.exists indirect_write args then begin
    let plan = Plan.plan handle ~name ~set_size ~block_size:256 args in
    match Plan.validate ~set_size args plan with
    | [] -> ()
    | v :: _ as vs ->
      Am_obs.Counters.add Am_obs.Obs.analysis_plan_violations (List.length vs);
      raise (S.Violation (Plan.violation_to_string ~name v))
  end;
  let c = S.call ~loop:name ~elements:set_size (List.map guard args) in
  let bufs = c.S.bufs in
  let kernel =
    match kernel with
    | Exec_common.Staged k -> fun () -> k bufs
    | Exec_common.Accessor k ->
      let accs = Array.map Acc.of_array bufs in
      fun () -> k.Acc.elem accs
  in
  let gathers =
    Array.map
      (function
        | Exec_common.C_dat { gather; _ } -> gather
        | Exec_common.C_gbl _ -> Exec_common.ignore2)
      compiled.Exec_common.args
  and scatters =
    Array.map
      (function
        | Exec_common.C_dat { scatter; _ } -> scatter
        | Exec_common.C_gbl _ -> Exec_common.ignore2)
      compiled.Exec_common.args
  in
  let e = ref 0 in
  let gather i buf = gathers.(i) buf !e and scatter i buf = scatters.(i) buf !e in
  let at () = Printf.sprintf "element %d" !e in
  for i = 0 to set_size - 1 do
    e := i;
    S.point c ~kernel ~gather ~scatter ~at
  done;
  Exec_common.merge_globals args bufs

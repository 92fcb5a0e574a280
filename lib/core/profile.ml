(* Per-loop execution profile.

   Mirrors OP2/OPS's built-in timing breakdowns (the source of Table I):
   every [par_loop] accumulates wall time, invocation count and an estimate
   of useful bytes moved, keyed by loop name.

   Storage is a per-profile [Am_obs.Counters] registry — one cell per
   field of [entry], keyed by loop name — so the numbers behind the table
   are the same ones the observability layer scrapes into JSON; [entry] is
   a read-only snapshot reconstructed from those cells.  Recording also feeds the process-wide
   loop counters in [Am_obs.Obs]. *)

module Counters = Am_obs.Counters
module Obs = Am_obs.Obs

type entry = {
  mutable count : int;
  mutable seconds : float;
  mutable bytes : int;
  mutable elements : int;
  mutable halo_seconds : float; (* communication time for this loop *)
  mutable gc_minor : int; (* minor collections during this loop (traced runs) *)
  mutable gc_major : int;
  mutable gc_promoted_words : float;
}

(* The registry cells backing one loop name. *)
type cells = {
  cc_count : Counters.counter;
  cc_seconds : Counters.gauge;
  cc_bytes : Counters.counter;
  cc_elements : Counters.counter;
  cc_halo : Counters.gauge;
  cc_seconds_hist : Counters.histogram; (* per-call wall-time distribution *)
  cc_gc_minor : Counters.counter;
  cc_gc_major : Counters.counter;
  cc_gc_promoted : Counters.gauge;
}

type t = { reg : Counters.t; cells : (string, cells) Hashtbl.t }

let create () = { reg = Counters.create (); cells = Hashtbl.create 32 }

let cells t name =
  match Hashtbl.find_opt t.cells name with
  | Some c -> c
  | None ->
    let key suffix = "loop." ^ name ^ "." ^ suffix in
    let c =
      {
        cc_count = Counters.counter t.reg (key "count");
        cc_seconds = Counters.gauge t.reg ~unit_:"s" (key "seconds");
        cc_bytes = Counters.counter t.reg ~unit_:"bytes" (key "bytes");
        cc_elements = Counters.counter t.reg ~unit_:"elements" (key "elements");
        cc_halo = Counters.gauge t.reg ~unit_:"s" (key "halo_seconds");
        cc_seconds_hist = Counters.histogram t.reg ~unit_:"s" (key "seconds_hist");
        cc_gc_minor = Counters.counter t.reg (key "gc_minor");
        cc_gc_major = Counters.counter t.reg (key "gc_major");
        cc_gc_promoted = Counters.gauge t.reg ~unit_:"words" (key "gc_promoted_words");
      }
    in
    Hashtbl.add t.cells name c;
    c

let record t ~name ~seconds ~bytes ~elements =
  let c = cells t name in
  Counters.incr c.cc_count;
  Counters.addf c.cc_seconds seconds;
  Counters.add c.cc_bytes bytes;
  Counters.add c.cc_elements elements;
  Counters.observe c.cc_seconds_hist seconds;
  Counters.observe Obs.loop_seconds seconds;
  Counters.incr Obs.loop_calls;
  Counters.add Obs.loop_bytes bytes;
  Counters.add Obs.loop_elements elements

(* [seconds] is the time the loop spent exchanging and reducing halos. *)
let record_halo t ~name ~seconds =
  let c = cells t name in
  Counters.addf c.cc_halo seconds;
  if seconds > 0.0 then Counters.observe Obs.halo_seconds seconds

(* GC deltas are sampled by the facades around loop execution only while
   span tracing is on ([Gc.quick_stat] is cheap but not free), so these
   cells stay zero on untraced runs. *)
let record_gc t ~name ~minor ~major ~promoted_words =
  let c = cells t name in
  Counters.add c.cc_gc_minor minor;
  Counters.add c.cc_gc_major major;
  Counters.addf c.cc_gc_promoted promoted_words;
  Counters.add Obs.gc_minor minor;
  Counters.add Obs.gc_major major;
  Counters.addf Obs.gc_promoted promoted_words

let snapshot c =
  {
    count = Counters.value c.cc_count;
    seconds = Counters.valuef c.cc_seconds;
    bytes = Counters.value c.cc_bytes;
    elements = Counters.value c.cc_elements;
    halo_seconds = Counters.valuef c.cc_halo;
    gc_minor = Counters.value c.cc_gc_minor;
    gc_major = Counters.value c.cc_gc_major;
    gc_promoted_words = Counters.valuef c.cc_gc_promoted;
  }

let seconds_hist t name =
  Option.map (fun c -> c.cc_seconds_hist) (Hashtbl.find_opt t.cells name)

let find t name = Option.map snapshot (Hashtbl.find_opt t.cells name)

let counters t = t.reg

let reset t =
  Counters.reset t.reg;
  Hashtbl.reset t.cells

let fold_cells t f acc = Hashtbl.fold (fun _ c acc -> f acc c) t.cells acc

let total_seconds t = fold_cells t (fun acc c -> acc +. Counters.valuef c.cc_seconds) 0.0
let total_halo_seconds t = fold_cells t (fun acc c -> acc +. Counters.valuef c.cc_halo) 0.0

(* Entries sorted by descending total time. *)
let to_list t =
  let items = Hashtbl.fold (fun name c acc -> (name, snapshot c) :: acc) t.cells [] in
  List.sort (fun (_, a) (_, b) -> Float.compare b.seconds a.seconds) items

let obs_rows t =
  List.map
    (fun (name, e) ->
      {
        Obs.lr_name = name;
        lr_calls = e.count;
        lr_seconds = e.seconds;
        lr_bytes = e.bytes;
        lr_halo_seconds = e.halo_seconds;
      })
    (to_list t)

let report t =
  let table =
    Am_util.Table.create ~title:"loop profile"
      ~header:[ "loop"; "calls"; "time"; "GB moved"; "GB/s"; "halo time" ]
      ~aligns:[ Am_util.Table.Left; Right; Right; Right; Right; Right ]
      ()
  in
  List.iter
    (fun (name, e) ->
      Am_util.Table.add_row table
        [
          name;
          string_of_int e.count;
          Am_util.Units.seconds e.seconds;
          Printf.sprintf "%.3f" (Float.of_int e.bytes /. 1e9);
          (* An entry touched only by [record_halo] has no compute time or
             bytes; a bandwidth figure would be 0/0, so render "-". *)
          (if e.seconds <= 0.0 || e.bytes = 0 then "-"
           else Printf.sprintf "%.2f" (Am_util.Units.bandwidth_gbs e.bytes e.seconds));
          Am_util.Units.seconds e.halo_seconds;
        ])
    (to_list t);
  Am_util.Table.render table

(* Timing, statistics, seeded inputs and the in-memory span recorder shared
   by every workload of the benchmark. *)

(* Monotonic clock with nanosecond resolution, in seconds since start-up. *)
let origin = Monotonic_clock.now ()
let now () = Int64.to_float (Int64.sub (Monotonic_clock.now ()) origin) *. 1e-9

let time f =
  let t0 = now () in
  f ();
  now () -. t0

let median xs = Am_util.Stats.median (Array.of_list xs)

(* Median over [n] repetitions of a timed call. *)
let median_time n f = median (List.init n (fun _ -> time f))

(* Deterministic value in [-1, 1] for a seed and a point: the same seed gives
   the same field whatever order the library or the reference visits its
   points in, so both sides start from identical perturbed inputs. *)
let noise ~seed a b c =
  let h = ref ((seed * 0x9E3779B1) + (a * 0x85EBCA77) + (b * 0xC2B2AE3D) + (c * 0x27D4EB2F)) in
  for _ = 1 to 3 do
    h := !h lxor (!h lsr 29);
    h := !h * 0xBF58476D1CE4E5B;
    h := !h lxor (!h lsr 32)
  done;
  (Float.of_int (!h land 0xFFFFFF) /. 8388607.5) -. 1.0

(* Words allocated by every domain of the process.  Minor collections stop
   all domains in OCaml 5, so forcing one on both sides of the window makes
   the aggregated [quick_stat] count the worker domains' allocation too. *)
let minor_words_all () =
  Gc.minor ();
  (Gc.quick_stat ()).Gc.minor_words

(* Megawords allocated per call of [f], over [n] calls. *)
let alloc_mw n f =
  let w0 = minor_words_all () in
  for _ = 1 to n do
    f ()
  done;
  (minor_words_all () -. w0) /. Float.of_int n /. 1e6

(* Spans: name, start, end, parent span and step id, kept in growable
   arrays and written out when the run ends.  A span's self time is its
   duration minus the time covered by its direct children. *)
module Span = struct
  type t = {
    mutable n : int;
    mutable name : string array;
    mutable start : float array;
    mutable stop : float array;
    mutable parent : int array;
    mutable step : int array;
    mutable child : float array;
    mutable open_ : int; (* innermost open span, -1 at top level *)
    mutable cur_step : int;
  }

  let create () =
    let cap = 4096 in
    {
      n = 0;
      name = Array.make cap "";
      start = Array.make cap 0.0;
      stop = Array.make cap 0.0;
      parent = Array.make cap (-1);
      step = Array.make cap 0;
      child = Array.make cap 0.0;
      open_ = -1;
      cur_step = 0;
    }

  let grow t =
    let cap = 2 * Array.length t.name in
    let ext a d = Array.append a (Array.make (cap - Array.length a) d) in
    t.name <- ext t.name "";
    t.start <- ext t.start 0.0;
    t.stop <- ext t.stop 0.0;
    t.parent <- ext t.parent (-1);
    t.step <- ext t.step 0;
    t.child <- ext t.child 0.0

  let next_step t = t.cur_step <- t.cur_step + 1

  (* Record one span around [f ()]. *)
  let span t name f =
    if t.n = Array.length t.name then grow t;
    let i = t.n in
    t.n <- i + 1;
    t.name.(i) <- name;
    t.parent.(i) <- t.open_;
    t.step.(i) <- t.cur_step;
    t.child.(i) <- 0.0;
    t.open_ <- i;
    t.start.(i) <- now ();
    let r = f () in
    let stop = now () in
    t.stop.(i) <- stop;
    t.open_ <- t.parent.(i);
    if t.parent.(i) >= 0 then
      t.child.(t.parent.(i)) <- t.child.(t.parent.(i)) +. (stop -. t.start.(i));
    r

  let fold t f init =
    let acc = ref init in
    for i = 0 to t.n - 1 do
      acc := f !acc i
    done;
    !acc

  (* Self times of every span with this name, in seconds. *)
  let self_times t name =
    fold t
      (fun acc i ->
        if t.name.(i) = name then (t.stop.(i) -. t.start.(i) -. t.child.(i)) :: acc else acc)
      []

  let durations t name =
    fold t (fun acc i -> if t.name.(i) = name then (t.stop.(i) -. t.start.(i)) :: acc else acc) []

  (* Median self time of a span name in microseconds. *)
  let self_us t name =
    match self_times t name with
    | [] -> invalid_arg ("Span.self_us: no span named " ^ name)
    | xs -> median xs *. 1e6

  let duration_median t name =
    match durations t name with
    | [] -> invalid_arg ("Span.duration_median: no span named " ^ name)
    | xs -> median xs

  (* One JSON object per line: name, start and end (seconds from the first
     span), parent index, step id and self time. *)
  let write t path =
    let oc = open_out path in
    let t0 = if t.n > 0 then t.start.(0) else 0.0 in
    for i = 0 to t.n - 1 do
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"start\":%.9f,\"end\":%.9f,\"parent\":%d,\"step\":%d,\"self\":%.9f}\n"
        i t.name.(i) (t.start.(i) -. t0) (t.stop.(i) -. t0) t.parent.(i) t.step.(i)
        (t.stop.(i) -. t.start.(i) -. t.child.(i))
    done;
    close_out oc
end

(* Skewed tile planner for lazy loop chains (the paper's run-time tiling:
   "Loop Tiling in Large-Scale Stencil Codes at Run-time with OPS").

   A flushed chain is a sequence of parallel loops over ranges of one
   shared index space.  Executing the chain loop-by-loop streams every
   dataset through memory once per loop; executing it tile-by-tile — a
   slab of loop 0, then a slab of loop 1, ... then the next slab of loop 0
   — keeps each slab's working set in cache across the whole chain.  The
   price is legality: a loop reading a neighbour of a row another loop
   writes must stay *behind* its producer (and ahead of a later
   overwriter) by the stencil extent.

   The planner is dimension-agnostic: the loop pipeline projects each
   recorded loop onto its block's outermost (slowest-varying) axis — y in
   2D, z in 3D, x in 1D — as a half-open interval plus per-dataset read extents, and get
   back per-loop skew offsets and a tile-by-tile slab schedule.  Tiling
   only the outer axis is the natural choice here: writes are centre-only
   (validated), so any outer-axis partition of a single loop is race-free,
   and inner axes are contiguous in memory — an outer slab *is* the cache
   block.

   Skew rule.  Number the loops 0..n-1 in chain order and give loop k a
   skew sigma_k >= 0; in tile t (of size T over a global origin [base]),
   loop k executes rows [done_k, min(hi_k, base + (t+1)*T - sigma_k)).
   Within a tile loops run in chain order, and a larger sigma means
   "further behind".  sigma_0 = 0 and, for j > i sharing a dataset d:

   - flow (i writes d, j reads d up to [above_j] rows ahead):
       sigma_j >= sigma_i + above_j
     so every row j's stencil reaches has already been written;
   - anti (i reads d down to [below_i] rows behind, j overwrites d):
       sigma_j >= sigma_i + below_i
     so j never overwrites a row i still has to read;
   - output (both write d): sigma_j >= sigma_i, which chain order inside
     a tile upgrades to "i's slab runs first" — rows land in chain order.

   Monotone sigma (sigma_j >= sigma_{j-1}) keeps every earlier frontier
   ahead of every later one, which also covers downward reads: a row read
   [below] rows behind the iteration point was produced in this or an
   earlier tile.  [validate] re-proves all of this at row granularity by
   replaying the schedule against per-loop frontiers, and runs on every
   cache miss — the same philosophy as the OP2 plan validator. *)

(* Projection of one recorded loop onto the tiled axis. *)
type loop_info = {
  li_lo : int; (* half-open iteration interval on the outer axis *)
  li_hi : int;
  li_reads : (int * int * int) list;
      (* dataset id, below-extent (rows read behind the iteration point,
         >= 0), above-extent (rows read ahead, >= 0) *)
  li_writes : int list; (* dataset ids written (centre-only by validation) *)
}

(* One slab: rows [s_lo, s_hi) of chain entry [s_loop]. *)
type slab = { s_loop : int; s_lo : int; s_hi : int }

type schedule = {
  sched_tile : int;
  sched_sigma : int array;
  sched_tiles : slab array array; (* sched_tiles.(t) = slabs in chain order *)
}

exception Invalid_schedule of string

let n_slabs sched =
  Array.fold_left (fun acc slabs -> acc + Array.length slabs) 0 sched.sched_tiles

(* ---- Skew computation ------------------------------------------------- *)

let skew loops =
  let n = Array.length loops in
  let sigma = Array.make n 0 in
  for j = 1 to n - 1 do
    sigma.(j) <- sigma.(j - 1);
    for i = 0 to j - 1 do
      let req = ref (-1) in
      let need k = if k > !req then req := k in
      (* flow: i writes d, j reads d up to [above] rows ahead *)
      List.iter
        (fun (d, _below, above) ->
          if List.mem d loops.(i).li_writes then need above)
        loops.(j).li_reads;
      (* anti: i reads d down to [below] rows behind, j overwrites d *)
      List.iter
        (fun d ->
          List.iter
            (fun (d', below, _above) -> if d = d' then need below)
            loops.(i).li_reads)
        loops.(j).li_writes;
      (* output: both write d *)
      List.iter
        (fun d -> if List.mem d loops.(i).li_writes then need 0)
        loops.(j).li_writes;
      if !req >= 0 && sigma.(i) + !req > sigma.(j) then sigma.(j) <- sigma.(i) + !req
    done
  done;
  sigma

(* ---- Planning ---------------------------------------------------------- *)

let plan ~tile_size loops =
  if tile_size <= 0 then invalid_arg "Tiling.plan: tile size must be positive";
  let n = Array.length loops in
  if n = 0 then { sched_tile = tile_size; sched_sigma = [||]; sched_tiles = [||] }
  else begin
    let sigma = skew loops in
    let base = Array.fold_left (fun a l -> min a l.li_lo) max_int loops in
    let top = ref min_int in
    Array.iteri
      (fun k l -> if l.li_hi + sigma.(k) > !top then top := l.li_hi + sigma.(k))
      loops;
    let span = max 1 (!top - base) in
    let ntiles = (span + tile_size - 1) / tile_size in
    (* done_.(k): the next unexecuted row of loop k. *)
    let done_ = Array.map (fun l -> l.li_lo) loops in
    let tiles =
      Array.init ntiles (fun t ->
          let front = base + ((t + 1) * tile_size) in
          let slabs = ref [] in
          for k = 0 to n - 1 do
            let target = min loops.(k).li_hi (front - sigma.(k)) in
            if target > done_.(k) then begin
              slabs := { s_loop = k; s_lo = done_.(k); s_hi = target } :: !slabs;
              done_.(k) <- target
            end
          done;
          Array.of_list (List.rev !slabs))
    in
    { sched_tile = tile_size; sched_sigma = sigma; sched_tiles = tiles }
  end

(* ---- Validation --------------------------------------------------------- *)

(* Replay the schedule against per-loop row frontiers and check, for every
   slab, every dependence at row granularity.  Returns the violations (an
   empty list proves the schedule legal for any kernel honouring the
   declared descriptors).  Notation per slab (k, [lo, hi)): loop i has
   executed rows [li_lo_i, done_i). *)
let validate loops sched =
  let n = Array.length loops in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let done_ = Array.map (fun l -> l.li_lo) loops in
  (* "loop i has executed every row < bound it will ever execute" *)
  let reached i bound = done_.(i) >= min loops.(i).li_hi bound in
  (* rows loop i has written so far: [li_lo_i, done_i) *)
  let written_overlaps i ~lo ~hi =
    min done_.(i) hi > max loops.(i).li_lo lo
  in
  (* rows loop i's reads of (below, above) have touched so far:
     [li_lo_i - below, done_i - 1 + above] when anything has executed *)
  let read_overlaps i ~below ~above ~lo ~hi =
    done_.(i) > loops.(i).li_lo
    && min (done_.(i) + above) hi > max (loops.(i).li_lo - below) lo
  in
  Array.iteri
    (fun t slabs ->
      Array.iter
        (fun { s_loop = k; s_lo = lo; s_hi = hi } ->
          if k < 0 || k >= n then err "tile %d: slab for loop %d outside the chain" t k
          else begin
            let l = loops.(k) in
            if lo <> done_.(k) then
              err "tile %d loop %d: slab starts at %d but the frontier is %d" t k lo
                done_.(k);
            if hi <= lo || hi > l.li_hi then
              err "tile %d loop %d: slab [%d,%d) outside [%d,%d)" t k lo hi l.li_lo
                l.li_hi;
            (* the slab's reads: rows [lo - below, hi - 1 + above] of d *)
            List.iter
              (fun (d, below, above) ->
                for i = 0 to k - 1 do
                  if List.mem d loops.(i).li_writes && not (reached i (hi + above))
                  then
                    err
                      "tile %d loop %d: reads dataset %d to row %d but producer \
                       loop %d has only reached %d"
                      t k d (hi - 1 + above) i done_.(i)
                done;
                for i = k + 1 to n - 1 do
                  if List.mem d loops.(i).li_writes
                     && written_overlaps i ~lo:(lo - below) ~hi:(hi + above)
                  then
                    err
                      "tile %d loop %d: reads rows [%d,%d) of dataset %d already \
                       overwritten by later loop %d"
                      t k (lo - below) (hi + above) d i
                done)
              l.li_reads;
            (* the slab's writes: rows [lo, hi) of d *)
            List.iter
              (fun d ->
                for i = 0 to k - 1 do
                  List.iter
                    (fun (d', below, _above) ->
                      if d = d' && not (reached i (hi + below)) then
                        err
                          "tile %d loop %d: overwrites dataset %d rows [%d,%d) \
                           still unread by earlier loop %d (frontier %d)"
                          t k d lo hi i done_.(i))
                    loops.(i).li_reads;
                  if List.mem d loops.(i).li_writes && not (reached i hi) then
                    err
                      "tile %d loop %d: writes dataset %d rows [%d,%d) before \
                       earlier writer loop %d (frontier %d)"
                      t k d lo hi i done_.(i)
                done;
                for i = k + 1 to n - 1 do
                  List.iter
                    (fun (d', below, above) ->
                      if d = d' && read_overlaps i ~below ~above ~lo ~hi then
                        err
                          "tile %d loop %d: writes dataset %d rows [%d,%d) \
                           already read by later loop %d"
                          t k d lo hi i)
                    loops.(i).li_reads;
                  if List.mem d loops.(i).li_writes && written_overlaps i ~lo ~hi
                  then
                    err
                      "tile %d loop %d: writes dataset %d rows [%d,%d) after \
                       later writer loop %d"
                      t k d lo hi i
                done)
              l.li_writes;
            done_.(k) <- max done_.(k) hi
          end)
        slabs)
    sched.sched_tiles;
  Array.iteri
    (fun k l ->
      if l.li_hi > l.li_lo && done_.(k) < l.li_hi then
        err "loop %d: rows [%d,%d) never executed" k done_.(k) l.li_hi)
    loops;
  List.rev !errors

(* ---- Signature and schedule cache -------------------------------------- *)

(* Chain signature: everything the planner looks at, so equal signatures
   guarantee an identical schedule.  Dataset ids are stable for a context's
   lifetime, which is what makes repeated solver steps hit. *)
let signature ~tile_size loops =
  let b = Buffer.create 256 in
  Buffer.add_string b (string_of_int tile_size);
  Array.iter
    (fun l ->
      Buffer.add_char b '|';
      Buffer.add_string b (string_of_int l.li_lo);
      Buffer.add_char b ':';
      Buffer.add_string b (string_of_int l.li_hi);
      List.iter
        (fun (d, below, above) ->
          Printf.bprintf b ";r%d,%d,%d" d below above)
        l.li_reads;
      List.iter (fun d -> Printf.bprintf b ";w%d" d) l.li_writes)
    loops;
  Buffer.contents b

(* Process-wide schedule cache, keyed by chain signature — the same
   philosophy as the OP2 plan cache: solver steps repeat the same chains,
   so after the first flush the planner and validator cost nothing. *)
let cache : (string, schedule) Hashtbl.t = Hashtbl.create 64

let clear_cache () = Hashtbl.reset cache

let find ~tile_size loops =
  let key = signature ~tile_size loops in
  match Hashtbl.find_opt cache key with
  | Some s ->
    Am_obs.Counters.incr Am_obs.Obs.tile_hits;
    s
  | None ->
    Am_obs.Counters.incr Am_obs.Obs.tile_misses;
    let s =
      Am_obs.Obs.span ~cat:Am_obs.Tracer.Plan "tile_plan" (fun () ->
          plan ~tile_size loops)
    in
    (* Total skew is the per-chain price of the declared (or, with footprint
       inference, the observed) dependence distances — the counter makes
       descriptor tightening measurable in bench output.  Bumped here, not
       in [plan]: a cache hit replays the same schedule and must not count
       its skew again. *)
    Array.iter
      (fun sg -> Am_obs.Counters.add Am_obs.Obs.tile_skew_rows sg)
      s.sched_sigma;
    (match validate loops s with
    | [] -> ()
    | e :: _ -> raise (Invalid_schedule e));
    Hashtbl.add cache key s;
    s

(* Wavefront executor for skewed tile schedules (the parallel half of the
   paper's run-time tiling: independent tiles of the skewed schedule run
   concurrently on the domain pool).

   A 1D skewed schedule is a pipeline — tile t+1 of a chain reads rows
   tile t wrote — so parallelism needs a second tiled axis.  The loop
   pipeline projects every recorded loop onto TWO axes (outer and inner,
   e.g. y and x in 2D) and both projections are skewed independently with the same
   [Tiling.skew] rule.  A parallelogram tile (t, u) of loop k is the cross
   product of k's outer band in outer-tile t and its inner band in
   inner-tile u; within a tile, loops run in chain order.

   Dependence direction.  The outer skew constraints guarantee that every
   row a slab of outer-tile t touches (reads, stencil-extended reads, or
   overwrites) was produced in outer-tiles <= t; the inner skew guarantees
   the same per column.  The decomposition is a product — a point's outer
   tile depends only on its outer coordinate — so every inter-tile
   dependence flows from (t', u') to (t, u) with t' <= t AND u' <= u.
   Hence the wavefront index w = t + u strictly orders every dependence
   that crosses tiles: two distinct tiles on the same diagonal satisfy
   t1 < t2 and u1 > u2, which no dependence direction can connect, so all
   tiles of a wavefront are independent and run concurrently; wavefronts
   execute in ascending order with a barrier between them.

   Axis collapse.  When an axis carries no inter-loop dependence at all
   (every read extent between a writer/reader pair is zero on that axis,
   which also forces all its skews to zero, so every loop's bands align),
   the axis contributes nothing to the wavefront index: tiles differing
   only along a dependence-free axis land in the same wave.  A pure map
   chain collapses both axes into one all-parallel wave; a 1D block
   passes its degenerate (dependence-free) y as the inner axis and still gets
   parallelism whenever its one real axis is dependence-free.

   [verify] re-proves all of this from the schedule alone (see below) and
   runs on every cache miss; a forged schedule is rejected with a named
   loop/tile witness before any kernel runs. *)

module Counters = Am_obs.Counters
module Obs = Am_obs.Obs
module Pool = Am_taskpool.Pool

(* One parallelogram slab: loop [ps_loop] over outer rows
   [ps_olo, ps_ohi) x inner columns [ps_ilo, ps_ihi). *)
type pslab = {
  ps_loop : int;
  ps_olo : int;
  ps_ohi : int;
  ps_ilo : int;
  ps_ihi : int;
}

(* One parallelogram tile: its slabs in chain order.  [pt_id] is the
   tile's rank in the (outer, inner) lexicographic enumeration — the
   deterministic order per-tile reduction partials merge in, independent
   of pool size and worker scheduling. *)
type ptile = {
  pt_id : int;
  pt_outer : int;
  pt_inner : int;
  pt_slabs : pslab array;
}

type schedule = {
  par_tile : int;
  par_sigma : int array; (* outer-axis skew per loop *)
  par_tau : int array; (* inner-axis skew per loop *)
  par_outer_free : bool; (* axis carries no inter-loop dependence *)
  par_inner_free : bool;
  par_waves : ptile array array; (* waves in execution order *)
}

let n_tiles sched =
  Array.fold_left (fun acc w -> acc + Array.length w) 0 sched.par_waves

let n_waves sched = Array.length sched.par_waves

(* ---- Axis analysis ------------------------------------------------------ *)

(* An axis is dependence-free when no loop's read with a non-zero extent
   on this axis touches a dataset any other loop writes: then [Tiling.skew]
   assigns zero everywhere, every loop's tile bands align over the shared
   base, and (writes being centre-only) same-band slabs of different loops
   touch disjoint… identical aligned bands, never a neighbouring tile's. *)
let axis_free loops =
  let n = Array.length loops in
  let free = ref true in
  for j = 0 to n - 1 do
    List.iter
      (fun (d, below, above) ->
        if below <> 0 || above <> 0 then
          for i = 0 to n - 1 do
            if i <> j && List.mem d loops.(i).Tiling.li_writes then free := false
          done)
      loops.(j).Tiling.li_reads
  done;
  !free

(* ---- Planning ----------------------------------------------------------- *)

(* Per-axis sub-schedules come from the sequential planner; the product
   tiles inherit their bands.  [plan] is pure construction — [find] runs
   [verify] on every cache miss. *)
let plan ~tile_size ~outer ~inner =
  let n = Array.length outer in
  if Array.length inner <> n then
    invalid_arg "Tiling_par.plan: outer/inner projections differ in length";
  let osched = Tiling.plan ~tile_size outer in
  let isched = Tiling.plan ~tile_size inner in
  let outer_free = axis_free outer in
  let inner_free = axis_free inner in
  (* slab of loop k in axis-tile t, if any *)
  let index sched =
    Array.map
      (fun slabs ->
        let per_loop = Array.make n None in
        Array.iter
          (fun s -> per_loop.(s.Tiling.s_loop) <- Some (s.Tiling.s_lo, s.Tiling.s_hi))
          slabs;
        per_loop)
      sched.Tiling.sched_tiles
  in
  let obands = index osched and ibands = index isched in
  let nt = Array.length obands and nu = Array.length ibands in
  let max_w =
    (if outer_free then 0 else max 0 (nt - 1))
    + if inner_free then 0 else max 0 (nu - 1)
  in
  let buckets = Array.make (max_w + 1) [] in
  let next_id = ref 0 in
  for t = 0 to nt - 1 do
    for u = 0 to nu - 1 do
      let slabs = ref [] in
      for k = n - 1 downto 0 do
        match (obands.(t).(k), ibands.(u).(k)) with
        | Some (olo, ohi), Some (ilo, ihi) ->
          slabs :=
            { ps_loop = k; ps_olo = olo; ps_ohi = ohi; ps_ilo = ilo; ps_ihi = ihi }
            :: !slabs
        | _ -> ()
      done;
      if !slabs <> [] then begin
        let w =
          (if outer_free then 0 else t) + if inner_free then 0 else u
        in
        let pt =
          { pt_id = !next_id; pt_outer = t; pt_inner = u;
            pt_slabs = Array.of_list !slabs }
        in
        incr next_id;
        buckets.(w) <- pt :: buckets.(w)
      end
    done
  done;
  let waves =
    Array.of_list
      (List.filter_map
         (fun l ->
           match List.rev l with [] -> None | l -> Some (Array.of_list l))
         (Array.to_list buckets))
  in
  {
    par_tile = tile_size;
    par_sigma = osched.Tiling.sched_sigma;
    par_tau = isched.Tiling.sched_sigma;
    par_outer_free = outer_free;
    par_inner_free = inner_free;
    par_waves = waves;
  }

(* ---- Verification ------------------------------------------------------- *)

(* Re-prove the schedule safe from the schedule alone, independent of how
   it was constructed:

   1. per-tile sanity — slabs in strict chain order with bands inside
      each loop's declared ranges;
   2. the explicit same-wave overlap check — for every pair of tiles in a
      wave, no slab's write rectangle intersects another tile's (stencil-
      extended) read or write rectangle.  A direct data dependence between
      two tiles IS such an intersection, so any forged wave containing a
      dependence is rejected here with the offending loops and tiles;
   3. cross-wave ordering — fixing an inner tile index and flattening the
      waves in execution order yields an outer-axis slab sequence that
      must replay cleanly through [Tiling.validate] (and symmetrically per
      outer index for the inner axis): a tile scheduled before a
      same-band tile it depends on breaks the replayed frontier;
   4. coverage — every loop's slab areas sum to its full iteration
      rectangle, so work cannot be dropped to dodge the other checks.

   Checks 2+3 compose: a dependence between tiles A and B is caught
   pairwise if they share a wave, and by an axis replay otherwise (the
   per-band precedences chain transitively across the product). *)
let verify ~outer ~inner sched =
  let n = Array.length outer in
  let bad fmt = Printf.ksprintf (fun s -> raise (Tiling.Invalid_schedule s)) fmt in
  (* -- 1: tile-local sanity -- *)
  Array.iteri
    (fun w wave ->
      Array.iter
        (fun pt ->
          let last = ref (-1) in
          Array.iter
            (fun s ->
              if s.ps_loop <= !last || s.ps_loop >= n then
                bad "wave %d tile %d: slab for loop %d out of chain order" w
                  pt.pt_id s.ps_loop;
              last := s.ps_loop;
              let o = outer.(s.ps_loop) and i = inner.(s.ps_loop) in
              if
                s.ps_olo >= s.ps_ohi || s.ps_olo < o.Tiling.li_lo
                || s.ps_ohi > o.Tiling.li_hi || s.ps_ilo >= s.ps_ihi
                || s.ps_ilo < i.Tiling.li_lo || s.ps_ihi > i.Tiling.li_hi
              then
                bad
                  "wave %d tile %d: loop %d slab [%d,%d)x[%d,%d) outside its \
                   range [%d,%d)x[%d,%d)"
                  w pt.pt_id s.ps_loop s.ps_olo s.ps_ohi s.ps_ilo s.ps_ihi
                  o.Tiling.li_lo o.Tiling.li_hi i.Tiling.li_lo i.Tiling.li_hi)
            pt.pt_slabs)
        wave)
    sched.par_waves;
  (* Inner extents are looked up per (loop, dataset): the pipeline builds
     both projections from the same argument list, so pairing by dataset
     id (taking the widest if a dataset appears twice) is exact. *)
  let inner_ext k d =
    List.fold_left
      (fun (b, a) (d', b', a') -> if d = d' then (max b b', max a a') else (b, a))
      (0, 0) inner.(k).Tiling.li_reads
  in
  (* -- 2: same-wave pairwise overlap -- *)
  let overlap alo ahi blo bhi = min ahi bhi > max alo blo in
  let slab_conflict w ta a tb b =
    (* does a slab of tile [ta] write a rectangle slab [b] of tile [tb]
       touches? *)
    List.iter
      (fun d ->
        if List.mem d outer.(b.ps_loop).Tiling.li_writes
           && overlap a.ps_olo a.ps_ohi b.ps_olo b.ps_ohi
           && overlap a.ps_ilo a.ps_ihi b.ps_ilo b.ps_ihi
        then
          bad
            "wave %d: tile %d loop %d and tile %d loop %d both write dataset \
             %d on overlapping rectangles [%d,%d)x[%d,%d) and [%d,%d)x[%d,%d)"
            w ta a.ps_loop tb b.ps_loop d a.ps_olo a.ps_ohi a.ps_ilo a.ps_ihi
            b.ps_olo b.ps_ohi b.ps_ilo b.ps_ihi;
        List.iter
          (fun (d', ob, oa) ->
            if d = d' then begin
              let ib, ia = inner_ext b.ps_loop d in
              if
                overlap a.ps_olo a.ps_ohi (b.ps_olo - ob) (b.ps_ohi + oa)
                && overlap a.ps_ilo a.ps_ihi (b.ps_ilo - ib) (b.ps_ihi + ia)
              then
                bad
                  "wave %d: tile %d loop %d writes dataset %d rows [%d,%d) \
                   cols [%d,%d), overlapping the stencil-extended read of \
                   tile %d loop %d ([%d,%d)x[%d,%d))"
                  w ta a.ps_loop d a.ps_olo a.ps_ohi a.ps_ilo a.ps_ihi tb
                  b.ps_loop (b.ps_olo - ob) (b.ps_ohi + oa) (b.ps_ilo - ib)
                  (b.ps_ihi + ia)
            end)
          outer.(b.ps_loop).Tiling.li_reads)
      outer.(a.ps_loop).Tiling.li_writes
  in
  let max_below, max_above =
    Array.fold_left
      (fun (mb, ma) l ->
        List.fold_left
          (fun (mb, ma) (_, b, a) -> (max mb b, max ma a))
          (mb, ma) l.Tiling.li_reads)
      (0, 0)
      (Array.append outer inner)
  in
  let bbox pt =
    Array.fold_left
      (fun (olo, ohi, ilo, ihi) s ->
        (min olo s.ps_olo, max ohi s.ps_ohi, min ilo s.ps_ilo, max ihi s.ps_ihi))
      (max_int, min_int, max_int, min_int)
      pt.pt_slabs
  in
  Array.iteri
    (fun w wave ->
      let boxes = Array.map bbox wave in
      Array.iteri
        (fun x a ->
          for y = x + 1 to Array.length wave - 1 do
            let b = wave.(y) in
            let aolo, aohi, ailo, aihi = boxes.(x) in
            let bolo, bohi, bilo, bihi = boxes.(y) in
            (* bounding-box prefilter: distant diagonal tiles can't
               conflict, so the pairwise scan stays near-linear *)
            if
              overlap (aolo - max_below) (aohi + max_above) bolo bohi
              && overlap (ailo - max_below) (aihi + max_above) bilo bihi
            then
              Array.iter
                (fun sa ->
                  Array.iter
                    (fun sb ->
                      slab_conflict w a.pt_id sa b.pt_id sb;
                      slab_conflict w b.pt_id sb a.pt_id sa)
                    b.pt_slabs)
                a.pt_slabs
          done)
        wave)
    sched.par_waves;
  (* -- 3: per-band axis replays -- *)
  let flat = Array.concat (Array.to_list sched.par_waves) in
  let band_replay ~axis_loops ~band_of ~nbands ~slab_of ~axis_name =
    for band = 0 to nbands - 1 do
      let tiles =
        Array.of_list
          (List.filter_map
             (fun pt ->
               if band_of pt = band then Some (Array.map slab_of pt.pt_slabs)
               else None)
             (Array.to_list flat))
      in
      let present = Array.make n false in
      Array.iter
        (Array.iter (fun s -> present.(s.Tiling.s_loop) <- true))
        tiles;
      (* a loop with no slab in this band legitimately has no work here:
         mask it empty so the replay neither requires nor relates it *)
      let loops =
        Array.mapi
          (fun k l ->
            if present.(k) then l else { l with Tiling.li_hi = l.Tiling.li_lo })
          axis_loops
      in
      match
        Tiling.validate loops
          {
            Tiling.sched_tile = sched.par_tile;
            sched_sigma = [||];
            sched_tiles = tiles;
          }
      with
      | [] -> ()
      | e :: _ -> bad "%s axis, band %d: %s" axis_name band e
    done
  in
  let nbands f =
    Array.fold_left (fun m pt -> max m (f pt + 1)) 0 flat
  in
  band_replay ~axis_loops:outer
    ~band_of:(fun pt -> pt.pt_inner)
    ~nbands:(nbands (fun pt -> pt.pt_inner))
    ~slab_of:(fun s -> { Tiling.s_loop = s.ps_loop; s_lo = s.ps_olo; s_hi = s.ps_ohi })
    ~axis_name:"outer";
  band_replay ~axis_loops:inner
    ~band_of:(fun pt -> pt.pt_outer)
    ~nbands:(nbands (fun pt -> pt.pt_outer))
    ~slab_of:(fun s -> { Tiling.s_loop = s.ps_loop; s_lo = s.ps_ilo; s_hi = s.ps_ihi })
    ~axis_name:"inner";
  (* -- 4: coverage -- *)
  let area = Array.make n 0 in
  Array.iter
    (fun pt ->
      Array.iter
        (fun s ->
          area.(s.ps_loop) <-
            area.(s.ps_loop) + ((s.ps_ohi - s.ps_olo) * (s.ps_ihi - s.ps_ilo)))
        pt.pt_slabs)
    flat;
  Array.iteri
    (fun k _ ->
      let o = outer.(k) and i = inner.(k) in
      let want =
        max 0 (o.Tiling.li_hi - o.Tiling.li_lo)
        * max 0 (i.Tiling.li_hi - i.Tiling.li_lo)
      in
      if area.(k) <> want then
        bad "loop %d: slabs cover %d of %d iteration points" k area.(k) want)
    outer

(* ---- Signature and schedule cache --------------------------------------- *)

let signature ~tile_size ~outer ~inner =
  Tiling.signature ~tile_size outer ^ "#" ^ Tiling.signature ~tile_size inner

let cache : (string, schedule) Hashtbl.t = Hashtbl.create 64

let clear_cache () = Hashtbl.reset cache

(* Test hook: the next [find] returns this schedule verbatim — no
   planning, no [verify], no cache.  Exists so the suite can prove the
   Check backend's cross-tile claim tracking catches races the verifier
   would have rejected (defense in depth behind the planner). *)
let injected : schedule option ref = ref None
let inject_next_schedule s = injected := Some s

let find ~tile_size ~outer ~inner =
  match !injected with
  | Some s ->
    injected := None;
    s
  | None -> (
    let key = signature ~tile_size ~outer ~inner in
    match Hashtbl.find_opt cache key with
    | Some s ->
      Counters.incr Obs.tile_hits;
      s
    | None ->
      Counters.incr Obs.tile_misses;
      let s =
        Obs.span ~cat:Am_obs.Tracer.Plan "tile_par_plan" (fun () ->
            let s = plan ~tile_size ~outer ~inner in
            verify ~outer ~inner s;
            s)
      in
      Array.iter (fun sg -> Counters.add Obs.tile_skew_rows sg) s.par_sigma;
      Array.iter (fun sg -> Counters.add Obs.tile_skew_rows sg) s.par_tau;
      Hashtbl.add cache key s;
      s)

(* ---- Wavefront runner ---------------------------------------------------- *)

(* Dispatch each wave's tiles onto the pool (chunk 1: tiles self-schedule
   individually) with a barrier between waves.  [local] creates a
   worker-local state per participating member per wave; [tile] executes
   one parallelogram tile.  Returns every state created, for caller-side
   merging of per-worker telemetry — determinism-critical reduction
   partials must instead live in per-tile slots keyed by [pt_id] (worker
   <-> tile assignment is scheduling-dependent; tile ids are not).
   Counters and spans are touched only on the calling domain: the Obs
   registry is not synchronised. *)
let run pool sched ~local ~tile =
  Counters.add Obs.tile_wavefronts (Array.length sched.par_waves);
  let states = ref [] in
  Array.iteri
    (fun w wave ->
      let ntiles = Array.length wave in
      Counters.add Obs.tile_par_slabs
        (Array.fold_left (fun a pt -> a + Array.length pt.pt_slabs) 0 wave);
      Obs.span ~cat:Am_obs.Tracer.Loop
        ~args:
          [ ("wave", float_of_int w); ("tiles", float_of_int ntiles) ]
        "tile_wave"
        (fun () ->
          let sts =
            Pool.parallel_for_local ~chunk:1 pool ~lo:0 ~hi:ntiles ~local
              ~body:(fun st lo hi ->
                for i = lo to hi - 1 do
                  tile st wave.(i)
                done)
          in
          states := List.rev_append sts !states))
    sched.par_waves;
  !states

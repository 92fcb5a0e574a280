(* Distributed-memory backend of OPS: one Cartesian decomposition for
   blocks of every rank.

   A decomposition is a rank count per axis over a reference index space:
   a 2D block's rows are (1, n, 1) and its process grid (px, py, 1), a 1D
   block's cells (n, 1, 1), a 3D block's z-slabs (1, 1, n) and its pencils
   (1, py, pz) — the production OPS decomposes structured blocks in every
   dimension (the paper's CloverLeaf runs on Titan use px x py process
   grids), while pencils keep the unit-stride x axis whole.  Each split
   axis of the reference space is cut into contiguous chunks, and rank r
   sits at (rx, ry, rz), x fastest.

   Each dataset is scattered into per-rank windows: the owned box, in which
   edge ranks absorb the global ghost cells and the extra planes of
   staggered datasets (e.g. a CloverLeaf y-velocity with ysize+1 rows),
   plus a ghost ring of the dataset's halo depth along every split axis; an
   unsplit axis is stored whole, ghost cells included.

   Because OPS writes are center-only, owner-compute needs no communication
   but the global reductions and the on-demand ghost exchange before loops
   that read through offset stencils — triggered, exactly as in the paper,
   by the access descriptors and declared stencils, and only as deep as
   those stencils reach (OPS's per-stencil update_halo depths).  An
   exchange runs one phase per split axis, innermost first; each phase
   trades faces over the full stored extent of the other axes, so a later
   phase carries the edges and corners an earlier one filled. *)

module Obs = Am_obs.Obs
module Obs_counters = Am_obs.Counters
module Cat = Am_obs.Tracer
module Access = Am_core.Access
module Comm = Am_simmpi.Comm
open Types

type window = {
  own : range; (* owned box (global numbering) *)
  stored : range; (* [own] plus the ghost ring along split axes *)
  view : Exec.view; (* the stored box, addressed in global numbering *)
  send : float array array; (* send payloads, reused per face and depth *)
}

(* [fresh_depth] = how many ghost layers are currently valid (0 after a
   write, up to the dataset's halo after a full exchange): loops whose
   stencils reach only k cells deep trigger a k-deep exchange, not a full
   one. *)
type dat_dist = { windows : window array; mutable fresh_depth : int }

type t = {
  comm : Comm.t;
  rank : int; (* of the block; hybrid execution splits its outermost axis *)
  counts : int array; (* ranks along x, y and z *)
  chunks : int array array; (* per axis: chunk.(p) = first index of position p *)
  split : axis list; (* the axes with more than one rank, innermost first *)
  exec_boxes : range array; (* per rank: its chunk of the loop index space *)
  dat_dists : (int, dat_dist) Hashtbl.t;
  resolvers : Exec.resolvers array; (* per rank: its windows *)
  mutable rank_exec : Exec.rank_exec;
  mutable eager_halo : bool;
}

let axis_index = function X -> 0 | Y -> 1 | Z -> 2
let count t axis = t.counts.(axis_index axis)
let n_ranks t = t.counts.(0) * t.counts.(1) * t.counts.(2)

(* Rank-number distance between neighbours along [axis], and a rank's
   position along it. *)
let step t axis =
  match axis with X -> 1 | Y -> t.counts.(0) | Z -> t.counts.(0) * t.counts.(1)

let pos t axis r = r / step t axis mod count t axis

(* The bounds of rank [r]'s chunk along [axis]; an edge rank's outer bound
   is [edge]. *)
let chunk_lo t axis r ~edge =
  let p = pos t axis r in
  if p = 0 then edge else t.chunks.(axis_index axis).(p)

let chunk_hi t axis r ~edge =
  let p = pos t axis r in
  if p = count t axis - 1 then edge else t.chunks.(axis_index axis).(p + 1)

let inter a b =
  { xlo = max a.xlo b.xlo; xhi = min a.xhi b.xhi; ylo = max a.ylo b.ylo;
    yhi = min a.yhi b.yhi; zlo = max a.zlo b.zlo; zhi = min a.zhi b.zhi }

let nonempty b = b.xlo < b.xhi && b.ylo < b.yhi && b.zlo < b.zhi

(* Copy the box [b] (global numbering) from view [src] to view [dst], one
   x-run at a time. *)
let copy_box ~dim (src : Exec.view) (dst : Exec.view) b =
  if nonempty b then begin
    let len = (b.xhi - b.xlo) * dim in
    for z = b.zlo to b.zhi - 1 do
      for y = b.ylo to b.yhi - 1 do
        Array.blit src.vdata
          (src.vbase + (z * src.vplane) + (y * src.vrow) + (b.xlo * src.vcol))
          dst.vdata
          (dst.vbase + (z * dst.vplane) + (y * dst.vrow) + (b.xlo * dst.vcol))
          len
      done
    done
  end

(* The dense x-fastest array [data] holding exactly the box [b]. *)
let box_view ~dim data b : Exec.view =
  let vrow = (b.xhi - b.xlo) * dim in
  let vplane = (b.yhi - b.ylo) * vrow in
  { Exec.vdata = data; vbase = -((b.zlo * vplane) + (b.ylo * vrow) + (b.xlo * dim));
    vplane; vrow; vcol = dim }

(* Rank [r]'s window of [dat]: the owned box, the edge ranks' extended over
   the global ghosts and any staggered extras, plus the ghost ring along
   split axes. *)
let make_window t dat r =
  let own_lo axis = chunk_lo t axis r ~edge:(-ghost axis dat)
  and own_hi axis = chunk_hi t axis r ~edge:(extent axis dat + ghost axis dat)
  and ring axis = if count t axis > 1 then ghost axis dat else 0 in
  let own =
    { xlo = own_lo X; xhi = own_hi X; ylo = own_lo Y; yhi = own_hi Y; zlo = own_lo Z;
      zhi = own_hi Z }
  in
  let stored =
    { xlo = own.xlo - ring X; xhi = own.xhi + ring X; ylo = own.ylo - ring Y;
      yhi = own.yhi + ring Y; zlo = own.zlo - ring Z; zhi = own.zhi + ring Z }
  in
  let data = Array.make (range_size stored * dat.dim) 0.0 in
  { own; stored; view = box_view ~dim:dat.dim data stored;
    send = Array.make (6 * dat.halo) [||] }

let dat_dist t dat = Hashtbl.find t.dat_dists dat.dat_id

(* Push the global array's current contents into every window (ghosts
   too, as far as they are addressable). *)
let push t dat =
  let dd = dat_dist t dat in
  let global = Exec.dat_view dat in
  Array.iter
    (fun w -> copy_box ~dim:dat.dim global w.view (inter w.stored (addressable dat)))
    dd.windows;
  dd.fresh_depth <- dat.halo

(* Decompose every dataset of [env] over px * py * pz ranks, splitting a
   reference index space of rx * ry * rz cells (the facades pass 1 on an
   axis of one rank); every dataset must be at least that large. *)
let build env ~rank ~ranks:(px, py, pz) ~reference:(rx, ry, rz) =
  let fail fmt =
    Printf.ksprintf (fun s -> invalid_arg (facade rank ^ ".partition: " ^ s)) fmt
  in
  let counts = [| px; py; pz |] and refs = [| rx; ry; rz |] in
  if Array.exists (fun n -> n <= 0) counts then fail "rank counts must be positive";
  let max_halo = List.fold_left (fun acc d -> max acc d.halo) 0 (dats env) in
  let axes = [ X; Y; Z ] in
  let chunk axis =
    let n = counts.(axis_index axis) and len = refs.(axis_index axis) in
    let name = axis_name axis in
    if len < n then fail "%d ranks along %s, but only %d cells" n name len;
    let chunk = Array.init (n + 1) (fun p -> p * len / n) in
    for p = 0 to n - 1 do
      if n > 1 && chunk.(p + 1) - chunk.(p) < max_halo then
        fail "rank %d along %s owns %d cells, fewer than the ghost depth %d" p name
          (chunk.(p + 1) - chunk.(p)) max_halo
    done;
    List.iter
      (fun d ->
        if extent axis d < len then
          fail "dat %s has %d cells along %s, the reference space %d" d.dat_name
            (extent axis d) name len)
      (dats env);
    chunk
  in
  let t =
    {
      comm = Comm.create ~n_ranks:(px * py * pz);
      rank;
      counts;
      chunks = Array.of_list (List.map chunk axes);
      split = List.filter (fun axis -> counts.(axis_index axis) > 1) axes;
      exec_boxes = [||];
      dat_dists = Hashtbl.create 16;
      resolvers = [||];
      rank_exec = Exec.Rank_seq;
      eager_halo = false;
    }
  in
  let exec_box r =
    let lo axis = chunk_lo t axis r ~edge:min_int
    and hi axis = chunk_hi t axis r ~edge:max_int in
    { xlo = lo X; xhi = hi X; ylo = lo Y; yhi = hi Y; zlo = lo Z; zhi = hi Z }
  in
  let window dat r = (Hashtbl.find t.dat_dists dat.dat_id).windows.(r).view in
  let t =
    {
      t with
      exec_boxes = Array.init (n_ranks t) exec_box;
      resolvers =
        Array.init (n_ranks t) (fun r ->
            { Exec.resolve_dat = (fun d -> window d r);
              resolve_data = (fun d -> (window d r).Exec.vdata) });
    }
  in
  List.iter
    (fun dat ->
      let windows = Array.init (n_ranks t) (make_window t dat) in
      Hashtbl.add t.dat_dists dat.dat_id { windows; fresh_depth = 0 };
      push t dat)
    (dats env);
  t

(* ---- Ghost exchange --------------------------------------------------- *)

(* The [h] layers next to window [w]'s owned face along [axis] — its
   outermost owned layers ([inside]) or the ghost layers beyond them, on
   the [high] side or the low one — over the stored extent of the other
   axes. *)
let face w axis ~h ~high ~inside =
  let edge = if high then hi axis w.own else lo axis w.own in
  let start = if high = inside then edge - h else edge in
  with_axis axis w.stored ~lo:start ~hi:(start + h)

(* Pack window [src]'s owned face into its reused send buffer for this face
   and depth, and post it to [dst].  A buffer is rewritten only by the next
   exchange of its dataset, which starts after every receive of this one
   completed (and, under the fault transport, was acknowledged). *)
let send t dat dd axis h ~src ~dst ~high =
  let w = dd.windows.(src) in
  let b = face w axis ~h ~high ~inside:true in
  let i = (((2 * axis_index axis) + Bool.to_int high) * dat.halo) + h - 1 in
  let len = range_size b * dat.dim in
  if Array.length w.send.(i) <> len then w.send.(i) <- Array.make len 0.0;
  let buf = w.send.(i) in
  let traced = Obs.tracing () in
  if traced then Obs.begin_span ~lane:src ~cat:Cat.Halo_pack "pack";
  copy_box ~dim:dat.dim w.view (box_view ~dim:dat.dim buf b) b;
  if traced then Obs.end_span ~lane:src ();
  ignore (Comm.isend t.comm ~src ~dst buf)

(* Post one phase along [axis]: each rank with a neighbour above sends it
   its top [h] owned layers and receives that neighbour's bottom ones.
   Returns the receives, each with the receiving rank and whether the
   payload lands in its high ghost layers. *)
let post t dat dd axis h =
  let s = step t axis and last = count t axis - 1 in
  for r = 0 to n_ranks t - 1 do
    if pos t axis r < last then begin
      send t dat dd axis h ~src:r ~dst:(r + s) ~high:true;
      send t dat dd axis h ~src:(r + s) ~dst:r ~high:false
    end
  done;
  let recvs = ref [] in
  for r = n_ranks t - 1 downto 0 do
    if pos t axis r < last then
      recvs :=
        (r + s, false, Comm.irecv t.comm ~src:r ~dst:(r + s))
        :: (r, true, Comm.irecv t.comm ~src:(r + s) ~dst:r)
        :: !recvs
  done;
  !recvs

(* Wait for one phase's receives and unpack them into the ghost layers. *)
let complete t dat dd axis h recvs =
  let traced = Obs.tracing () in
  List.iter
    (fun (r, high, req) ->
      let payload = Comm.wait t.comm req in
      let w = dd.windows.(r) in
      let b = face w axis ~h ~high ~inside:false in
      if traced then Obs.begin_span ~lane:r ~cat:Cat.Halo_unpack "unpack";
      copy_box ~dim:dat.dim (box_view ~dim:dat.dim payload b) w.view b;
      if traced then Obs.end_span ~lane:r ())
    recvs

(* The ghost exchange of one dataset, to [depth] layers: one phase per
   split axis, innermost first, each carrying the edges and corners the
   earlier ones filled.  On-demand by default (nothing moves while enough
   ghost layers are fresh); [eager_halo] forces a full exchange every
   time, for the halo-policy ablation. *)
let exchange t dat ~depth =
  let dd = dat_dist t dat in
  let need = min depth dat.halo in
  if dd.fresh_depth < need || t.eager_halo then begin
    Comm.count_exchange t.comm;
    let h = if t.eager_halo then dat.halo else need in
    if h > 0 then begin
      List.iter (fun axis -> complete t dat dd axis h (post t dat dd axis h)) t.split;
      dd.fresh_depth <- max dd.fresh_depth h
    end
  end

(* ---- Loop execution --------------------------------------------------- *)

(* Stencil-read datasets with the deepest stencil of the loop on each
   (deduplicated, first appearance first). *)
let exchange_needs args =
  let need acc = function
    | Arg_dat { dat; stencil; access; _ } when Access.reads access -> (
      let depth = stencil_extent stencil in
      if depth = 0 then acc
      else
        match List.assq_opt dat acc with
        | None -> (dat, depth) :: acc
        | Some prev when prev >= depth -> acc
        | Some _ -> (dat, depth) :: List.remove_assq dat acc)
    | Arg_dat _ | Arg_gbl _ | Arg_idx _ -> acc
  in
  List.rev (List.fold_left need [] args)

(* Rank [r]'s executor for [args] in [execs], one slot per rank (a loop
   handle's): kept while it addresses [r]'s windows of [args]' datasets,
   checked by physical identity without allocating, compiled over them
   otherwise. *)
let rank_executor t (execs : Exec.executor array) r args =
  if Exec.compiled_matches ~resolvers:t.resolvers.(r) execs.(r).compiled args then
    Obs_counters.incr Obs.exec_hits
  else begin
    Obs_counters.incr Obs.exec_misses;
    execs.(r) <-
      Exec.executor
        (Obs.span ~cat:Cat.Plan "rank_compile" (fun () ->
             Exec.compile ~resolvers:t.resolvers.(r) args))
  end

let par_loop ?(halo_seconds = ref 0.0) t ~execs ~range ~args ~kernel =
  (* Grid-transfer strides cross the decomposition arbitrarily:
     unsupported on partitioned contexts (multigrid levels would need a
     proportional decomposition). *)
  List.iter
    (function
      | Arg_dat { stride; _ } when not (is_unit_stride stride) ->
        invalid_arg
          (String.lowercase_ascii (facade t.rank)
          ^ "-mpi: strided (grid-transfer) stencils are unsupported on partitioned \
             contexts")
      | Arg_dat _ | Arg_gbl _ | Arg_idx _ -> ())
    args;
  for r = 0 to n_ranks t - 1 do
    rank_executor t execs r args
  done;
  let needs = exchange_needs args in
  if needs <> [] then begin
    let t0 = Unix.gettimeofday () in
    List.iter (fun (dat, depth) -> exchange t dat ~depth) needs;
    halo_seconds := !halo_seconds +. (Unix.gettimeofday () -. t0)
  end;
  for r = 0 to n_ranks t - 1 do
    let b = inter range t.exec_boxes.(r) in
    if nonempty b then
      Exec.run_rank t.rank_exec ~exec:execs.(r) ~axis:(outer_axis t.rank) ~range:b ~args
        ~kernel
  done;
  (* Post: written datasets' ghosts are stale; count global reductions. *)
  List.iter
    (function
      | Arg_dat { dat; access; _ } when Access.writes access ->
        (dat_dist t dat).fresh_depth <- 0
      | Arg_gbl { access; _ } when access <> Access.Read -> Comm.count_reduction t.comm
      | Arg_dat _ | Arg_gbl _ | Arg_idx _ -> ())
    args

(* ---- Assembly and boundary conditions ---------------------------------- *)

(* Assemble the interior of a dataset from its owners, x fastest. *)
let fetch_interior t dat =
  let out = Array.make (dat.xsize * dat.ysize * dat.zsize * dat.dim) 0.0 in
  let whole = box_view ~dim:dat.dim out (interior dat) in
  Array.iter
    (fun w -> copy_box ~dim:dat.dim w.view whole (inter w.own (interior dat)))
    (dat_dist t dat).windows;
  out

(* Copy every window's owned values (global ghost cells included — the
   edge ranks own them) into [dst], a view of the padded array's shape.
   Reading only from owners never sees a stale ghost copy, so the result is
   exact whatever each dataset's current [fresh_depth]. *)
let assemble t dat (dst : Exec.view) =
  Array.iter (fun w -> copy_box ~dim:dat.dim w.view dst w.own) (dat_dist t dat).windows

(* Pull the owners' values back into the global padded array: the inverse
   of [push]. *)
let pull t dat = assemble t dat (Exec.dat_view dat)

(* A fresh copy of the padded array, ghost cells included, from the
   owners. *)
let fetch_padded t dat =
  let out = Array.make (Array.length dat.data) 0.0 in
  assemble t dat { (Exec.dat_view dat) with Exec.vdata = out };
  out

(* Reflective boundary mirror on every rank's window (see [Boundary]): each
   window mirrors the global ghost cells it owns over its stored box, one
   axis's pass at a time on every window.  An edge rank that owns no more
   cells along a split axis than a node-centred mirror is deep finds its
   deepest source in its ghost ring; that pass first refreshes the ring
   from the owners, one exchange phase along the axis, after the earlier
   passes ran everywhere so the copies carry their results.  Ghost copies
   of neighbours' cells may now be stale, so the dataset is marked for
   re-exchange. *)
let mirror t dat ~depth ~sign_x ~sign_y ~sign_z ~center_x ~center_y ~center_z =
  Boundary.check_depth dat ~depth;
  let dd = dat_dist t dat in
  let pass axis ~sign ~center =
    if
      List.mem axis t.split
      && not
           (Array.for_all
              (fun w -> Boundary.sources_owned ~dat ~own:w.own ~axis ~depth ~center)
              dd.windows)
    then begin
      Comm.count_exchange t.comm;
      complete t dat dd axis depth (post t dat dd axis depth)
    end;
    Array.iter
      (fun w -> Boundary.apply_axis w.view ~dat ~own:w.own ~axis ~depth ~sign ~center)
      dd.windows
  in
  let rank = dat.dat_block.rank in
  if rank >= 3 then pass Z ~sign:sign_z ~center:center_z;
  if rank >= 2 then pass Y ~sign:sign_y ~center:center_y;
  pass X ~sign:sign_x ~center:center_x;
  dd.fresh_depth <- 0

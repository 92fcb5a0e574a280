(* Distributed-memory backend of OPS: two-dimensional (grid) decomposition.

   The production OPS decomposes structured blocks in every dimension (the
   paper's CloverLeaf runs on Titan use px x py process grids); this module
   is that decomposition for 2D blocks, complementing the row decomposition
   of [Dist].  The reference index space [0, ref_xsize) x [0, ref_ysize) is
   split into px x py contiguous boxes, one per rank (rank r sits at
   rx = r mod px, ry = r / px).  Each dataset is scattered into per-rank
   windows holding the owned box plus a ghost ring; edge ranks absorb the
   global ghost cells and any extra rows/columns of staggered datasets.

   Ghost exchange is the classic two-phase scheme: phase X trades ghost
   columns (over the full stored y extent), then phase Y trades ghost rows
   over the full stored x extent — the second phase carries the corners,
   because the y-neighbour's x-ghost columns were refreshed in phase X.
   As everywhere else, the exchange is on-demand: triggered before a loop
   whose access descriptors read a stale dataset through an offset
   stencil. *)

module Obs = Am_obs.Obs
module Obs_counters = Am_obs.Counters
module Cat = Am_obs.Tracer
module Access = Am_core.Access
module Comm = Am_simmpi.Comm
open Types

type window = {
  col_lo : int; (* first owned column (global numbering) *)
  col_hi : int;
  row_lo : int;
  row_hi : int;
  stride : int; (* stored columns = col_hi - col_lo + 2*halo *)
  data : float array;
}

type dat_dist = { windows : window array; mutable fresh : bool }

type t = {
  comm : Comm.t;
  px : int;
  py : int;
  ref_xsize : int;
  ref_ysize : int;
  chunk_x : int array;
  chunk_y : int array;
  dat_dists : (int, dat_dist) Hashtbl.t;
  env : env;
  mutable rank_exec : Exec.rank_exec;
  mutable eager_halo : bool;
  mutable overlap : bool;
}

let n_ranks t = t.px * t.py
let rank_at t ~rx ~ry = (ry * t.px) + rx

(* Owned box of dataset [dat] on grid position (rx, ry): edge ranks absorb
   the global ghosts and staggered extras. *)
let owned_box t dat ~rx ~ry =
  let col_lo = if rx = 0 then -dat.halo else t.chunk_x.(rx) in
  let col_hi = if rx = t.px - 1 then dat.xsize + dat.halo else t.chunk_x.(rx + 1) in
  let row_lo = if ry = 0 then -dat.halo else t.chunk_y.(ry) in
  let row_hi = if ry = t.py - 1 then dat.ysize + dat.halo else t.chunk_y.(ry + 1) in
  (col_lo, col_hi, row_lo, row_hi)

let pos_of_chunk chunk n v =
  if v < chunk.(1) then 0
  else if v >= chunk.(n - 1) then n - 1
  else begin
    let r = ref 1 in
    while not (v >= chunk.(!r) && v < chunk.(!r + 1)) do
      incr r
    done;
    !r
  end

let rank_of_point t ~x ~y =
  rank_at t ~rx:(pos_of_chunk t.chunk_x t.px x) ~ry:(pos_of_chunk t.chunk_y t.py y)

let window_index dat w ~x ~y ~c =
  ((((y - (w.row_lo - dat.halo)) * w.stride) + (x - (w.col_lo - dat.halo))) * dat.dim)
  + c

let window_view dat w : Exec.view =
  {
    Exec.vdata = w.data;
    vbase = (((dat.halo - w.row_lo) * w.stride) + (dat.halo - w.col_lo)) * dat.dim;
    vplane = Array.length w.data;
    vrow = w.stride * dat.dim;
    vcol = dat.dim;
  }

let build env ~px ~py ~ref_xsize ~ref_ysize =
  if px <= 0 || py <= 0 then invalid_arg "Ops dist2: grid extents must be positive";
  if ref_xsize < px then invalid_arg "Ops dist2: fewer columns than ranks in x";
  if ref_ysize < py then invalid_arg "Ops dist2: fewer rows than ranks in y";
  let max_halo = List.fold_left (fun acc d -> max acc d.halo) 0 (dats env) in
  let chunk_x = Array.init (px + 1) (fun r -> r * ref_xsize / px) in
  let chunk_y = Array.init (py + 1) (fun r -> r * ref_ysize / py) in
  let check name n chunk =
    for r = 0 to n - 1 do
      if n > 1 && chunk.(r + 1) - chunk.(r) < max_halo then
        invalid_arg
          (Printf.sprintf
             "Ops dist2: %s chunk %d owns %d cells, fewer than the ghost depth %d"
             name r (chunk.(r + 1) - chunk.(r)) max_halo)
    done
  in
  check "x" px chunk_x;
  check "y" py chunk_y;
  List.iter
    (fun d ->
      if d.xsize < ref_xsize || d.ysize < ref_ysize then
        invalid_arg
          (Printf.sprintf "Ops dist2: dat %s (%dx%d) smaller than reference %dx%d"
             d.dat_name d.xsize d.ysize ref_xsize ref_ysize))
    (dats env);
  let t =
    {
      comm = Comm.create ~n_ranks:(px * py);
      px;
      py;
      ref_xsize;
      ref_ysize;
      chunk_x;
      chunk_y;
      dat_dists = Hashtbl.create 16;
      env;
      rank_exec = Exec.Rank_seq;
      eager_halo = false;
      overlap = false;
    }
  in
  List.iter
    (fun dat ->
      let windows =
        Array.init (px * py) (fun r ->
            let rx = r mod px and ry = r / px in
            let col_lo, col_hi, row_lo, row_hi = owned_box t dat ~rx ~ry in
            let stride = col_hi - col_lo + (2 * dat.halo) in
            let rows = row_hi - row_lo + (2 * dat.halo) in
            let w =
              { col_lo; col_hi; row_lo; row_hi; stride;
                data = Array.make (rows * stride * dat.dim) 0.0 }
            in
            for y = max (y_min dat) (row_lo - dat.halo)
                to min (y_max dat - 1) (row_hi + dat.halo - 1) do
              for x = max (x_min dat) (col_lo - dat.halo)
                  to min (x_max dat - 1) (col_hi + dat.halo - 1) do
                for c = 0 to dat.dim - 1 do
                  w.data.(window_index dat w ~x ~y ~c) <- get dat ~x ~y ~z:0 ~c
                done
              done
            done;
            w)
      in
      Hashtbl.add t.dat_dists dat.dat_id { windows; fresh = true })
    (dats env);
  t

let dat_dist t dat = Hashtbl.find t.dat_dists dat.dat_id

(* Pack/unpack a rectangle [x0, x1) x [y0, y1) of a window. *)
let pack_rect dat w ~x0 ~x1 ~y0 ~y1 =
  let out = Array.make ((x1 - x0) * (y1 - y0) * dat.dim) 0.0 in
  let k = ref 0 in
  for y = y0 to y1 - 1 do
    let base = window_index dat w ~x:x0 ~y ~c:0 in
    let len = (x1 - x0) * dat.dim in
    Array.blit w.data base out !k len;
    k := !k + len
  done;
  out

let unpack_rect dat w ~x0 ~x1 ~y0 ~y1 payload =
  let k = ref 0 in
  for y = y0 to y1 - 1 do
    let base = window_index dat w ~x:x0 ~y ~c:0 in
    let len = (x1 - x0) * dat.dim in
    Array.blit payload !k w.data base len;
    k := !k + len
  done

(* An in-flight phase-X exchange: the posted ghost-column receives, tagged
   with the receiving rank and whether the payload came from its left
   neighbour (lands in the left ghost columns) or its right one. *)
type token = { tok_recvs : (int * bool * Comm.request) list }

(* Pack/post half of the two-phase exchange: phase X (ghost columns over the
   full stored y extent) is put in flight; phase Y must run after the waits
   because it carries the corners filled by phase X.  [None] when the
   dirty-bit says the ghosts are fresh (unless [eager_halo]). *)
let exchange_start t dat =
  let dd = dat_dist t dat in
  if (not dd.fresh) || t.eager_halo then begin
    Comm.count_exchange t.comm;
    let h = dat.halo in
    if h = 0 then begin
      dd.fresh <- true;
      None
    end
    else begin
      let recvs = ref [] in
      for ry = t.py - 1 downto 0 do
        for rx = t.px - 2 downto 0 do
          let r = rank_at t ~rx ~ry and rn = rank_at t ~rx:(rx + 1) ~ry in
          let w = dd.windows.(r) and wn = dd.windows.(rn) in
          let y0 = w.row_lo - h and y1 = w.row_hi + h in
          let traced = Obs.tracing () in
          if traced then Obs.begin_span ~lane:r ~cat:Cat.Halo_pack "pack_rect";
          let right = pack_rect dat w ~x0:(w.col_hi - h) ~x1:w.col_hi ~y0 ~y1 in
          if traced then Obs.end_span ~lane:r ();
          ignore (Comm.isend t.comm ~src:r ~dst:rn right);
          if traced then Obs.begin_span ~lane:rn ~cat:Cat.Halo_pack "pack_rect";
          let left = pack_rect dat wn ~x0:wn.col_lo ~x1:(wn.col_lo + h) ~y0 ~y1 in
          if traced then Obs.end_span ~lane:rn ();
          ignore (Comm.isend t.comm ~src:rn ~dst:r left);
          recvs :=
            (rn, true, Comm.irecv t.comm ~src:r ~dst:rn)
            :: (r, false, Comm.irecv t.comm ~src:rn ~dst:r)
            :: !recvs
        done
      done;
      Some { tok_recvs = !recvs }
    end
  end
  else None

(* Wait half: completes the phase-X receives, unpacks the ghost columns,
   then runs phase Y blocking — ghost rows over the full stored x extent,
   carrying the corners freshly filled by phase X at the y-neighbour. *)
let exchange_finish t dat token =
  let dd = dat_dist t dat in
  let h = dat.halo in
  let traced = Obs.tracing () in
  List.iter
    (fun (r, from_left, req) ->
      let payload = Comm.wait t.comm req in
      let w = dd.windows.(r) in
      let y0 = w.row_lo - h and y1 = w.row_hi + h in
      if traced then Obs.begin_span ~lane:r ~cat:Cat.Halo_unpack "unpack_rect";
      if from_left then
        unpack_rect dat w ~x0:(w.col_lo - h) ~x1:w.col_lo ~y0 ~y1 payload
      else unpack_rect dat w ~x0:w.col_hi ~x1:(w.col_hi + h) ~y0 ~y1 payload;
      if traced then Obs.end_span ~lane:r ())
    token.tok_recvs;
  for rx = 0 to t.px - 1 do
    for ry = 0 to t.py - 2 do
      let r = rank_at t ~rx ~ry and rn = rank_at t ~rx ~ry:(ry + 1) in
      let w = dd.windows.(r) and wn = dd.windows.(rn) in
      let x0 = w.col_lo - h and x1 = w.col_hi + h in
      Comm.send t.comm ~src:r ~dst:rn
        (pack_rect dat w ~x0 ~x1 ~y0:(w.row_hi - h) ~y1:w.row_hi);
      Comm.send t.comm ~src:rn ~dst:r
        (pack_rect dat wn ~x0 ~x1 ~y0:wn.row_lo ~y1:(wn.row_lo + h))
    done;
    for ry = 0 to t.py - 2 do
      let r = rank_at t ~rx ~ry and rn = rank_at t ~rx ~ry:(ry + 1) in
      let w = dd.windows.(r) and wn = dd.windows.(rn) in
      let x0 = w.col_lo - h and x1 = w.col_hi + h in
      unpack_rect dat wn ~x0 ~x1 ~y0:(wn.row_lo - h) ~y1:wn.row_lo
        (Comm.recv t.comm ~src:r ~dst:rn);
      unpack_rect dat w ~x0 ~x1 ~y0:w.row_hi ~y1:(w.row_hi + h)
        (Comm.recv t.comm ~src:rn ~dst:r)
    done
  done;
  dd.fresh <- true

(* Two-phase neighbour exchange for one dataset, blocking. *)
let exchange t dat =
  match exchange_start t dat with
  | None -> ()
  | Some token -> exchange_finish t dat token

(* ---- Loop execution --------------------------------------------------- *)

let par_loop ?ext ?(halo_seconds = ref 0.0) ?(overlap_seconds = ref 0.0) t ~range
    ~args ~kernel =
  List.iter
    (function
      | Arg_dat { stride; _ } when not (is_unit_stride stride) ->
        invalid_arg "ops-mpi: strided (grid-transfer) stencils are unsupported on \
                     partitioned contexts"
      | Arg_dat _ | Arg_gbl _ | Arg_idx _ -> ())
    args;
  (* Stencil-read datasets needing a ghost exchange (deduplicated).  The
     two-phase exchange is all-or-nothing at the full ghost depth, so the
     inference-tightened extents ([ext], -1 where no proof) act here as a
     filter: a dataset whose every stencil read was observed centre-only
     skips its exchange outright. *)
  let seen = Hashtbl.create 4 in
  let order = ref [] in
  List.iteri
    (fun i arg ->
      match arg with
      | Arg_dat { dat; stencil; access; _ }
        when Access.reads access && stencil_extent stencil > 0 ->
        let declared = stencil_extent stencil in
        let need =
          match ext with
          | Some e when i < Array.length e && e.(i) >= 0 && e.(i) < declared ->
            e.(i)
          | Some _ | None -> declared
        in
        if not (Hashtbl.mem seen dat.dat_id) then order := dat :: !order;
        let prev = try Hashtbl.find seen dat.dat_id with Not_found -> -1 in
        if need > prev then Hashtbl.replace seen dat.dat_id need
      | Arg_dat _ | Arg_gbl _ | Arg_idx _ -> ())
    args;
  let needs =
    List.filter
      (fun (d : dat) ->
        match Hashtbl.find_opt seen d.dat_id with
        | Some need when need > 0 -> true
        | Some _ ->
          Obs_counters.add Obs.halo_depth_saved d.halo;
          false
        | None -> false)
      (List.rev !order)
  in
  let exposed = ref 0.0 and xfer = ref 0.0 in
  (* Executed sub-box of rank [r]: intersection of the range with its owned
     region of the reference space (edge ranks extend to infinity). *)
  let rank_box r =
    let rx = r mod t.px and ry = r / t.px in
    let own_xlo = if rx = 0 then min_int else t.chunk_x.(rx) in
    let own_xhi = if rx = t.px - 1 then max_int else t.chunk_x.(rx + 1) in
    let own_ylo = if ry = 0 then min_int else t.chunk_y.(ry) in
    let own_yhi = if ry = t.py - 1 then max_int else t.chunk_y.(ry + 1) in
    let xlo = max range.xlo own_xlo and xhi = min range.xhi own_xhi in
    let ylo = max range.ylo own_ylo and yhi = min range.yhi own_yhi in
    if xlo < xhi && ylo < yhi then Some (xlo, xhi, ylo, yhi) else None
  in
  let run_box r ~xlo ~xhi ~ylo ~yhi =
    if xlo < xhi && ylo < yhi then begin
      let resolvers =
        { Exec.resolve_dat = (fun d -> window_view d (dat_dist t d).windows.(r)) }
      in
      Exec.run_rank t.rank_exec ~resolvers ~axis:Y ~range:{ range with xlo; xhi; ylo; yhi }
        ~args ~kernel
    end
  in
  (* As in [Dist]: a global Inc reduction is summed in iteration order, so
     splitting the box would change the rounding — keep those blocking. *)
  let splittable =
    not
      (List.exists
         (function
           | Arg_gbl { access = Access.Inc; _ } -> true
           | Arg_gbl _ | Arg_dat _ | Arg_idx _ -> false)
         args)
  in
  let tokens =
    if not (t.overlap && splittable) then begin
      List.iter
        (fun dat ->
          let t0 = Unix.gettimeofday () in
          exchange t dat;
          exposed := !exposed +. (Unix.gettimeofday () -. t0))
        needs;
      []
    end
    else
      List.filter_map
        (fun dat ->
          let t0 = Unix.gettimeofday () in
          let tok = exchange_start t dat in
          xfer := !xfer +. (Unix.gettimeofday () -. t0);
          Option.map (fun tok -> (dat, tok)) tok)
        needs
  in
  if tokens = [] then
    for r = 0 to n_ranks t - 1 do
      match rank_box r with
      | None -> ()
      | Some (xlo, xhi, ylo, yhi) -> run_box r ~xlo ~xhi ~ylo ~yhi
    done
  else begin
    (* Interior/boundary split: the interior box stays [margin] away from
       every internal partition boundary.  The margin is the full ghost
       depth (not just the stencil extent) because phase Y packs the rows
       nearest the boundary at wait time — the interior must not have
       touched them.  Centre-only writes make the order immaterial, so
       results match blocking bitwise. *)
    let margin =
      List.fold_left (fun acc (dat, _) -> max acc dat.halo) 0 tokens
    in
    let bounds =
      Array.init (n_ranks t) (fun r ->
          match rank_box r with
          | None -> None
          | Some (xlo, xhi, ylo, yhi) ->
            let rx = r mod t.px and ry = r / t.px in
            let int_xlo =
              if rx > 0 then max xlo (min xhi (t.chunk_x.(rx) + margin)) else xlo
            in
            let int_xhi =
              if rx < t.px - 1 then
                min xhi (max int_xlo (t.chunk_x.(rx + 1) - margin))
              else xhi
            in
            let int_ylo =
              if ry > 0 then max ylo (min yhi (t.chunk_y.(ry) + margin)) else ylo
            in
            let int_yhi =
              if ry < t.py - 1 then
                min yhi (max int_ylo (t.chunk_y.(ry + 1) - margin))
              else yhi
            in
            Some
              ( (xlo, xhi, ylo, yhi),
                (int_xlo, max int_xlo int_xhi, int_ylo, max int_ylo int_yhi) ))
    in
    let traced = Obs.tracing () in
    let t_core = Unix.gettimeofday () in
    Array.iteri
      (fun r b ->
        match b with
        | None -> ()
        | Some (_, (xlo, xhi, ylo, yhi)) ->
          if traced then Obs.begin_span ~lane:r ~cat:Cat.Loop "core";
          run_box r ~xlo ~xhi ~ylo ~yhi;
          Obs_counters.add Obs.core_elements
            (max 0 (xhi - xlo) * max 0 (yhi - ylo));
          if traced then Obs.end_span ~lane:r ())
      bounds;
    let core_seconds = Unix.gettimeofday () -. t_core in
    if tokens <> [] then begin
      let t_wait = Unix.gettimeofday () in
      List.iter (fun (dat, tok) -> exchange_finish t dat tok) tokens;
      xfer := !xfer +. (Unix.gettimeofday () -. t_wait);
      (* Ranks run back to back in the simulator, so overlap is credited
         analytically: exchange time covered by interior compute is hidden,
         only the excess is exposed. *)
      let hidden = Float.min !xfer core_seconds in
      exposed := !exposed +. (!xfer -. hidden);
      overlap_seconds := !overlap_seconds +. hidden
    end;
    (* Boundary frame: bottom and top rows full width, then the side
       columns of the middle band. *)
    Array.iteri
      (fun r b ->
        match b with
        | None -> ()
        | Some ((xlo, xhi, ylo, yhi), (int_xlo, int_xhi, int_ylo, int_yhi)) ->
          if traced then Obs.begin_span ~lane:r ~cat:Cat.Loop "boundary";
          run_box r ~xlo ~xhi ~ylo ~yhi:int_ylo;
          run_box r ~xlo ~xhi:int_xlo ~ylo:int_ylo ~yhi:int_yhi;
          run_box r ~xlo:int_xhi ~xhi ~ylo:int_ylo ~yhi:int_yhi;
          run_box r ~xlo ~xhi ~ylo:int_yhi ~yhi;
          Obs_counters.add Obs.boundary_elements
            (max 0
               ((max 0 (xhi - xlo) * max 0 (yhi - ylo))
               - (max 0 (int_xhi - int_xlo) * max 0 (int_yhi - int_ylo))));
          if traced then Obs.end_span ~lane:r ())
      bounds
  end;
  halo_seconds := !halo_seconds +. !exposed;
  List.iter
    (function
      | Arg_dat { dat; access; _ } when Access.writes access ->
        (dat_dist t dat).fresh <- false
      | Arg_gbl { access; _ } when access <> Access.Read ->
        Comm.count_reduction t.comm
      | Arg_dat _ | Arg_gbl _ | Arg_idx _ -> ())
    args

let fetch_interior t dat =
  let dd = dat_dist t dat in
  let out = Array.make (dat.xsize * dat.ysize * dat.dim) 0.0 in
  let k = ref 0 in
  for y = 0 to dat.ysize - 1 do
    for x = 0 to dat.xsize - 1 do
      let w = dd.windows.(rank_of_point t ~x ~y) in
      for c = 0 to dat.dim - 1 do
        out.(!k) <- w.data.(window_index dat w ~x ~y ~c);
        incr k
      done
    done
  done;
  out

(* Pull every window's owned values (global ghost cells included — the edge
   ranks own them) back into the global padded array: the inverse of [push].
   Reading only from owners never sees a stale ghost copy. *)
let pull t dat =
  let dd = dat_dist t dat in
  for y = y_min dat to y_max dat - 1 do
    for x = x_min dat to x_max dat - 1 do
      let w = dd.windows.(rank_of_point t ~x ~y) in
      for c = 0 to dat.dim - 1 do
        set dat ~x ~y ~z:0 ~c w.data.(window_index dat w ~x ~y ~c)
      done
    done
  done

let push t dat =
  let dd = dat_dist t dat in
  for r = 0 to n_ranks t - 1 do
    let w = dd.windows.(r) in
    for y = max (y_min dat) (w.row_lo - dat.halo)
        to min (y_max dat - 1) (w.row_hi + dat.halo - 1) do
      for x = max (x_min dat) (w.col_lo - dat.halo)
          to min (x_max dat - 1) (w.col_hi + dat.halo - 1) do
        for c = 0 to dat.dim - 1 do
          w.data.(window_index dat w ~x ~y ~c) <- get dat ~x ~y ~z:0 ~c
        done
      done
    done
  done;
  dd.fresh <- true

(* Reflective boundary mirror: each window mirrors only the global ghost
   cells it owns, clamped to its stored box; x mirrors run over all stored
   rows and y mirrors over all stored columns so each edge rank's corners
   are self-consistent, and the next on-demand exchange propagates the
   mirrored cells across rank boundaries. *)
let mirror t dat ~depth ~sign_x ~sign_y ~center_x ~center_y =
  if depth > dat.halo then invalid_arg "Boundary.mirror: depth exceeds ghost ring";
  let dd = dat_dist t dat in
  let mirror_low centering k = match centering with Boundary.Cell -> k - 1 | Node -> k in
  let mirror_high centering size k =
    match centering with Boundary.Cell -> size - k | Node -> size - 1 - k
  in
  for r = 0 to n_ranks t - 1 do
    let w = dd.windows.(r) in
    let get x y c = w.data.(window_index dat w ~x ~y ~c) in
    let set x y c v = w.data.(window_index dat w ~x ~y ~c) <- v in
    let sx0 = w.col_lo - dat.halo and sx1 = w.col_hi + dat.halo in
    let sy0 = w.row_lo - dat.halo and sy1 = w.row_hi + dat.halo in
    (* y mirrors over the stored columns of edge ranks. *)
    for k = 1 to depth do
      List.iter
        (fun (ghost_y, src_y) ->
          if ghost_y >= w.row_lo && ghost_y < w.row_hi then
            for x = max 0 sx0 to min dat.xsize sx1 - 1 do
              for c = 0 to dat.dim - 1 do
                set x ghost_y c (sign_y *. get x src_y c)
              done
            done)
        [ (-k, mirror_low center_y k);
          (dat.ysize - 1 + k, mirror_high center_y dat.ysize k) ]
    done;
    (* x mirrors over all stored rows of edge ranks (ghost rows included so
       the rank's own corners stay consistent). *)
    for y = sy0 to sy1 - 1 do
      for k = 1 to depth do
        for c = 0 to dat.dim - 1 do
          if -k >= w.col_lo && -k < w.col_hi then
            set (-k) y c (sign_x *. get (mirror_low center_x k) y c);
          if dat.xsize - 1 + k >= w.col_lo && dat.xsize - 1 + k < w.col_hi then
            set (dat.xsize - 1 + k) y c
              (sign_x *. get (mirror_high center_x dat.xsize k) y c)
        done
      done
    done
  done;
  dd.fresh <- false

(* Distributed 3D backend: pencil (y x z) decomposition.

   The 3D analogue of [Dist2]'s process grid: the reference space is split
   into py x pz boxes over the y and z axes (x stays whole — the unit-
   stride axis, kept contiguous for locality, as production codes do for
   pencil decompositions).  Rank r sits at ry = r mod py, rz = r / py.
   Ghost exchange is two-phase: ghost rows (y) over the full stored z
   extent first, then ghost planes (z) over the full y-extended extent,
   which carries the edge cells — the 3D version of Dist2's corner
   argument, with x never decomposed. *)

module Obs = Am_obs.Obs
module Obs_counters = Am_obs.Counters
module Cat = Am_obs.Tracer
module Access = Am_core.Access
module Comm = Am_simmpi.Comm
open Types

type window = {
  row_lo : int; (* first owned y-row (global numbering) *)
  row_hi : int;
  slab_lo : int; (* first owned z-plane *)
  slab_hi : int;
  y_stride : int; (* stored rows = row_hi - row_lo + 2*halo *)
  data : float array;
}

type dat_dist = { windows : window array; mutable fresh : bool }

type t = {
  comm : Comm.t;
  py : int;
  pz : int;
  ref_ysize : int;
  ref_zsize : int;
  chunk_y : int array;
  chunk_z : int array;
  dat_dists : (int, dat_dist) Hashtbl.t;
  env : env;
  mutable rank_exec : Exec.rank_exec;
  mutable overlap : bool;
}

let n_ranks t = t.py * t.pz
let rank_at t ~ry ~rz = (rz * t.py) + ry

let owned_box t dat ~ry ~rz =
  let row_lo = if ry = 0 then -dat.halo else t.chunk_y.(ry) in
  let row_hi = if ry = t.py - 1 then dat.ysize + dat.halo else t.chunk_y.(ry + 1) in
  let slab_lo = if rz = 0 then -dat.halo else t.chunk_z.(rz) in
  let slab_hi = if rz = t.pz - 1 then dat.zsize + dat.halo else t.chunk_z.(rz + 1) in
  (row_lo, row_hi, slab_lo, slab_hi)

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

let rank_of_point t ~y ~z =
  rank_at t ~ry:(pos_of_chunk t.chunk_y t.py y) ~rz:(pos_of_chunk t.chunk_z t.pz z)

let window_index dat w ~x ~y ~z ~c =
  ((((((z - (w.slab_lo - dat.halo)) * w.y_stride) + (y - (w.row_lo - dat.halo)))
     * padded_x dat)
    + (x + dat.halo))
   * dat.dim)
  + c

let window_view dat w : Exec.view =
  let px = padded_x dat in
  {
    Exec.vdata = w.data;
    vbase =
      (((((dat.halo - w.slab_lo) * w.y_stride) + (dat.halo - w.row_lo)) * px)
       + dat.halo)
      * dat.dim;
    vplane = w.y_stride * px * dat.dim;
    vrow = px * dat.dim;
    vcol = dat.dim;
  }

let build env ~py ~pz ~ref_ysize ~ref_zsize =
  if py <= 0 || pz <= 0 then invalid_arg "Ops3 pencil: grid extents must be positive";
  if ref_ysize < py then invalid_arg "Ops3 pencil: fewer rows than ranks in y";
  if ref_zsize < pz then invalid_arg "Ops3 pencil: fewer planes than ranks in z";
  let max_halo = List.fold_left (fun acc d -> max acc d.halo) 0 (dats env) in
  let chunk_y = Array.init (py + 1) (fun r -> r * ref_ysize / py) in
  let chunk_z = Array.init (pz + 1) (fun r -> r * ref_zsize / pz) in
  let check name n chunk =
    for r = 0 to n - 1 do
      if n > 1 && chunk.(r + 1) - chunk.(r) < max_halo then
        invalid_arg
          (Printf.sprintf
             "Ops3 pencil: %s chunk %d owns %d cells, fewer than ghost depth %d" name r
             (chunk.(r + 1) - chunk.(r)) max_halo)
    done
  in
  check "y" py chunk_y;
  check "z" pz chunk_z;
  List.iter
    (fun d ->
      if d.ysize < ref_ysize || d.zsize < ref_zsize then
        invalid_arg
          (Printf.sprintf "Ops3 pencil: dat %s smaller than the reference space"
             d.dat_name))
    (dats env);
  let t =
    { comm = Comm.create ~n_ranks:(py * pz); py; pz; ref_ysize; ref_zsize; chunk_y;
      chunk_z; dat_dists = Hashtbl.create 16; env; rank_exec = Exec.Rank_seq;
      overlap = false }
  in
  List.iter
    (fun dat ->
      let windows =
        Array.init (py * pz) (fun r ->
            let ry = r mod t.py and rz = r / t.py in
            let row_lo, row_hi, slab_lo, slab_hi = owned_box t dat ~ry ~rz in
            let y_stride = row_hi - row_lo + (2 * dat.halo) in
            let planes = slab_hi - slab_lo + (2 * dat.halo) in
            let w =
              { row_lo; row_hi; slab_lo; slab_hi; y_stride;
                data = Array.make (planes * y_stride * padded_x dat * dat.dim) 0.0 }
            in
            for z = max (z_min dat) (slab_lo - dat.halo)
                to min (z_max dat - 1) (slab_hi + dat.halo - 1) do
              for y = max (y_min dat) (row_lo - dat.halo)
                  to min (y_max dat - 1) (row_hi + dat.halo - 1) do
                for x = -dat.halo to dat.xsize + dat.halo - 1 do
                  for c = 0 to dat.dim - 1 do
                    w.data.(window_index dat w ~x ~y ~z ~c) <- get dat ~x ~y ~z ~c
                  done
                done
              done
            done;
            w)
      in
      Hashtbl.add t.dat_dists dat.dat_id { windows; fresh = true })
    (dats env);
  t

let dat_dist t dat = Hashtbl.find t.dat_dists dat.dat_id

(* Pack/unpack a box: whole padded x rows, y in [y0, y1), z in [z0, z1). *)
let pack_box dat w ~y0 ~y1 ~z0 ~z1 =
  let row_len = padded_x dat * dat.dim in
  let out = Array.make ((y1 - y0) * (z1 - z0) * row_len) 0.0 in
  let k = ref 0 in
  for z = z0 to z1 - 1 do
    for y = y0 to y1 - 1 do
      let base = window_index dat w ~x:(-dat.halo) ~y ~z ~c:0 in
      Array.blit w.data base out !k row_len;
      k := !k + row_len
    done
  done;
  out

let unpack_box dat w ~y0 ~y1 ~z0 ~z1 payload =
  let row_len = padded_x dat * dat.dim in
  let k = ref 0 in
  for z = z0 to z1 - 1 do
    for y = y0 to y1 - 1 do
      let base = window_index dat w ~x:(-dat.halo) ~y ~z ~c:0 in
      Array.blit payload !k w.data base row_len;
      k := !k + row_len
    done
  done

(* An in-flight phase-Y exchange: the posted ghost-row receives, tagged with
   the receiving rank and whether the payload came from the rank below in y
   (lands in the bottom ghost rows) or above. *)
type token = { tok_recvs : (int * bool * Comm.request) list }

(* Pack/post half of the two-phase exchange: phase Y (ghost rows over the
   full stored z extent) is put in flight; phase Z must run after the waits
   because it carries the y-z edge cells filled by phase Y. *)
let exchange_start t dat =
  let dd = dat_dist t dat in
  if not dd.fresh then begin
    Comm.count_exchange t.comm;
    let h = dat.halo in
    if h = 0 then begin
      dd.fresh <- true;
      None
    end
    else begin
      let recvs = ref [] in
      for rz = t.pz - 1 downto 0 do
        for ry = t.py - 2 downto 0 do
          let r = rank_at t ~ry ~rz and rn = rank_at t ~ry:(ry + 1) ~rz in
          let w = dd.windows.(r) and wn = dd.windows.(rn) in
          let z0 = w.slab_lo - h and z1 = w.slab_hi + h in
          let traced = Obs.tracing () in
          if traced then Obs.begin_span ~lane:r ~cat:Cat.Halo_pack "pack_box";
          let up = pack_box dat w ~y0:(w.row_hi - h) ~y1:w.row_hi ~z0 ~z1 in
          if traced then Obs.end_span ~lane:r ();
          ignore (Comm.isend t.comm ~src:r ~dst:rn up);
          if traced then Obs.begin_span ~lane:rn ~cat:Cat.Halo_pack "pack_box";
          let down = pack_box dat wn ~y0:wn.row_lo ~y1:(wn.row_lo + h) ~z0 ~z1 in
          if traced then Obs.end_span ~lane:rn ();
          ignore (Comm.isend t.comm ~src:rn ~dst:r down);
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

(* Wait half: completes the phase-Y receives, unpacks the ghost rows, then
   runs phase Z blocking — ghost planes over the full y-extended extent,
   carrying the y-z edge cells freshly filled by phase Y. *)
let exchange_finish t dat token =
  let dd = dat_dist t dat in
  let h = dat.halo in
  let traced = Obs.tracing () in
  List.iter
    (fun (r, from_below, req) ->
      let payload = Comm.wait t.comm req in
      let w = dd.windows.(r) in
      let z0 = w.slab_lo - h and z1 = w.slab_hi + h in
      if traced then Obs.begin_span ~lane:r ~cat:Cat.Halo_unpack "unpack_box";
      if from_below then
        unpack_box dat w ~y0:(w.row_lo - h) ~y1:w.row_lo ~z0 ~z1 payload
      else unpack_box dat w ~y0:w.row_hi ~y1:(w.row_hi + h) ~z0 ~z1 payload;
      if traced then Obs.end_span ~lane:r ())
    token.tok_recvs;
  for ry = 0 to t.py - 1 do
    for rz = 0 to t.pz - 2 do
      let r = rank_at t ~ry ~rz and rn = rank_at t ~ry ~rz:(rz + 1) in
      let w = dd.windows.(r) and wn = dd.windows.(rn) in
      let y0 = w.row_lo - h and y1 = w.row_hi + h in
      Comm.send t.comm ~src:r ~dst:rn
        (pack_box dat w ~y0 ~y1 ~z0:(w.slab_hi - h) ~z1:w.slab_hi);
      Comm.send t.comm ~src:rn ~dst:r
        (pack_box dat wn ~y0 ~y1 ~z0:wn.slab_lo ~z1:(wn.slab_lo + h))
    done;
    for rz = 0 to t.pz - 2 do
      let r = rank_at t ~ry ~rz and rn = rank_at t ~ry ~rz:(rz + 1) in
      let w = dd.windows.(r) and wn = dd.windows.(rn) in
      let y0 = w.row_lo - h and y1 = w.row_hi + h in
      unpack_box dat wn ~y0 ~y1 ~z0:(wn.slab_lo - h) ~z1:wn.slab_lo
        (Comm.recv t.comm ~src:r ~dst:rn);
      unpack_box dat w ~y0 ~y1 ~z0:w.slab_hi ~z1:(w.slab_hi + h)
        (Comm.recv t.comm ~src:rn ~dst:r)
    done
  done;
  dd.fresh <- true

(* Two-phase neighbour exchange for one dataset, blocking. *)
let exchange t dat =
  match exchange_start t dat with
  | None -> ()
  | Some token -> exchange_finish t dat token

let par_loop ?ext ?(halo_seconds = ref 0.0) ?(overlap_seconds = ref 0.0) t ~range
    ~args ~kernel =
  List.iter
    (function
      | Arg_dat { stride; _ } when not (is_unit_stride stride) ->
        invalid_arg "ops3-mpi: strided (grid-transfer) stencils are unsupported on \
                     partitioned contexts"
      | Arg_dat _ | Arg_gbl _ | Arg_idx _ -> ())
    args;
  (* Stencil-read datasets needing a ghost exchange (deduplicated).  The
     two-phase pencil exchange is all-or-nothing at the full ghost depth,
     so the inference-tightened extents ([ext], -1 where no proof) act as a
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
  let rank_box r =
    let ry = r mod t.py and rz = r / t.py in
    let own_ylo = if ry = 0 then min_int else t.chunk_y.(ry) in
    let own_yhi = if ry = t.py - 1 then max_int else t.chunk_y.(ry + 1) in
    let own_zlo = if rz = 0 then min_int else t.chunk_z.(rz) in
    let own_zhi = if rz = t.pz - 1 then max_int else t.chunk_z.(rz + 1) in
    let ylo = max range.ylo own_ylo and yhi = min range.yhi own_yhi in
    let zlo = max range.zlo own_zlo and zhi = min range.zhi own_zhi in
    if ylo < yhi && zlo < zhi then Some (ylo, yhi, zlo, zhi) else None
  in
  let run_box r ~ylo ~yhi ~zlo ~zhi =
    if ylo < yhi && zlo < zhi then begin
      let resolvers =
        { Exec.resolve_dat = (fun d -> window_view d (dat_dist t d).windows.(r)) }
      in
      Exec.run_rank t.rank_exec ~resolvers ~axis:Z
        ~range:{ range with ylo; yhi; zlo; zhi } ~args ~kernel
    end
  in
  (* A global Inc reduction is summed in iteration order: splitting the box
     would reorder the additions, so such loops keep the blocking
     exchange. *)
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
      | Some (ylo, yhi, zlo, zhi) -> run_box r ~ylo ~yhi ~zlo ~zhi
    done
  else begin
    (* Interior/boundary split: the interior box stays [margin] away from
       every internal partition boundary.  The margin is the full ghost
       depth (not just the stencil extent) because phase Z packs the planes
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
          | Some (ylo, yhi, zlo, zhi) ->
            let ry = r mod t.py and rz = r / t.py in
            let int_ylo =
              if ry > 0 then max ylo (min yhi (t.chunk_y.(ry) + margin)) else ylo
            in
            let int_yhi =
              if ry < t.py - 1 then
                min yhi (max int_ylo (t.chunk_y.(ry + 1) - margin))
              else yhi
            in
            let int_zlo =
              if rz > 0 then max zlo (min zhi (t.chunk_z.(rz) + margin)) else zlo
            in
            let int_zhi =
              if rz < t.pz - 1 then
                min zhi (max int_zlo (t.chunk_z.(rz + 1) - margin))
              else zhi
            in
            Some
              ( (ylo, yhi, zlo, zhi),
                (int_ylo, max int_ylo int_yhi, int_zlo, max int_zlo int_zhi) ))
    in
    let traced = Obs.tracing () in
    let col_cells = range.xhi - range.xlo in
    let t_core = Unix.gettimeofday () in
    Array.iteri
      (fun r b ->
        match b with
        | None -> ()
        | Some (_, (ylo, yhi, zlo, zhi)) ->
          if traced then Obs.begin_span ~lane:r ~cat:Cat.Loop "core";
          run_box r ~ylo ~yhi ~zlo ~zhi;
          Obs_counters.add Obs.core_elements
            (max 0 (yhi - ylo) * max 0 (zhi - zlo) * col_cells);
          if traced then Obs.end_span ~lane:r ())
      bounds;
    let core_seconds = Unix.gettimeofday () -. t_core in
    if tokens <> [] then begin
      let t_wait = Unix.gettimeofday () in
      List.iter (fun (dat, tok) -> exchange_finish t dat tok) tokens;
      xfer := !xfer +. (Unix.gettimeofday () -. t_wait);
      let hidden = Float.min !xfer core_seconds in
      exposed := !exposed +. (!xfer -. hidden);
      overlap_seconds := !overlap_seconds +. hidden
    end;
    (* Boundary frame in the y-z plane: bottom and top z-slabs full y
       width, then the y sides of the middle band. *)
    Array.iteri
      (fun r b ->
        match b with
        | None -> ()
        | Some ((ylo, yhi, zlo, zhi), (int_ylo, int_yhi, int_zlo, int_zhi)) ->
          if traced then Obs.begin_span ~lane:r ~cat:Cat.Loop "boundary";
          run_box r ~ylo ~yhi ~zlo ~zhi:int_zlo;
          run_box r ~ylo ~yhi:int_ylo ~zlo:int_zlo ~zhi:int_zhi;
          run_box r ~ylo:int_yhi ~yhi ~zlo:int_zlo ~zhi:int_zhi;
          run_box r ~ylo ~yhi ~zlo:int_zhi ~zhi;
          Obs_counters.add Obs.boundary_elements
            (max 0
               ((max 0 (yhi - ylo) * max 0 (zhi - zlo))
               - (max 0 (int_yhi - int_ylo) * max 0 (int_zhi - int_zlo)))
            * col_cells);
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
  let out = Array.make (dat.xsize * dat.ysize * dat.zsize * dat.dim) 0.0 in
  let k = ref 0 in
  for z = 0 to dat.zsize - 1 do
    for y = 0 to dat.ysize - 1 do
      let w = dd.windows.(rank_of_point t ~y ~z) in
      for x = 0 to dat.xsize - 1 do
        for c = 0 to dat.dim - 1 do
          out.(!k) <- w.data.(window_index dat w ~x ~y ~z ~c);
          incr k
        done
      done
    done
  done;
  out

(* Pull every window's owned values (global ghost cells included — the
   edge ranks own them) back into the global padded array: the inverse of
   [push].  Reading only from owners never sees a stale ghost copy. *)
let pull t dat =
  let dd = dat_dist t dat in
  for z = z_min dat to z_max dat - 1 do
    for y = y_min dat to y_max dat - 1 do
      let w = dd.windows.(rank_of_point t ~y ~z) in
      for x = -dat.halo to dat.xsize + dat.halo - 1 do
        for c = 0 to dat.dim - 1 do
          set dat ~x ~y ~z ~c w.data.(window_index dat w ~x ~y ~z ~c)
        done
      done
    done
  done

let push t dat =
  let dd = dat_dist t dat in
  for r = 0 to n_ranks t - 1 do
    let w = dd.windows.(r) in
    for z = max (z_min dat) (w.slab_lo - dat.halo)
        to min (z_max dat - 1) (w.slab_hi + dat.halo - 1) do
      for y = max (y_min dat) (w.row_lo - dat.halo)
          to min (y_max dat - 1) (w.row_hi + dat.halo - 1) do
        for x = -dat.halo to dat.xsize + dat.halo - 1 do
          for c = 0 to dat.dim - 1 do
            w.data.(window_index dat w ~x ~y ~z ~c) <- get dat ~x ~y ~z ~c
          done
        done
      done
    done
  done;
  dd.fresh <- true

(* Reflective boundary mirror: each window mirrors the global ghost cells
   it owns (x on every rank — x is never decomposed — y/z on the edge
   ranks), clamped to its stored box; the next on-demand exchange
   propagates mirrored cells across rank boundaries. *)
let mirror t dat ~depth ~sign_x ~sign_y ~sign_z ~center_x ~center_y ~center_z =
  if depth > dat.halo then invalid_arg "Boundary3.mirror: depth exceeds ghost shell";
  let dd = dat_dist t dat in
  let mirror_low centering k =
    match centering with Boundary3.Cell -> k - 1 | Node -> k
  in
  let mirror_high centering size k =
    match centering with Boundary3.Cell -> size - k | Node -> size - 1 - k
  in
  for r = 0 to n_ranks t - 1 do
    let w = dd.windows.(r) in
    let get x y z c = w.data.(window_index dat w ~x ~y ~z ~c) in
    let set x y z c v = w.data.(window_index dat w ~x ~y ~z ~c) <- v in
    let sy0 = w.row_lo - dat.halo and sy1 = w.row_hi + dat.halo in
    let sz0 = w.slab_lo - dat.halo and sz1 = w.slab_hi + dat.halo in
    (* z mirrors (edge rz ranks), over stored y and interior x. *)
    for k = 1 to depth do
      List.iter
        (fun (ghost_z, src_z) ->
          if ghost_z >= w.slab_lo && ghost_z < w.slab_hi then
            for y = max 0 sy0 to min dat.ysize sy1 - 1 do
              for x = 0 to dat.xsize - 1 do
                for c = 0 to dat.dim - 1 do
                  set x y ghost_z c (sign_z *. get x y src_z c)
                done
              done
            done)
        [ (-k, mirror_low center_z k);
          (dat.zsize - 1 + k, mirror_high center_z dat.zsize k) ]
    done;
    (* y mirrors (edge ry ranks), over all stored z and interior x. *)
    for z = sz0 to sz1 - 1 do
      for k = 1 to depth do
        for x = 0 to dat.xsize - 1 do
          for c = 0 to dat.dim - 1 do
            if -k >= w.row_lo && -k < w.row_hi then
              set x (-k) z c (sign_y *. get x (mirror_low center_y k) z c);
            if dat.ysize - 1 + k >= w.row_lo && dat.ysize - 1 + k < w.row_hi then
              set x (dat.ysize - 1 + k) z c
                (sign_y *. get x (mirror_high center_y dat.ysize k) z c)
          done
        done
      done;
      (* x mirrors on every rank, over the stored y extent of this plane
         (ghost rows included so the rank's own edges stay consistent). *)
      for y = sy0 to sy1 - 1 do
        for k = 1 to depth do
          for c = 0 to dat.dim - 1 do
            set (-k) y z c (sign_x *. get (mirror_low center_x k) y z c);
            set (dat.xsize - 1 + k) y z c
              (sign_x *. get (mirror_high center_x dat.xsize k) y z c)
          done
        done
      done
    done
  done;
  dd.fresh <- false

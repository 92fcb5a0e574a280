(* Distributed 3D backend: z-slab decomposition, the 3D analogue of the 2D
   row decomposition — each rank owns a contiguous slab of z-planes plus a
   ghost shell of whole padded planes; centre-only writes mean the only
   communication is the on-demand ghost-plane exchange before loops reading
   through offset stencils. *)

module Obs = Am_obs.Obs
module Obs_counters = Am_obs.Counters
module Cat = Am_obs.Tracer
module Access = Am_core.Access
module Comm = Am_simmpi.Comm
open Types

type window = {
  slab_lo : int; (* first owned z-plane (global numbering) *)
  slab_hi : int;
  data : float array; (* planes [slab_lo - halo, slab_hi + halo) *)
}

type dat_dist = { windows : window array; mutable fresh : bool }

type t = {
  comm : Comm.t;
  n_ranks : int;
  ref_zsize : int;
  chunk : int array;
  dat_dists : (int, dat_dist) Hashtbl.t;
  env : env;
  mutable rank_exec : Exec.rank_exec;
  mutable overlap : bool;
}

let owned_slabs t dat r =
  let lo = if r = 0 then -dat.halo else t.chunk.(r) in
  let hi = if r = t.n_ranks - 1 then dat.zsize + dat.halo else t.chunk.(r + 1) in
  (lo, hi)

let rank_of_plane t z =
  if z < t.chunk.(1) then 0
  else if z >= t.chunk.(t.n_ranks - 1) then t.n_ranks - 1
  else begin
    let r = ref 1 in
    while not (z >= t.chunk.(!r) && z < t.chunk.(!r + 1)) do
      incr r
    done;
    !r
  end

(* Values per padded z-plane. *)
let plane_values dat = padded_x dat * padded_y dat * dat.dim

let window_index dat w ~x ~y ~z ~c =
  ((((z - (w.slab_lo - dat.halo)) * padded_y dat) + (y + dat.halo)) * padded_x dat
   + (x + dat.halo))
  * dat.dim
  + c

let window_view dat w : Exec.view =
  let px = padded_x dat and py = padded_y dat in
  {
    Exec.vdata = w.data;
    vbase = (((((dat.halo - w.slab_lo) * py) + dat.halo) * px) + dat.halo) * dat.dim;
    vplane = py * px * dat.dim;
    vrow = px * dat.dim;
    vcol = dat.dim;
  }

let build env ~n_ranks ~ref_zsize =
  if n_ranks <= 0 then invalid_arg "Ops3 dist: n_ranks must be positive";
  if ref_zsize < n_ranks then invalid_arg "Ops3 dist: fewer planes than ranks";
  let max_halo = List.fold_left (fun acc d -> max acc d.halo) 0 (dats env) in
  let chunk = Array.init (n_ranks + 1) (fun r -> r * ref_zsize / n_ranks) in
  for r = 0 to n_ranks - 1 do
    if n_ranks > 1 && chunk.(r + 1) - chunk.(r) < max_halo then
      invalid_arg
        (Printf.sprintf "Ops3 dist: rank %d owns %d planes, fewer than ghost depth %d"
           r (chunk.(r + 1) - chunk.(r)) max_halo)
  done;
  List.iter
    (fun d ->
      if d.zsize < ref_zsize then
        invalid_arg
          (Printf.sprintf "Ops3 dist: dat %s has %d planes, reference space has %d"
             d.dat_name d.zsize ref_zsize))
    (dats env);
  let t =
    { comm = Comm.create ~n_ranks; n_ranks; ref_zsize; chunk;
      dat_dists = Hashtbl.create 16; env; rank_exec = Exec.Rank_seq; overlap = false }
  in
  List.iter
    (fun dat ->
      let pv = plane_values dat in
      let windows =
        Array.init n_ranks (fun r ->
            let slab_lo, slab_hi = owned_slabs t dat r in
            let planes = slab_hi - slab_lo + (2 * dat.halo) in
            let w = { slab_lo; slab_hi; data = Array.make (planes * pv) 0.0 } in
            for z = max (z_min dat) (slab_lo - dat.halo)
                to min (z_max dat - 1) (slab_hi + dat.halo - 1) do
              for y = -dat.halo to dat.ysize + dat.halo - 1 do
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

let pack_planes dat w ~plane ~count =
  let pv = plane_values dat in
  let out = Array.make (count * pv) 0.0 in
  let base = window_index dat w ~x:(-dat.halo) ~y:(-dat.halo) ~z:plane ~c:0 in
  Array.blit w.data base out 0 (Array.length out);
  out

let unpack_planes dat w ~plane payload =
  let base = window_index dat w ~x:(-dat.halo) ~y:(-dat.halo) ~z:plane ~c:0 in
  Array.blit payload 0 w.data base (Array.length payload)

(* An in-flight ghost-plane exchange: the posted receives, tagged with the
   receiving rank and whether the payload came from the rank below (lands
   in the bottom ghost planes) or above. *)
type token = { tok_recvs : (int * bool * Comm.request) list }

(* Pack/post half of the neighbour exchange; [None] when the dirty-bit says
   the ghost planes are fresh. *)
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
      let traced = Obs.tracing () in
      for r = 0 to t.n_ranks - 2 do
        let w = dd.windows.(r) and wn = dd.windows.(r + 1) in
        if traced then Obs.begin_span ~lane:r ~cat:Cat.Halo_pack "pack_planes";
        let up = pack_planes dat w ~plane:(w.slab_hi - h) ~count:h in
        if traced then Obs.end_span ~lane:r ();
        ignore (Comm.isend t.comm ~src:r ~dst:(r + 1) up);
        if traced then Obs.begin_span ~lane:(r + 1) ~cat:Cat.Halo_pack "pack_planes";
        let down = pack_planes dat wn ~plane:wn.slab_lo ~count:h in
        if traced then Obs.end_span ~lane:(r + 1) ();
        ignore (Comm.isend t.comm ~src:(r + 1) ~dst:r down)
      done;
      let recvs = ref [] in
      for r = t.n_ranks - 2 downto 0 do
        recvs :=
          (r + 1, true, Comm.irecv t.comm ~src:r ~dst:(r + 1))
          :: (r, false, Comm.irecv t.comm ~src:(r + 1) ~dst:r)
          :: !recvs
      done;
      Some { tok_recvs = !recvs }
    end
  end
  else None

(* Wait half: completes the receives and unpacks the ghost planes. *)
let exchange_finish t dat token =
  let dd = dat_dist t dat in
  let h = dat.halo in
  let traced = Obs.tracing () in
  List.iter
    (fun (r, from_below, req) ->
      let payload = Comm.wait t.comm req in
      let w = dd.windows.(r) in
      let plane = if from_below then w.slab_lo - h else w.slab_hi in
      if traced then Obs.begin_span ~lane:r ~cat:Cat.Halo_unpack "unpack_planes";
      unpack_planes dat w ~plane payload;
      if traced then Obs.end_span ~lane:r ())
    token.tok_recvs;
  dd.fresh <- true

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
  (* Stencil-read datasets needing an exchange, with the deepest stencil of
     the loop on each (that decides the interior margin).  Footprint
     inference tightens the margin to the observed read extent ([ext], -1
     where no proof); observed centre-only reads skip the exchange. *)
  let seen = Hashtbl.create 4 in
  List.iteri
    (fun i arg ->
      match arg with
      | Arg_dat { dat; stencil; access; _ }
        when Access.reads access && stencil_extent stencil > 0 ->
        let declared = stencil_extent stencil in
        let need =
          match ext with
          | Some e when i < Array.length e && e.(i) >= 0 && e.(i) < declared ->
            Obs_counters.add Obs.halo_depth_saved (declared - e.(i));
            e.(i)
          | Some _ | None -> declared
        in
        if need > 0 then begin
          let prev = try Hashtbl.find seen dat.dat_id with Not_found -> 0 in
          if need > prev then Hashtbl.replace seen dat.dat_id need
        end
      | Arg_dat _ | Arg_gbl _ | Arg_idx _ -> ())
    args;
  let needs =
    Hashtbl.fold
      (fun dat_id need acc ->
        (List.find (fun d -> d.dat_id = dat_id) (dats t.env), need) :: acc)
      seen []
    |> List.sort (fun (a, _) (b, _) -> compare a.dat_id b.dat_id)
  in
  let exposed = ref 0.0 and xfer = ref 0.0 in
  let rank_planes r =
    let lo = ref max_int and hi = ref min_int in
    for z = range.zlo to range.zhi - 1 do
      if rank_of_plane t z = r then begin
        if z < !lo then lo := z;
        if z + 1 > !hi then hi := z + 1
      end
    done;
    if !lo > !hi then None else Some (!lo, !hi)
  in
  let run_planes r ~lo ~hi =
    if hi > lo then begin
      let resolvers =
        { Exec.resolve_dat = (fun d -> window_view d (dat_dist t d).windows.(r)) }
      in
      Exec.run_rank t.rank_exec ~resolvers ~axis:Z
        ~range:{ range with zlo = lo; zhi = hi } ~args ~kernel
    end
  in
  (* A global Inc reduction is summed in plane order: splitting the range
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
        (fun (dat, _) ->
          let t0 = Unix.gettimeofday () in
          exchange t dat;
          exposed := !exposed +. (Unix.gettimeofday () -. t0))
        needs;
      []
    end
    else
      List.filter_map
        (fun (dat, need) ->
          let t0 = Unix.gettimeofday () in
          let tok = exchange_start t dat in
          xfer := !xfer +. (Unix.gettimeofday () -. t0);
          Option.map (fun tok -> (dat, tok, need)) tok)
        needs
  in
  if tokens = [] then
    for r = 0 to t.n_ranks - 1 do
      match rank_planes r with
      | None -> ()
      | Some (lo, hi) -> run_planes r ~lo ~hi
    done
  else begin
    (* Interior/boundary split: interior slabs stay [margin] planes away
       from internal partition boundaries and run while the ghost planes
       are in flight; centre-only writes make the order immaterial. *)
    let margin =
      List.fold_left (fun acc (_, _, need) -> max acc need) 0 tokens
    in
    let bounds =
      Array.init t.n_ranks (fun r ->
          match rank_planes r with
          | None -> None
          | Some (lo, hi) ->
            let int_lo =
              if r > 0 then max lo (min hi (t.chunk.(r) + margin)) else lo
            in
            let int_hi =
              if r < t.n_ranks - 1 then
                min hi (max int_lo (t.chunk.(r + 1) - margin))
              else hi
            in
            Some (lo, hi, int_lo, max int_lo int_hi))
    in
    let traced = Obs.tracing () in
    let plane_cells = (range.xhi - range.xlo) * (range.yhi - range.ylo) in
    let t_core = Unix.gettimeofday () in
    Array.iteri
      (fun r b ->
        match b with
        | None -> ()
        | Some (_, _, int_lo, int_hi) ->
          if traced then Obs.begin_span ~lane:r ~cat:Cat.Loop "core";
          run_planes r ~lo:int_lo ~hi:int_hi;
          Obs_counters.add Obs.core_elements ((int_hi - int_lo) * plane_cells);
          if traced then Obs.end_span ~lane:r ())
      bounds;
    let core_seconds = Unix.gettimeofday () -. t_core in
    if tokens <> [] then begin
      let t_wait = Unix.gettimeofday () in
      List.iter (fun (dat, tok, _) -> exchange_finish t dat tok) tokens;
      xfer := !xfer +. (Unix.gettimeofday () -. t_wait);
      let hidden = Float.min !xfer core_seconds in
      exposed := !exposed +. (!xfer -. hidden);
      overlap_seconds := !overlap_seconds +. hidden
    end;
    Array.iteri
      (fun r b ->
        match b with
        | None -> ()
        | Some (lo, hi, int_lo, int_hi) ->
          if traced then Obs.begin_span ~lane:r ~cat:Cat.Loop "boundary";
          run_planes r ~lo ~hi:int_lo;
          run_planes r ~lo:int_hi ~hi;
          Obs_counters.add Obs.boundary_elements
            (((int_lo - lo) + (hi - int_hi)) * plane_cells);
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
    let w = dd.windows.(rank_of_plane t z) in
    for y = 0 to dat.ysize - 1 do
      for x = 0 to dat.xsize - 1 do
        for c = 0 to dat.dim - 1 do
          out.(!k) <- w.data.(window_index dat w ~x ~y ~z ~c);
          incr k
        done
      done
    done
  done;
  out

(* Pull every window's owned values (global ghost planes included — the
   edge ranks own them) back into the global padded array: the inverse of
   [push].  Reading only from owners never sees a stale ghost copy. *)
let pull t dat =
  let dd = dat_dist t dat in
  for z = z_min dat to z_max dat - 1 do
    let w = dd.windows.(rank_of_plane t z) in
    for y = -dat.halo to dat.ysize + dat.halo - 1 do
      for x = -dat.halo to dat.xsize + dat.halo - 1 do
        for c = 0 to dat.dim - 1 do
          set dat ~x ~y ~z ~c w.data.(window_index dat w ~x ~y ~z ~c)
        done
      done
    done
  done

let push t dat =
  let dd = dat_dist t dat in
  for r = 0 to t.n_ranks - 1 do
    let w = dd.windows.(r) in
    for z = max (z_min dat) (w.slab_lo - dat.halo)
        to min (z_max dat - 1) (w.slab_hi + dat.halo - 1) do
      for y = -dat.halo to dat.ysize + dat.halo - 1 do
        for x = -dat.halo to dat.xsize + dat.halo - 1 do
          for c = 0 to dat.dim - 1 do
            w.data.(window_index dat w ~x ~y ~z ~c) <- get dat ~x ~y ~z ~c
          done
        done
      done
    done
  done;
  dd.fresh <- true

(* Reflective boundary mirror per rank window; ghost copies of neighbours'
   planes may then hold stale face columns, so the dataset is re-exchanged
   on next stencil read. *)
let mirror t dat ~depth ~sign_x ~sign_y ~sign_z ~center_x ~center_y ~center_z =
  let dd = dat_dist t dat in
  for r = 0 to t.n_ranks - 1 do
    let w = dd.windows.(r) in
    Boundary3.apply (window_view dat w) ~dat ~depth ~sign_x ~sign_y ~sign_z ~center_x
      ~center_y ~center_z ~slab_lo:w.slab_lo ~slab_hi:w.slab_hi
  done;
  dd.fresh <- false

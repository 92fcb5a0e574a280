(* Distributed-memory backend of OPS: one-dimensional (row) decomposition.

   The reference index space [0, ref_ysize) is split into contiguous row
   chunks, one per rank.  Each dataset is scattered into per-rank windows
   holding the owned rows plus a ghost ring of the dataset's halo depth;
   datasets taller than the reference space (staggered fields, e.g. a
   CloverLeaf y-velocity with ysize+1 rows) give their extra rows to the
   last rank, and the global ghost rows at the bottom/top belong to the
   first/last rank.

   Because OPS writes are center-only, owner-compute needs no reductions:
   the only communication is the on-demand ghost-row exchange before loops
   that read through offset stencils — triggered, exactly as in the paper,
   by the access descriptors and declared stencils.  Whole padded rows are
   exchanged (x-ghost columns included) so boundary data stays consistent. *)

module Obs = Am_obs.Obs
module Obs_counters = Am_obs.Counters
module Cat = Am_obs.Tracer
module Access = Am_core.Access
module Comm = Am_simmpi.Comm
open Types

type window = {
  row_lo : int; (* first owned row (global numbering) *)
  row_hi : int; (* end of owned rows *)
  data : float array; (* rows [row_lo - halo, row_hi + halo), parent stride *)
}

(* [fresh_depth] = how many ghost rows are currently valid (0 after a
   write, up to the dataset's halo after a full exchange): loops whose
   stencils reach only k rows deep trigger a k-row exchange, not a full
   one — OPS's per-stencil update_halo depths. *)
type dat_dist = { windows : window array; mutable fresh_depth : int }

type t = {
  comm : Comm.t;
  n_ranks : int;
  ref_ysize : int;
  chunk : int array; (* chunk.(r) = first reference row of rank r; chunk.(P) = ref *)
  dat_dists : (int, dat_dist) Hashtbl.t;
  env : env;
  mutable rank_exec : Exec.rank_exec;
  mutable eager_halo : bool;
  mutable overlap : bool; (* post exchange, run interior, wait, run boundary *)
}

(* Owned-row interval of dataset [dat] on rank [r]. *)
let owned_rows t dat r =
  let lo = if r = 0 then -dat.halo else t.chunk.(r) in
  let hi = if r = t.n_ranks - 1 then dat.ysize + dat.halo else t.chunk.(r + 1) in
  (lo, hi)

(* Executing rank of a loop row (global numbering, ghost rows included). *)
let rank_of_row t y =
  if y < t.chunk.(1) then 0
  else if y >= t.chunk.(t.n_ranks - 1) then t.n_ranks - 1
  else begin
    let r = ref 1 in
    while not (y >= t.chunk.(!r) && y < t.chunk.(!r + 1)) do
      incr r
    done;
    !r
  end

let window_index dat w ~x ~y ~c =
  let padded_width = dat.xsize + (2 * dat.halo) in
  ((((y - (w.row_lo - dat.halo)) * padded_width) + (x + dat.halo)) * dat.dim) + c

let window_view dat w : Exec.view =
  let padded_width = dat.xsize + (2 * dat.halo) in
  {
    Exec.vdata = w.data;
    vbase = (((dat.halo - w.row_lo) * padded_width) + dat.halo) * dat.dim;
    vplane = Array.length w.data;
    vrow = padded_width * dat.dim;
    vcol = dat.dim;
  }

let build env ~n_ranks ~ref_ysize =
  if n_ranks <= 0 then invalid_arg "Ops dist: n_ranks must be positive";
  if ref_ysize < n_ranks then invalid_arg "Ops dist: fewer rows than ranks";
  let max_halo =
    List.fold_left (fun acc d -> max acc d.halo) 0 (dats env)
  in
  let chunk = Array.init (n_ranks + 1) (fun r -> r * ref_ysize / n_ranks) in
  for r = 0 to n_ranks - 1 do
    if n_ranks > 1 && chunk.(r + 1) - chunk.(r) < max_halo then
      invalid_arg
        (Printf.sprintf
           "Ops dist: rank %d owns %d rows, fewer than the ghost depth %d" r
           (chunk.(r + 1) - chunk.(r)) max_halo)
  done;
  List.iter
    (fun d ->
      if d.ysize < ref_ysize then
        invalid_arg
          (Printf.sprintf "Ops dist: dat %s has %d rows, reference space has %d"
             d.dat_name d.ysize ref_ysize))
    (dats env);
  let t =
    {
      comm = Comm.create ~n_ranks;
      n_ranks;
      ref_ysize;
      chunk;
      dat_dists = Hashtbl.create 16;
      env;
      rank_exec = Exec.Rank_seq;
      eager_halo = false;
      overlap = false;
    }
  in
  List.iter
    (fun dat ->
      let padded_width = dat.xsize + (2 * dat.halo) in
      let windows =
        Array.init n_ranks (fun r ->
            let row_lo, row_hi = owned_rows t dat r in
            let rows = row_hi - row_lo + (2 * dat.halo) in
            let w = { row_lo; row_hi; data = Array.make (rows * padded_width * dat.dim) 0.0 } in
            (* Scatter from the global array, clamped to its addressable rows. *)
            for y = max (y_min dat) (row_lo - dat.halo)
                to min (y_max dat - 1) (row_hi + dat.halo - 1) do
              for x = -dat.halo to dat.xsize + dat.halo - 1 do
                for c = 0 to dat.dim - 1 do
                  w.data.(window_index dat w ~x ~y ~c) <- get dat ~x ~y ~z:0 ~c
                done
              done
            done;
            w)
      in
      Hashtbl.add t.dat_dists dat.dat_id { windows; fresh_depth = dat.halo })
    (dats env);
  t

let dat_dist t dat = Hashtbl.find t.dat_dists dat.dat_id

(* Copy [count] whole padded rows starting at global row [row] into a flat
   payload, and back. *)
let pack_rows dat w ~row ~count =
  let padded_width = dat.xsize + (2 * dat.halo) in
  let out = Array.make (count * padded_width * dat.dim) 0.0 in
  let base = window_index dat w ~x:(-dat.halo) ~y:row ~c:0 in
  Array.blit w.data base out 0 (Array.length out);
  out

let unpack_rows dat w ~row payload =
  let base = window_index dat w ~x:(-dat.halo) ~y:row ~c:0 in
  Array.blit payload 0 w.data base (Array.length payload)

(* An in-flight ghost-row exchange: the exchanged depth and the posted
   receives, each tagged with the receiving rank and whether the payload
   lands in its bottom ghost (sent by the rank below) or top ghost. *)
type token = { tok_h : int; tok_recvs : (int * bool * Comm.request) list }

(* Neighbour ghost-row exchange for one dataset, to [depth] rows: pack/post
   half.  On-demand by default (skip — [None] — when the dirty-bit says
   enough ghost rows are fresh); [eager_halo] forces a full exchange every
   time, for the halo-policy ablation. *)
let exchange_start ?depth t dat =
  let dd = dat_dist t dat in
  let need = match depth with Some d -> min d dat.halo | None -> dat.halo in
  if dd.fresh_depth < need || t.eager_halo then begin
    Comm.count_exchange t.comm;
    let h = if t.eager_halo then dat.halo else need in
    if h = 0 then begin
      dd.fresh_depth <- max dd.fresh_depth h;
      None
    end
    else begin
      let traced = Obs.tracing () in
      for r = 0 to t.n_ranks - 2 do
        let w = dd.windows.(r) and wn = dd.windows.(r + 1) in
        (* r's top owned rows -> (r+1)'s bottom ghost. *)
        if traced then Obs.begin_span ~lane:r ~cat:Cat.Halo_pack "pack_rows";
        let up = pack_rows dat w ~row:(w.row_hi - h) ~count:h in
        if traced then Obs.end_span ~lane:r ();
        ignore (Comm.isend t.comm ~src:r ~dst:(r + 1) up);
        (* (r+1)'s bottom owned rows -> r's top ghost. *)
        if traced then Obs.begin_span ~lane:(r + 1) ~cat:Cat.Halo_pack "pack_rows";
        let down = pack_rows dat wn ~row:wn.row_lo ~count:h in
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
      Some { tok_h = h; tok_recvs = !recvs }
    end
  end
  else None

(* Wait half: completes the receives and unpacks the h ghost rows nearest
   each boundary — [row_lo - h, row_lo) below, [row_hi, row_hi + h) above. *)
let exchange_finish t dat token =
  let dd = dat_dist t dat in
  let h = token.tok_h in
  let traced = Obs.tracing () in
  List.iter
    (fun (r, from_below, req) ->
      let payload = Comm.wait t.comm req in
      let w = dd.windows.(r) in
      let row = if from_below then w.row_lo - h else w.row_hi in
      if traced then Obs.begin_span ~lane:r ~cat:Cat.Halo_unpack "unpack_rows";
      unpack_rows dat w ~row payload;
      if traced then Obs.end_span ~lane:r ())
    token.tok_recvs;
  dd.fresh_depth <- max dd.fresh_depth h

let exchange ?depth t dat =
  match exchange_start ?depth t dat with
  | None -> ()
  | Some token -> exchange_finish t dat token

(* ---- Loop execution --------------------------------------------------- *)

let par_loop ?ext ?(halo_seconds = ref 0.0) ?(overlap_seconds = ref 0.0) t ~range
    ~args ~kernel =
  (* Grid-transfer strides cross the row decomposition arbitrarily:
     unsupported on partitioned contexts (multigrid levels would need a
     proportional decomposition). *)
  List.iter
    (function
      | Arg_dat { stride; _ } when not (is_unit_stride stride) ->
        invalid_arg "ops-mpi: strided (grid-transfer) stencils are unsupported on \
                     partitioned contexts"
      | Arg_dat _ | Arg_gbl _ | Arg_idx _ -> ())
    args;
  (* Ghost exchanges for stencil-read datasets (deduplicated per dataset).
     When footprint inference proved the kernel's read extent shallower
     than its declared stencil ([ext], -1 where no proof), the exchange
     depth — and the overlap margin downstream — shrink to the observed
     extent; depth 0 drops the exchange altogether. *)
  let seen = Hashtbl.create 4 in
  List.iteri
    (fun i arg ->
      match arg with
      | Arg_dat { dat; stencil; access; _ }
        when Access.reads access && stencil_extent stencil > 0 ->
        (* Deepest stencil of this loop on this dataset decides the depth. *)
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
  (* Rows of the range rank [r] executes (contiguous by construction). *)
  let rank_rows r =
    let lo = ref max_int and hi = ref min_int in
    for y = range.ylo to range.yhi - 1 do
      if rank_of_row t y = r then begin
        if y < !lo then lo := y;
        if y + 1 > !hi then hi := y + 1
      end
    done;
    if !lo > !hi then None else Some (!lo, !hi)
  in
  let run_rows r ~lo ~hi =
    if hi > lo then begin
      let resolvers =
        { Exec.resolve_dat = (fun d -> window_view d (dat_dist t d).windows.(r)) }
      in
      Exec.run_rank t.rank_exec ~resolvers ~axis:Y
        ~range:{ range with ylo = lo; yhi = hi } ~args ~kernel
    end
  in
  (* A global Inc reduction is summed in row order: splitting the range
     would reorder the additions and change the rounding, so such loops
     keep the blocking exchange.  Min/Max reductions and dat writes are
     order-insensitive. *)
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
        (fun (dat, need) ->
          let t0 = Unix.gettimeofday () in
          exchange ~depth:need t dat;
          exposed := !exposed +. (Unix.gettimeofday () -. t0))
        needs;
      []
    end
    else
      List.filter_map
        (fun (dat, need) ->
          let t0 = Unix.gettimeofday () in
          let tok = exchange_start ~depth:need t dat in
          xfer := !xfer +. (Unix.gettimeofday () -. t0);
          Option.map (fun tok -> (dat, tok, need)) tok)
        needs
  in
  if tokens = [] then
    for r = 0 to t.n_ranks - 1 do
      match rank_rows r with
      | None -> ()
      | Some (lo, hi) -> run_rows r ~lo ~hi
    done
  else begin
    (* Interior/boundary split: rows whose stencils stay inside the owned
       interval run while the ghost rows are in flight; the strips within
       [margin] of an internal partition boundary wait.  Centre-only writes
       make the order immaterial, so results match blocking bitwise. *)
    let margin =
      List.fold_left (fun acc (_, _, need) -> max acc need) 0 tokens
    in
    let bounds =
      Array.init t.n_ranks (fun r ->
          match rank_rows r with
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
    let row_width = range.xhi - range.xlo in
    let t_core = Unix.gettimeofday () in
    Array.iteri
      (fun r b ->
        match b with
        | None -> ()
        | Some (_, _, int_lo, int_hi) ->
          if traced then Obs.begin_span ~lane:r ~cat:Cat.Loop "core";
          run_rows r ~lo:int_lo ~hi:int_hi;
          Obs_counters.add Obs.core_elements ((int_hi - int_lo) * row_width);
          if traced then Obs.end_span ~lane:r ())
      bounds;
    let core_seconds = Unix.gettimeofday () -. t_core in
    if tokens <> [] then begin
      let t_wait = Unix.gettimeofday () in
      List.iter (fun (dat, tok, _) -> exchange_finish t dat tok) tokens;
      xfer := !xfer +. (Unix.gettimeofday () -. t_wait);
      (* Ranks run back to back in the simulator, so overlap is credited
         analytically: exchange time covered by interior compute is hidden,
         only the excess is exposed. *)
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
          run_rows r ~lo ~hi:int_lo;
          run_rows r ~lo:int_hi ~hi;
          Obs_counters.add Obs.boundary_elements
            (((int_lo - lo) + (hi - int_hi)) * row_width);
          if traced then Obs.end_span ~lane:r ())
      bounds
  end;
  halo_seconds := !halo_seconds +. !exposed;
  (* Post: written datasets' ghosts are stale; count global reductions. *)
  List.iter
    (function
      | Arg_dat { dat; access; _ } when Access.writes access ->
        (dat_dist t dat).fresh_depth <- 0
      | Arg_gbl { access; _ } when access <> Access.Read ->
        Comm.count_reduction t.comm
      | Arg_dat _ | Arg_gbl _ | Arg_idx _ -> ())
    args

(* Assemble the interior of a dataset from its owners. *)
let fetch_interior t dat =
  let dd = dat_dist t dat in
  let out = Array.make (dat.xsize * dat.ysize * dat.dim) 0.0 in
  let k = ref 0 in
  for y = 0 to dat.ysize - 1 do
    let r = rank_of_row t y in
    let w = dd.windows.(r) in
    for x = 0 to dat.xsize - 1 do
      for c = 0 to dat.dim - 1 do
        out.(!k) <- w.data.(window_index dat w ~x ~y ~c);
        incr k
      done
    done
  done;
  out

(* Pull every window's owned values (global ghost rows included — the edge
   ranks own them) back into the global padded array: the inverse of [push].
   Reading only from owners never sees a stale ghost copy, so the result is
   exact whatever each dataset's current [fresh_depth]. *)
let pull t dat =
  let dd = dat_dist t dat in
  for y = y_min dat to y_max dat - 1 do
    let w = dd.windows.(rank_of_row t y) in
    for x = -dat.halo to dat.xsize + dat.halo - 1 do
      for c = 0 to dat.dim - 1 do
        set dat ~x ~y ~z:0 ~c w.data.(window_index dat w ~x ~y ~c)
      done
    done
  done

(* Push the global array's current contents into every window (ghosts too). *)
let push t dat =
  let dd = dat_dist t dat in
  for r = 0 to t.n_ranks - 1 do
    let w = dd.windows.(r) in
    for y = max (y_min dat) (w.row_lo - dat.halo)
        to min (y_max dat - 1) (w.row_hi + dat.halo - 1) do
      for x = -dat.halo to dat.xsize + dat.halo - 1 do
        for c = 0 to dat.dim - 1 do
          w.data.(window_index dat w ~x ~y ~c) <- get dat ~x ~y ~z:0 ~c
        done
      done
    done
  done;
  dd.fresh_depth <- dat.halo

(* Reflective boundary mirror on every rank's window (see [Boundary]): each
   rank mirrors the x-ghost columns of its stored rows; the global y-ghost
   rows belong to the edge ranks' owned intervals. Ghost copies of interior
   rows may now hold stale x-columns, so the dataset is marked for
   re-exchange. *)
let mirror t dat ~depth ~sign_x ~sign_y ~center_x ~center_y =
  let dd = dat_dist t dat in
  for r = 0 to t.n_ranks - 1 do
    let w = dd.windows.(r) in
    Boundary.apply (window_view dat w) ~dat ~depth ~sign_x ~sign_y ~center_x ~center_y
      ~row_lo:w.row_lo ~row_hi:w.row_hi
  done;
  dd.fresh_depth <- 0

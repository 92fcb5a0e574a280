(* Core value types of the multi-block structured-mesh active library (the
   paper's OPS), shared by the 1D, 2D and 3D facades.

   A [block] is a logical index space of rank 1, 2 or 3 — the paper's
   blocks have "a number of dimensions (1D, 2D, 3D, etc.)" — with no size
   of its own; datasets ([dat]) live on a block, each with its *own*
   extents — this is how OPS accommodates cell-, face- and node-centred
   fields of different sizes on one block (e.g. CloverLeaf's staggered
   grid) as well as multigrid levels.

   Every block is stored at rank 3.  A 2D block is a 3D one whose z extent
   is 1, a 1D block one whose y and z extents are 1, and an absent axis
   carries no ghost cells: a 2D dataset's padded array is exactly the
   row-major (xsize+2h) x (ysize+2h) array and a 1D dataset's the
   (xsize+2h) vector, so one index space, one validation and one executor
   serve all three facades.

   Every dataset carries [halo] ghost cells on both sides of each of its
   block's axes, so stencils evaluated near a range boundary stay in
   bounds; boundary conditions are written by running loops over ranges
   that extend into the ghost cells.  Computation is expressed as parallel
   loops over boxes, with per-argument stencils and access descriptors. *)

module Access = Am_core.Access

type block = { block_id : int; block_name : string; rank : int (* 1, 2 or 3 *) }

type dat = {
  dat_id : int;
  dat_name : string;
  dat_block : block;
  xsize : int; (* interior extent in x *)
  ysize : int; (* 1 on a 1D block *)
  zsize : int; (* 1 below rank 3 *)
  halo : int; (* ghost width on both sides of each of the block's axes *)
  dim : int; (* components per point *)
  mutable data : float array; (* x fastest, then y, then z; padded *)
}

(* A stencil is the facade's own array of relative offsets — (dx), (dx, dy)
   or (dx, dy, dz) — held as it is, so an argument reaches the core without
   a per-call conversion; an axis the offsets do not name reads as 0.
   Point 0 of the centre-only stencil is the iteration point. *)
type stencil = S1 of int array | S2 of (int * int) array | S3 of (int * int * int) array

let npoints = function
  | S1 a -> Array.length a
  | S2 a -> Array.length a
  | S3 a -> Array.length a

let[@inline] ox s p =
  match s with
  | S1 a -> Array.unsafe_get a p
  | S2 a -> fst (Array.unsafe_get a p)
  | S3 a ->
    let x, _, _ = Array.unsafe_get a p in
    x

let[@inline] oy s p =
  match s with
  | S1 _ -> 0
  | S2 a -> snd (Array.unsafe_get a p)
  | S3 a ->
    let _, y, _ = Array.unsafe_get a p in
    y

let[@inline] oz s p =
  match s with
  | S1 _ | S2 _ -> 0
  | S3 a ->
    let _, _, z = Array.unsafe_get a p in
    z

let is_center_only s = npoints s = 1 && ox s 0 = 0 && oy s 0 = 0 && oz s 0 = 0

(* Chebyshev radius of point [p], and of the whole stencil. *)
let point_extent s p = max (abs (ox s p)) (max (abs (oy s p)) (abs (oz s p)))

let stencil_extent s =
  let e = ref 0 in
  for p = 0 to npoints s - 1 do
    e := max !e (point_extent s p)
  done;
  !e

(* Grid-transfer stride: the accessed point for iteration (x, y, z) and
   offset (dx, dy, dz) is (floor(x*xn/xd) + dx, ...).  Unit stride is
   ordinary stencil access; xn = f (restriction) reads a finer grid from a
   coarse loop, xd = f (prolongation) reads a coarser grid from a fine loop
   — the "multi-grid situations" OPS's per-dat sizes exist for. *)
type stride = { xn : int; xd : int; yn : int; yd : int; zn : int; zd : int }

let unit_stride = { xn = 1; xd = 1; yn = 1; yd = 1; zn = 1; zd = 1 }
let is_unit_stride s = s = unit_stride

(* Floor division (OCaml's / truncates towards zero). *)
let floordiv a b = if a >= 0 then a / b else -(((-a) + b - 1) / b)

let[@inline] stride_x s x = floordiv (x * s.xn) s.xd
let[@inline] stride_y s y = floordiv (y * s.yn) s.yd
let[@inline] stride_z s z = floordiv (z * s.zn) s.zd

type arg =
  | Arg_dat of { dat : dat; stencil : stencil; access : Access.t; stride : stride }
  | Arg_gbl of { name : string; buf : float array; access : Access.t }
  | Arg_idx of int (* the kernel receives the block's [rank] iteration indices *)

(* Whether two argument lists name the same datasets, stencils, strides,
   global buffers and access modes: the compares [Exec.compiled_matches]
   makes, list against list, allocating nothing. *)
let rec args_match a b =
  match (a, b) with
  | [], [] -> true
  | x :: a, y :: b -> arg_match x y && args_match a b
  | [], _ :: _ | _ :: _, [] -> false

and arg_match x y =
  match (x, y) with
  | Arg_dat d1, Arg_dat d2 ->
    d1.dat == d2.dat && d1.access = d2.access
    && (d1.stencil == d2.stencil || d1.stencil = d2.stencil)
    && d1.stride = d2.stride
  | Arg_gbl g1, Arg_gbl g2 -> g1.buf == g2.buf && g1.access = g2.access
  | Arg_idx r1, Arg_idx r2 -> r1 = r2
  | (Arg_dat _ | Arg_gbl _ | Arg_idx _), _ -> false

(* Half-open iteration box; an absent axis iterates over [0, 1). *)
type range = { xlo : int; xhi : int; ylo : int; yhi : int; zlo : int; zhi : int }

let range_size r =
  max 0 (r.xhi - r.xlo) * max 0 (r.yhi - r.ylo) * max 0 (r.zhi - r.zlo)

(* Points and ranges print in the block's own rank: (x), (x,y), (x,y,z). *)
let point_to_string ~rank x y z =
  match rank with
  | 1 -> Printf.sprintf "(%d)" x
  | 2 -> Printf.sprintf "(%d,%d)" x y
  | _ -> Printf.sprintf "(%d,%d,%d)" x y z

let range_to_string ~rank r =
  match rank with
  | 1 -> Printf.sprintf "[%d,%d)" r.xlo r.xhi
  | 2 -> Printf.sprintf "[%d,%d)x[%d,%d)" r.xlo r.xhi r.ylo r.yhi
  | _ -> Printf.sprintf "[%d,%d)x[%d,%d)x[%d,%d)" r.xlo r.xhi r.ylo r.yhi r.zlo r.zhi

(* The facade a rank belongs to, for error messages. *)
let facade rank = match rank with 1 -> "Ops1" | 2 -> "Ops" | _ -> "Ops3"

(* The axes of the rank-3 box.  The Shared backend and rank windows split
   a block's outermost (slowest-varying) axis. *)
type axis = X | Y | Z

let outer_axis rank = match rank with 1 -> X | 2 -> Y | _ -> Z
let axis_name = function X -> "x" | Y -> "y" | Z -> "z"
let lo axis r = match axis with X -> r.xlo | Y -> r.ylo | Z -> r.zlo
let hi axis r = match axis with X -> r.xhi | Y -> r.yhi | Z -> r.zhi

let with_axis axis r ~lo ~hi =
  match axis with
  | X -> { r with xlo = lo; xhi = hi }
  | Y -> { r with ylo = lo; yhi = hi }
  | Z -> { r with zlo = lo; zhi = hi }

type env = {
  mutable blocks : block list;
  mutable dats : dat list;
  mutable next_id : int;
}

let make_env () = { blocks = []; dats = []; next_id = 0 }

let fresh_id env =
  let id = env.next_id in
  env.next_id <- id + 1;
  id

let decl_block env ~name ~rank =
  let b = { block_id = fresh_id env; block_name = name; rank } in
  env.blocks <- b :: env.blocks;
  b

let default_halo = 2

(* Ghost widths per axis: [halo] on the block's axes, none on absent ones. *)
let ghost_y dat = if dat.dat_block.rank >= 2 then dat.halo else 0
let ghost_z dat = if dat.dat_block.rank >= 3 then dat.halo else 0
let padded_x dat = dat.xsize + (2 * dat.halo)
let padded_y dat = dat.ysize + (2 * ghost_y dat)
let padded_z dat = dat.zsize + (2 * ghost_z dat)
let ghost axis dat = match axis with X -> dat.halo | Y -> ghost_y dat | Z -> ghost_z dat
let extent axis dat = match axis with X -> dat.xsize | Y -> dat.ysize | Z -> dat.zsize

let decl_dat env ~name ~block ~xsize ~ysize ~zsize ?(halo = default_halo) ?(dim = 1) () =
  if xsize <= 0 || ysize <= 0 || zsize <= 0 then
    invalid_arg "decl_dat: extents must be positive";
  if halo < 0 then invalid_arg "decl_dat: negative halo";
  if dim <= 0 then invalid_arg "decl_dat: dim must be positive";
  let d =
    { dat_id = fresh_id env; dat_name = name; dat_block = block; xsize; ysize; zsize;
      halo; dim; data = [||] }
  in
  d.data <- Array.make (padded_x d * padded_y d * padded_z d * dim) 0.0;
  env.dats <- d :: env.dats;
  d

let blocks env = List.rev env.blocks
let dats env = List.rev env.dats

(* Flat index of component [c] at logical point (x, y, z); (0,0,0) is the
   first interior point, negatives reach into the ghost cells. *)
let index dat ~x ~y ~z ~c =
  ((((((z + ghost_z dat) * padded_y dat) + (y + ghost_y dat)) * padded_x dat)
    + (x + dat.halo))
   * dat.dim)
  + c

let get dat ~x ~y ~z ~c = dat.data.(index dat ~x ~y ~z ~c)
let set dat ~x ~y ~z ~c v = dat.data.(index dat ~x ~y ~z ~c) <- v

(* Bounds of addressable logical coordinates (ghost cells included). *)
let x_min dat = -dat.halo
let x_max dat = dat.xsize + dat.halo (* exclusive *)
let y_min dat = -ghost_y dat
let y_max dat = dat.ysize + ghost_y dat
let z_min dat = -ghost_z dat
let z_max dat = dat.zsize + ghost_z dat

let interior dat =
  { xlo = 0; xhi = dat.xsize; ylo = 0; yhi = dat.ysize; zlo = 0; zhi = dat.zsize }

let addressable dat =
  { xlo = x_min dat; xhi = x_max dat; ylo = y_min dat; yhi = y_max dat; zlo = z_min dat;
    zhi = z_max dat }

(* Fill every value (ghost cells included). *)
let fill dat v = Array.fill dat.data 0 (Array.length dat.data) v

(* Copy of the interior values, x fastest, used by validation and I/O. *)
let fetch_interior dat =
  let out = Array.make (dat.xsize * dat.ysize * dat.zsize * dat.dim) 0.0 in
  let k = ref 0 in
  for z = 0 to dat.zsize - 1 do
    for y = 0 to dat.ysize - 1 do
      for x = 0 to dat.xsize - 1 do
        for c = 0 to dat.dim - 1 do
          out.(!k) <- get dat ~x ~y ~z ~c;
          incr k
        done
      done
    done
  done;
  out

(* Argument constructors behind the facades: access-mode legality fails
   here, at construction, with the dataset name in hand (the loop-time
   [validate_args] re-checks as a backstop). *)
let arg_dat ~ctor dat stencil ~stride access =
  if not (Access.valid_on_dat access) then
    invalid_arg
      (Printf.sprintf
         "%s.%s: access %s is not valid on dataset %s (datasets accept \
          Read/Write/Inc/Rw; Min/Max are global reductions — use arg_gbl)"
         (facade dat.dat_block.rank) ctor (Access.to_string access) dat.dat_name);
  Arg_dat { dat; stencil; access; stride }

let arg_gbl ~rank ~name buf access =
  if not (Access.valid_on_gbl access) then
    invalid_arg
      (Printf.sprintf
         "%s.arg_gbl: access %s is not valid on global %s (globals accept \
          Read/Inc/Min/Max)"
         (facade rank) (Access.to_string access) name);
  Arg_gbl { name; buf; access }

(* Validate an argument list against an iteration range: stencils must stay
   inside the addressable (interior + ghost) box over the whole range, all
   datasets must share the block, and written arguments must use the
   center-only stencil (the OPS restriction that makes structured loops
   race-free by construction).  A dataset written in a loop must be accessed
   center-only by *every* argument of that loop: reading a neighbour that
   the same loop writes is a loop-carried dependence whose result would
   depend on traversal order.  The range's corners bound every access, so
   an empty range checks its corners like any other. *)
let validate_args ~block ~range args =
  let rank = block.rank in
  let written = Hashtbl.create 4 in
  List.iter
    (function
      | Arg_dat { dat; access; _ } when Access.writes access ->
        Hashtbl.replace written dat.dat_id ()
      | Arg_dat _ | Arg_gbl _ | Arg_idx _ -> ())
    args;
  List.iter
    (function
      | Arg_dat { dat; stencil; stride; _ }
        when Hashtbl.mem written dat.dat_id
             && not (is_center_only stencil && is_unit_stride stride) ->
        invalid_arg
          (Printf.sprintf
             "%s par_loop: dat %s is written in this loop but also read through an \
              offset or strided stencil (loop-carried dependence)"
             (String.lowercase_ascii (facade rank)) dat.dat_name)
      | Arg_dat _ | Arg_gbl _ | Arg_idx _ -> ())
    args;
  List.iteri
    (fun i arg ->
      let fail msg =
        invalid_arg
          (Printf.sprintf "%s par_loop arg %d: %s" (String.lowercase_ascii (facade rank)) i
             msg)
      in
      match arg with
      | Arg_idx _ -> ()
      | Arg_gbl { access; name; buf } ->
        if not (Access.valid_on_gbl access) then
          fail (Printf.sprintf "global %s: access %s not valid on globals" name
                  (Access.to_string access));
        if Array.length buf = 0 then fail (Printf.sprintf "global %s: empty buffer" name)
      | Arg_dat { dat; stencil; access; stride } ->
        if not (Access.valid_on_dat access) then
          fail (Printf.sprintf "dat %s: access %s not valid on datasets" dat.dat_name
                  (Access.to_string access));
        if dat.dat_block.block_id <> block.block_id then
          fail (Printf.sprintf "dat %s lives on block %s, loop runs on %s" dat.dat_name
                  dat.dat_block.block_name block.block_name);
        if npoints stencil = 0 then
          fail (Printf.sprintf "dat %s: empty stencil" dat.dat_name);
        if (not (is_unit_stride stride)) && Access.writes access then
          fail (Printf.sprintf "dat %s: strided (grid-transfer) access is read-only"
                  dat.dat_name);
        if stride.xn <= 0 || stride.xd <= 0 || stride.yn <= 0 || stride.yd <= 0
           || stride.zn <= 0 || stride.zd <= 0
        then
          fail (Printf.sprintf "dat %s: stride components must be positive" dat.dat_name);
        if Access.writes access && not (is_center_only stencil) then
          fail (Printf.sprintf
                  "dat %s: %s access requires the center-only stencil" dat.dat_name
                  (Access.to_string access));
        let x0 = stride_x stride range.xlo and x1 = stride_x stride (range.xhi - 1) in
        let y0 = stride_y stride range.ylo and y1 = stride_y stride (range.yhi - 1) in
        let z0 = stride_z stride range.zlo and z1 = stride_z stride (range.zhi - 1) in
        for p = 0 to npoints stencil - 1 do
          let dx = ox stencil p and dy = oy stencil p and dz = oz stencil p in
          if x0 + dx < x_min dat || x1 + dx >= x_max dat
             || y0 + dy < y_min dat || y1 + dy >= y_max dat
             || z0 + dz < z_min dat || z1 + dz >= z_max dat
          then
            fail
              (Printf.sprintf
                 "dat %s: stencil offset %s leaves the %d-deep ghost cells over \
                  range %s"
                 dat.dat_name (point_to_string ~rank dx dy dz) dat.halo
                 (range_to_string ~rank range))
        done)
    args

(* Backend-independent loop descriptor for tracing/profiling. *)
let describe ~name ~block ~range ~info args : Am_core.Descr.loop =
  let arg_descr = function
    | Arg_gbl { name; buf; access } ->
      { Am_core.Descr.dat_name = name; dat_id = -1; dim = Array.length buf; access;
        kind = Am_core.Descr.Global }
    | Arg_idx rank ->
      { Am_core.Descr.dat_name = "idx"; dat_id = -1; dim = rank; access = Access.Read;
        kind = Am_core.Descr.Global }
    | Arg_dat { dat; stencil; access; stride = _ } ->
      {
        Am_core.Descr.dat_name = dat.dat_name;
        dat_id = dat.dat_id;
        dim = dat.dim;
        access;
        kind =
          (if is_center_only stencil then Am_core.Descr.Direct
           else
             Am_core.Descr.Stencil
               { points = npoints stencil; extent = stencil_extent stencil });
      }
  in
  {
    Am_core.Descr.loop_name = name;
    set_name = block.block_name;
    set_size = range_size range;
    args = List.map arg_descr args;
    info;
  }

(* Public facade of the multi-block structured-mesh active library (OPS)
   for 2D blocks.

   Usage:

   {[
     let ctx = Ops.create () in
     let grid = Ops.decl_block ctx ~name:"grid" in
     let density =
       Ops.decl_dat ctx ~name:"density" ~block:grid ~xsize:nx ~ysize:ny ()
     in
     ...
     Ops.par_loop ctx ~name:"ideal_gas" grid (Ops.interior density)
       [ Ops.arg_dat density Ops.stencil_point Access.Read;
         Ops.arg_dat pressure Ops.stencil_point Access.Write ]
       (fun a -> a.(1).(0) <- (gamma -. 1.0) *. a.(0).(0) *. energy)
   ]}

   As with OP2, the backend is a property of the context: sequential,
   shared-memory (rows across the domain pool), the tiled GPU simulator, or
   the row- or grid-decomposed distributed runtime.  Everything below the
   2D types — the pipeline, the executors, the sanitizer — is the rank-3
   core ({!Pipeline}) with z of extent 1. *)

module Access = Am_core.Access
module Acc = Am_core.Acc
module Descr = Am_core.Descr
module Profile = Am_core.Profile
module Trace = Am_core.Trace

type block = Types.block
type dat = Types.dat
type arg = Types.arg
type range = { xlo : int; xhi : int; ylo : int; yhi : int }
type stencil = (int * int) array

let stencil_point : stencil = [| (0, 0) |]

(* Common 2D stencils, named as OPS applications name them. *)
let stencil_2d_00 = stencil_point
let stencil_2d_5pt : stencil = [| (0, 0); (-1, 0); (1, 0); (0, -1); (0, 1) |]
let stencil_2d_plus1x : stencil = [| (0, 0); (1, 0) |]
let stencil_2d_plus1y : stencil = [| (0, 0); (0, 1) |]
let stencil_2d_minus1x : stencil = [| (0, 0); (-1, 0) |]
let stencil_2d_minus1y : stencil = [| (0, 0); (0, -1) |]
let stencil_2d_quad : stencil = [| (0, 0); (1, 0); (0, 1); (1, 1) |]

let stencil_offsets (s : stencil) = s

type backend =
  | Seq
  | Shared of { pool : Am_taskpool.Pool.t }
  | Cuda_sim of Exec.cuda_config
  | Check (* sanitizer: seq semantics + access-descriptor guards *)

let exec_of ~fn = function
  | Seq -> Pipeline.Seq
  | Shared { pool } -> Pipeline.Shared pool
  | Cuda_sim { Exec.tile_x; tile_y; strategy } ->
    Pipeline.check_tile ~fn ~field:"tile_x" tile_x;
    Pipeline.check_tile ~fn ~field:"tile_y" tile_y;
    Pipeline.Cuda { Exec.tile_x; tile_y; tile_z = 1; staged = strategy = Exec.Cuda_tiled }
  | Check -> Pipeline.Check

type ctx = backend Pipeline.ctx
type handle = Pipeline.handle

let make_handle = Pipeline.make_handle
let create ?(backend = Seq) () =
  Pipeline.create ~rank:2 ~backend ~exec:(exec_of ~fn:"Ops.create" backend)

let set_backend ctx backend =
  Pipeline.set_backend ctx backend (exec_of ~fn:"Ops.set_backend" backend)
let backend = Pipeline.backend
(* Profile, trace, fault injection, footprint inference and automatic
   checkpointing, as every facade has them ([Am_loop.Loop.Make]). *)
include Pipeline.Facade

(* ---- Declarations ------------------------------------------------------ *)

let decl_block = Pipeline.decl_block

let decl_dat ctx ~name ~block ~xsize ~ysize ?halo ?dim () =
  Pipeline.decl_dat ctx ~name ~block ~xsize ~ysize ~zsize:1 ?halo ?dim ()

let blocks = Pipeline.blocks
let dats = Pipeline.dats

(* ---- Argument constructors --------------------------------------------- *)

let arg_dat dat stencil access =
  Types.arg_dat ~ctor:"arg_dat" dat (Types.S2 stencil) ~stride:Types.unit_stride access

(* Grid-transfer arguments for multigrid: [arg_dat_restrict] reads a finer
   dataset from a coarse-grid loop (accessed point = factor * iteration
   point + offset); [arg_dat_prolong] reads a coarser dataset from a
   fine-grid loop (point / factor + offset). Read-only. *)
let arg_dat_restrict dat stencil ~factor access =
  Types.arg_dat ~ctor:"arg_dat_restrict" dat (Types.S2 stencil)
    ~stride:{ Types.unit_stride with Types.xn = factor; yn = factor } access

let arg_dat_prolong dat stencil ~factor access =
  Types.arg_dat ~ctor:"arg_dat_prolong" dat (Types.S2 stencil)
    ~stride:{ Types.unit_stride with Types.xd = factor; yd = factor } access

let arg_gbl ~name buf access = Types.arg_gbl ~rank:2 ~name buf access
let arg_idx : arg = Types.Arg_idx 2

(* ---- Data access -------------------------------------------------------- *)

let to_range r =
  { Types.xlo = r.xlo; xhi = r.xhi; ylo = r.ylo; yhi = r.yhi; zlo = 0; zhi = 1 }

let interior (dat : dat) =
  { xlo = 0; xhi = dat.Types.xsize; ylo = 0; yhi = dat.Types.ysize }

let fill = Types.fill
let get dat ~x ~y ~c = Types.get dat ~x ~y ~z:0 ~c
let set dat ~x ~y ~c v = Types.set dat ~x ~y ~z:0 ~c v
let fetch_interior = Pipeline.fetch_interior
let fetch_padded = Pipeline.fetch_padded
let init ctx dat f = Pipeline.init ctx dat (fun x y _ c -> f x y c)

(* ---- Partitioning -------------------------------------------------------- *)

let partition ctx ~n_ranks ~ref_ysize =
  Pipeline.partition ctx ~ranks:(1, n_ranks, 1) ~reference:(1, ref_ysize, 1)

(* 2D grid decomposition (px x py ranks), as the production OPS uses for
   CloverLeaf at scale: both dimensions split, two-phase ghost exchange
   carrying the corners. *)
let partition_grid ctx ~px ~py ~ref_xsize ~ref_ysize =
  Pipeline.partition ctx ~ranks:(px, py, 1) ~reference:(ref_xsize, ref_ysize, 1)

type rank_execution = Exec.rank_exec = Rank_seq | Rank_shared of Am_taskpool.Pool.t

let set_rank_execution = Pipeline.set_rank_execution

(* Halo-exchange policy, as for OP2: [On_demand] skips exchanges whose
   ghost rows are still fresh; [Eager] exchanges before every stencil read. *)
type halo_policy = On_demand | Eager

let set_halo_policy ctx policy = Pipeline.set_eager_halo ctx (policy = Eager)

let comm_stats = Pipeline.comm_stats

(* ---- Multi-block halos ---------------------------------------------------- *)

type halo = Multiblock.halo
type orientation = Multiblock.orientation

let identity_orientation = Multiblock.identity_orientation

let decl_halo ctx ~name ~src ~dst ~src_range ~dst_range ?orientation () =
  Pipeline.unpartitioned ctx "decl_halo";
  Multiblock.decl_halo ~name ~src ~dst ~src_range:(to_range src_range)
    ~dst_range:(to_range dst_range) ?orientation ()

let halo_transfer ctx halos =
  Pipeline.unpartitioned ctx "halo_transfer";
  Multiblock.transfer_all halos

(* ---- The parallel loop ----------------------------------------------------- *)

let par_loop ctx ~name ?(info = Descr.default_kernel_info) ?handle block range args kernel
    =
  Pipeline.run_loop ctx ~name ~info ?handle block (to_range range) args (Exec.Staged kernel)

let par_loop_acc ctx ~name ?(info = Descr.default_kernel_info) ?handle block range args
    kernel =
  Pipeline.run_loop ctx ~name ~info ?handle block (to_range range) args
    (Exec.Accessor kernel)

(* ---- Physical boundary conditions (update_halo) --------------------------- *)

type centering = Boundary.centering = Cell | Node

(* Reflective ghost-ring update with optional sign flips (velocity normal
   components) and centre-aware mirroring for staggered fields. This is the
   library-provided equivalent of CloverLeaf's update_halo. *)
let mirror_halo (ctx : ctx) ?(depth = 2) ?(sign_x = 1.0) ?(sign_y = 1.0)
    ?(center_x = Cell) ?(center_y = Cell) dat =
  Pipeline.mirror_halo ctx ~depth ~sign_x ~sign_y ~sign_z:1.0 ~center_x ~center_y
    ~center_z:Cell dat

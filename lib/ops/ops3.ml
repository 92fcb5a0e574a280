(* Public facade of the 3D structured-mesh library: the same abstraction as
   {!Ops} instantiated for three-dimensional blocks (the paper: blocks have
   "a number of dimensions (1D, 2D, 3D, etc.)").  The rank-3 core's range
   is this facade's own; everything below the declarations is
   {!Pipeline}. *)

module Access = Am_core.Access
module Acc = Ops.Acc
module Descr = Am_core.Descr
module Profile = Am_core.Profile
module Trace = Am_core.Trace

type block = Types.block
type dat = Types.dat
type arg = Types.arg

type range = Types.range = {
  xlo : int;
  xhi : int;
  ylo : int;
  yhi : int;
  zlo : int;
  zhi : int;
}

type stencil = (int * int * int) array

let stencil_point : stencil = [| (0, 0, 0) |]

(* 7-point Laplacian stencil: centre, ±x, ±y, ±z. *)
let stencil_7pt : stencil =
  [| (0, 0, 0); (-1, 0, 0); (1, 0, 0); (0, -1, 0); (0, 1, 0); (0, 0, -1); (0, 0, 1) |]

type backend =
  | Seq
  | Shared of { pool : Am_taskpool.Pool.t }
  | Cuda_sim of Exec.cuda_config3
  | Check (* sanitizer: seq semantics + access-descriptor guards *)

let exec_of ~fn = function
  | Seq -> Pipeline.Seq
  | Shared { pool } -> Pipeline.Shared pool
  | Cuda_sim ({ Exec.tile_x; tile_y; tile_z; _ } as config) ->
    Pipeline.check_tile ~fn ~field:"tile_x" tile_x;
    Pipeline.check_tile ~fn ~field:"tile_y" tile_y;
    Pipeline.check_tile ~fn ~field:"tile_z" tile_z;
    Pipeline.Cuda config
  | Check -> Pipeline.Check

type ctx = backend Pipeline.ctx
type handle = Pipeline.handle

let make_handle = Pipeline.make_handle
let create ?(backend = Seq) () =
  Pipeline.create ~rank:3 ~backend ~exec:(exec_of ~fn:"Ops3.create" backend)

let set_backend ctx backend =
  Pipeline.set_backend ctx backend (exec_of ~fn:"Ops3.set_backend" backend)
let backend = Pipeline.backend
(* Profile, trace, fault injection, footprint inference and automatic
   checkpointing, as every facade has them ([Am_loop.Loop.Make]). *)
include Pipeline.Facade
let blocks = Pipeline.blocks
let dats = Pipeline.dats
let decl_block = Pipeline.decl_block
let decl_dat = Pipeline.decl_dat

let arg_dat dat stencil access =
  Types.arg_dat ~ctor:"arg_dat" dat (Types.S3 stencil) ~stride:Types.unit_stride access

(* Grid-transfer arguments for 3D multigrid, as in the 2D facade:
   [arg_dat_restrict] reads a finer dataset from a coarse-grid loop
   (accessed point = factor * iteration point + offset); [arg_dat_prolong]
   reads a coarser dataset from a fine-grid loop (point / factor + offset).
   Read-only. *)
let arg_dat_restrict dat stencil ~factor access =
  Types.arg_dat ~ctor:"arg_dat_restrict" dat (Types.S3 stencil)
    ~stride:{ Types.unit_stride with Types.xn = factor; yn = factor; zn = factor }
    access

let arg_dat_prolong dat stencil ~factor access =
  Types.arg_dat ~ctor:"arg_dat_prolong" dat (Types.S3 stencil)
    ~stride:{ Types.unit_stride with Types.xd = factor; yd = factor; zd = factor }
    access

let arg_gbl ~name buf access = Types.arg_gbl ~rank:3 ~name buf access
let arg_idx : arg = Types.Arg_idx 3
let interior = Types.interior
let get = Types.get
let set = Types.set
let fetch_interior = Pipeline.fetch_interior
let fetch_padded = Pipeline.fetch_padded
let init = Pipeline.init

let partition ctx ~n_ranks ~ref_zsize =
  Pipeline.partition ctx ~ranks:(1, 1, n_ranks) ~reference:(1, 1, ref_zsize)

(* Pencil (y x z) decomposition over py * pz ranks; x stays whole. *)
let partition_pencil ctx ~py ~pz ~ref_ysize ~ref_zsize =
  Pipeline.partition ctx ~ranks:(1, py, pz) ~reference:(1, ref_ysize, ref_zsize)

type rank_execution = Exec.rank_exec = Rank_seq | Rank_shared of Am_taskpool.Pool.t

let set_rank_execution = Pipeline.set_rank_execution

let comm_stats = Pipeline.comm_stats

let par_loop ctx ~name ?(info = Descr.default_kernel_info) ?handle block range args
    kernel =
  Pipeline.run_loop ctx ~name ~info ?handle block range args (Exec.Staged kernel)

let par_loop_acc ctx ~name ?(info = Descr.default_kernel_info) ?handle block range args
    kernel =
  Pipeline.run_loop ctx ~name ~info ?handle block range args (Exec.Accessor kernel)

(* ---- Multi-block halos ----------------------------------------------------- *)

type halo = Multiblock.halo
type orientation = Multiblock.orientation

let identity_orientation = Multiblock.identity_orientation

let decl_halo ctx ~name ~src ~dst ~src_range ~dst_range ?orientation () =
  Pipeline.unpartitioned ctx "decl_halo";
  Multiblock.decl_halo ~name ~src ~dst ~src_range ~dst_range ?orientation ()

let halo_transfer ctx halos =
  Pipeline.unpartitioned ctx "halo_transfer";
  Multiblock.transfer_all halos

(* ---- Physical boundary conditions (update_halo, 3D) ----------------------- *)

type centering = Boundary.centering = Cell | Node

(* Reflective ghost-shell update with per-axis sign flips and centre-aware
   mirroring for staggered fields. *)
let mirror_halo (ctx : ctx) ?(depth = 2) ?(sign_x = 1.0) ?(sign_y = 1.0) ?(sign_z = 1.0)
    ?(center_x = Cell) ?(center_y = Cell) ?(center_z = Cell) dat =
  Pipeline.mirror_halo ctx ~depth ~sign_x ~sign_y ~sign_z ~center_x ~center_y ~center_z
    dat

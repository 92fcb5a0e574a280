(* Public facade of the 1D structured-mesh library: the same abstraction as
   {!Ops}/{!Ops3} instantiated for one-dimensional blocks (the paper:
   blocks have "a number of dimensions (1D, 2D, 3D, etc.)").  Everything
   below the 1D types is the rank-3 core ({!Pipeline}) with y and z of
   extent 1. *)

module Access = Am_core.Access
module Acc = Ops.Acc
module Descr = Am_core.Descr
module Profile = Am_core.Profile
module Trace = Am_core.Trace

type block = Types.block
type dat = Types.dat
type arg = Types.arg
type range = { xlo : int; xhi : int }
type stencil = int array

let stencil_point : stencil = [| 0 |]

(* 3-point Laplacian stencil: centre, -x, +x. *)
let stencil_3pt : stencil = [| 0; -1; 1 |]

type backend =
  | Seq
  | Shared of { pool : Am_taskpool.Pool.t }
  | Cuda_sim of Exec.cuda_config1
  | Check (* sanitizer: seq semantics + access-descriptor guards *)

let exec_of ~fn = function
  | Seq -> Pipeline.Seq
  | Shared { pool } -> Pipeline.Shared pool
  | Cuda_sim { Exec.tile_x; staged } ->
    Pipeline.check_tile ~fn ~field:"tile_x" tile_x;
    Pipeline.Cuda { Exec.tile_x; tile_y = 1; tile_z = 1; staged }
  | Check -> Pipeline.Check

type ctx = backend Pipeline.ctx
type handle = Pipeline.handle

let make_handle = Pipeline.make_handle
let create ?(backend = Seq) () =
  Pipeline.create ~rank:1 ~backend ~exec:(exec_of ~fn:"Ops1.create" backend)

let set_backend ctx backend =
  Pipeline.set_backend ctx backend (exec_of ~fn:"Ops1.set_backend" backend)
let backend = Pipeline.backend
(* Profile, trace, fault injection, footprint inference and automatic
   checkpointing, as every facade has them ([Am_loop.Loop.Make]). *)
include Pipeline.Facade
let blocks = Pipeline.blocks
let dats = Pipeline.dats
let decl_block = Pipeline.decl_block

let decl_dat ctx ~name ~block ~xsize ?halo ?dim () =
  Pipeline.decl_dat ctx ~name ~block ~xsize ~ysize:1 ~zsize:1 ?halo ?dim ()

let arg_dat dat stencil access =
  Types.arg_dat ~ctor:"arg_dat" dat (Types.S1 stencil) ~stride:Types.unit_stride access

let arg_gbl ~name buf access = Types.arg_gbl ~rank:1 ~name buf access
let arg_idx : arg = Types.Arg_idx 1
let to_range r = { Types.xlo = r.xlo; xhi = r.xhi; ylo = 0; yhi = 1; zlo = 0; zhi = 1 }
let interior (dat : dat) = { xlo = 0; xhi = dat.Types.xsize }
let get dat ~x ~c = Types.get dat ~x ~y:0 ~z:0 ~c
let set dat ~x ~c v = Types.set dat ~x ~y:0 ~z:0 ~c v
let fetch_interior = Pipeline.fetch_interior
let fetch_padded = Pipeline.fetch_padded
let init ctx dat f = Pipeline.init ctx dat (fun x _ _ c -> f x c)

let partition ctx ~n_ranks ~ref_xsize =
  Pipeline.partition ctx ~ranks:(n_ranks, 1, 1) ~reference:(ref_xsize, 1, 1)

type rank_execution = Exec.rank_exec = Rank_seq | Rank_shared of Am_taskpool.Pool.t

let set_rank_execution = Pipeline.set_rank_execution

(* Halo-exchange policy, as for the other facades. *)
type halo_policy = On_demand | Eager

let set_halo_policy ctx policy = Pipeline.set_eager_halo ctx (policy = Eager)

let comm_stats = Pipeline.comm_stats

let par_loop ctx ~name ?(info = Descr.default_kernel_info) ?handle block range args
    kernel =
  Pipeline.run_loop ctx ~name ~info ?handle block (to_range range) args (Exec.Staged kernel)

let par_loop_acc ctx ~name ?(info = Descr.default_kernel_info) ?handle block range args
    kernel =
  Pipeline.run_loop ctx ~name ~info ?handle block (to_range range) args
    (Exec.Accessor kernel)

(* ---- Physical boundary conditions (update_halo, 1D) ----------------------- *)

type centering = Boundary.centering = Cell | Node

let mirror_halo (ctx : ctx) ?(depth = 2) ?(sign = 1.0) ?(center = Cell) dat =
  Pipeline.mirror_halo ctx ~depth ~sign_x:sign ~sign_y:1.0 ~sign_z:1.0 ~center_x:center
    ~center_y:Cell ~center_z:Cell dat

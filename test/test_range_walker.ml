(* Generated range walkers ([let%kernel]) against the point walker.

   A seeded corpus of OPS loops draws each loop's shape from a set of
   declared corpus kernels on blocks of rank 1, 2 and 3: stencils with
   negative offsets and computed points, one and two layout labels, dims 1
   and 2, [Read], [Write] and [Rw] datasets, and [Read], [Inc], [Min] and
   [Max] globals named by literal and computed components.  Around the
   shape it draws the data: dataset sizes and halos per label, which
   dataset each argument names (two arguments may name one: aliasing), the
   range (empty, one point, one row, the interior, or reaching into the
   ghost cells) and values with -0.0 among them; and the backend: Seq,
   Shared on two domains, Cuda_sim with global and staged tiles, and the
   row and grid decompositions at 1, 2, 3 and 7 ranks.  Each loop runs
   twice from the same data on the same backend: through
   [par_loop_acc] with the kernel, whose range walker runs wherever the
   dispatch rule allows it, and with the kernel's point form alone
   ([Acc.lift k.point]).  Every dataset's padded array, ghost cells
   included ([fetch_padded] pulls it from the owning ranks when
   partitioned), and every global must agree to the bit (an [Inc] global
   on Shared within 1e-10: its chunks reach the worker accumulators in a
   timing-dependent order), and a partitioned run's padded arrays must
   equal Seq's; on Seq the walker must run exactly when no argument
   aliases one another writes.  A failure names
   the loop, the argument and the point, and prints its replay seed
   (AM_SEED).

   A call whose arguments differ from the kernel's declared signature in
   one fact is refused, by name, before any point runs, on every
   backend. *)

module Ops = Am_ops.Ops
module Ops1 = Am_ops.Ops1
module Ops3 = Am_ops.Ops3
module Types = Am_ops.Types
module Acc = Ops.Acc
module Access = Am_core.Access
module Pool = Am_taskpool.Pool

let[@inline] get (a : Acc.t) p = a.Acc.data.(a.Acc.base + a.Acc.off.(p))
let[@inline] set (a : Acc.t) v = a.Acc.data.(a.Acc.base + a.Acc.off.(0)) <- v
let[@inline] gbl (a : Acc.t) c = a.Acc.data.(a.Acc.base + a.Acc.off.(0) + c)
let[@inline] set_gbl (a : Acc.t) c v = a.Acc.data.(a.Acc.base + a.Acc.off.(0) + c) <- v

(* ---- The corpus kernels ---------------------------------------------------- *)

(* Each kernel folds what it reads into a running value in argument order
   and writes from it: a Write assigns, an Rw blends, an Inc adds, a Min/Max
   lowers/raises. *)
let[@inline] mix s v = (s *. 0.5) +. v
let[@inline] next s = (s *. 1.5) -. 0.125
let[@inline] blend o v = (o *. 0.5) -. v

(* Negative offsets on one label, a Read global's literal components. *)
let%kernel five_point (a : Acc.t array) =
  let u = a.(0) and g = a.(2) in
  let s = mix (mix (mix (mix (mix 0.25 (get u 0)) (get u 1)) (get u 2)) (get u 3)) (get u 4) in
  set a.(1) (blend (gbl g 1) (s *. gbl g 0))
[@@args c [(0,0); (-1,0); (1,0); (0,-1); (0,1)] 1 Read, c [(0,0)] 1 Write, gbl 2 Read]

(* Computed stencil points on a second label, a Read global's computed
   component, an Rw. *)
let%kernel donor (a : Acc.t array) =
  let f = get a.(0) 0 in
  let d = a.(1) in
  let p = if f > 0.0 then 0 else 2 in
  let s = mix (get d p) (get d 1) in
  let c = if f > 0.0 then 1 else 0 in
  set a.(2) (blend (get a.(2) 0) (s +. gbl a.(3) c))
[@@args f [(0,0)] 1 Read, c [(-1,0); (0,0); (1,-1)] 1 Read, f [(0,0)] 1 Rw, gbl 2 Read]

(* Dim 2: components of point 0 by literal and computed numbers, beside a
   dim-1 label. *)
let%kernel dims (a : Acc.t array) =
  let v = a.(0) and w = a.(1) in
  let s = ref (mix 0.25 (get v 1)) in
  for c = 0 to 1 do
    s := mix !s (gbl v c)
  done;
  set_gbl w 0 (blend (gbl w 0) !s);
  for c = 1 to 1 do
    set_gbl w c (blend (gbl w c) (next !s))
  done;
  set a.(2) (mix !s (gbl w 1))
[@@args v [(0,0); (1,1)] 2 Read, w [(0,0)] 2 Rw, c [(0,0)] 1 Write]

(* Inc, Min and Max globals on literal components: float locals stored
   after the box; component 2 of the sum never named. *)
let%kernel lit_globals (a : Acc.t array) =
  let u = a.(0) and sum = a.(1) and lo = a.(2) and hi = a.(3) in
  let s = mix (mix 0.25 (get u 0)) (get u 1) in
  set_gbl sum 0 (gbl sum 0 +. s);
  set_gbl sum 1 (gbl sum 1 +. (s *. s));
  set_gbl lo 0 (Float.min (gbl lo 0) (next s));
  set_gbl hi 0 (Float.max (gbl hi 0) (blend s 1.0))
[@@args c [(0,0); (0,-1)] 1 Read, gbl 3 Inc, gbl 1 Min, gbl 1 Max]

(* Every global mode on computed components: the worker's buffers. *)
let%kernel comp_globals (a : Acc.t array) =
  let u = a.(0) and g = a.(1) and sum = a.(2) and lo = a.(3) and hi = a.(4) in
  let s = ref (mix 0.25 (get u 0)) in
  for c = 0 to 2 do
    s := mix !s (gbl g c)
  done;
  for c = 0 to 1 do
    set_gbl sum c (gbl sum c +. !s +. Float.of_int c)
  done;
  s := next !s;
  for c = 0 to 1 do
    set_gbl lo c (Float.min (gbl lo c) (!s +. Float.of_int c))
  done;
  for c = 0 to 1 do
    set_gbl hi c (Float.max (gbl hi c) (!s -. Float.of_int c))
  done
[@@args c [(0,0)] 1 Read, gbl 3 Read, gbl 2 Inc, gbl 2 Min, gbl 2 Max]

(* An x and a y variant of one body. *)
let%kernel sweep (a : Acc.t array) =
  set a.(1) (blend (get a.(1) 0) (mix (get a.(0) 0) (get a.(0) 1)))
[@@args c [(0,0); (1,0)] 1 Read, n [(0,0)] 1 Rw]
[@@args c [(0,0); (0,1)] 1 Read, n [(0,0)] 1 Rw]

(* A centre Read beside an Rw of one label: an aliased pair when both
   name one dataset. *)
let%kernel pair (a : Acc.t array) = set a.(1) (blend (get a.(1) 0) (next (get a.(0) 0)))
[@@args c [(0,0)] 1 Read, c [(0,0)] 1 Rw]

(* Rank 1: a computed point among negative offsets, an Inc global. *)
let%kernel line (a : Acc.t array) =
  let u = a.(0) in
  let p = if get u 0 > 0.0 then 1 else 2 in
  let s = mix (get u p) (get u 0) in
  set a.(1) s;
  set_gbl a.(2) 0 (gbl a.(2) 0 +. s)
[@@args c [0; -1; 1] 1 Read, n [0] 1 Write, gbl 1 Inc]

(* Rank 1, dim 2, a Max global on a computed component. *)
let%kernel line_dim2 (a : Acc.t array) =
  let v = a.(0) in
  for c = 0 to 1 do
    set_gbl a.(1) c (mix (gbl v c) (get v 1))
  done;
  for c = 0 to 0 do
    set_gbl a.(2) c (Float.max (gbl a.(2) c) (gbl v 1))
  done
[@@args v [0; -1] 2 Read, w [0] 2 Write, gbl 1 Max]

(* Rank 3: z offsets, a dim-2 Rw on a second label, a literal Max. *)
let%kernel box (a : Acc.t array) =
  let u = a.(0) and w = a.(1) in
  let s = mix (mix (get u 0) (get u 1)) (get u 2) in
  set_gbl w 0 (blend (gbl w 0) s);
  set_gbl w 1 (mix (gbl w 1) (next s));
  set_gbl a.(2) 0 (Float.max (gbl a.(2) 0) s)
[@@args c [(0,0,0); (0,0,-1); (0,1,1)] 1 Read, n [(0,0,0)] 2 Rw, gbl 1 Max]

(* Rank 3: a computed point, a Read global, a Min on computed components. *)
let%kernel stack (a : Acc.t array) =
  let u = a.(0) in
  let p = if get u 0 > 0.0 then 1 else 2 in
  set a.(1) (mix (get u p) (gbl a.(2) 0));
  for c = 0 to 1 do
    set_gbl a.(3) c (Float.min (gbl a.(3) c) (get u p -. Float.of_int c))
  done
[@@args c [(0,0,0); (-1,0,0); (0,0,1)] 1 Read, n [(0,0,0)] 1 Write, gbl 1 Read, gbl 2 Min]

(* Each corpus kernel with its block rank. *)
let corpus =
  [
    (2, five_point); (2, donor); (2, dims); (2, lit_globals); (2, comp_globals); (2, sweep);
    (2, pair); (1, line); (1, line_dim2); (3, box); (3, stack);
  ]

let kname (k : Acc.kernel) = k.Acc.walkers.(0).Acc.kname

(* ---- Backends ---------------------------------------------------------------- *)

(* [Rows n] splits the block's outermost axis over [n] ranks; [Grid (p,
   q)] splits x and y (rank 2) or y and z (rank 3, pencils). *)
type config = Seq | Shared | Cuda of bool (* staged tiles *) | Rows of int | Grid of int * int

let show_config = function
  | Seq -> "seq"
  | Shared -> "shared 2"
  | Cuda false -> "cuda global"
  | Cuda true -> "cuda tiled"
  | Rows n -> Printf.sprintf "rows %d" n
  | Grid (p, q) -> Printf.sprintf "grid %dx%d" p q

let configs rank =
  [ Seq; Shared; Cuda false; Cuda true ]
  @ List.map (fun n -> Rows n) [ 1; 2; 3; 7 ]
  @ if rank = 1 then [] else List.map (fun p -> Grid (p, 1)) [ 1; 2; 3; 7 ] @ [ Grid (2, 2) ]

(* How many ranks a config splits each axis over. *)
let splits rank = function
  | Seq | Shared | Cuda _ -> (1, 1, 1)
  | Rows n -> (match rank with 1 -> (n, 1, 1) | 2 -> (1, n, 1) | _ -> (1, 1, n))
  | Grid (p, q) -> if rank = 2 then (p, q, 1) else (1, p, q)

(* One facade behind a rank-blind interface: datasets and arguments are
   the core's. *)
type runner = {
  decl : name:string -> sizes:int * int * int -> halo:int -> dim:int -> Types.dat;
  init : Types.dat -> (int -> int -> int -> int -> float) -> unit;
  dat_arg : Types.dat -> (int * int * int) array -> Access.t -> Types.arg;
  gbl_arg : string -> float array -> Access.t -> Types.arg;
  setup : unit -> unit; (* after every dataset is declared and set *)
  loop : Types.range -> Types.arg list -> Acc.kernel -> unit;
  fetch : Types.dat -> float array;
}

let runner rank config pool ~base:(bx, by, bz) =
  let cuda1 staged = Ops1.Cuda_sim { Am_ops.Exec.tile_x = 3; staged } in
  let cuda2 staged =
    Ops.Cuda_sim
      { Am_ops.Exec.tile_x = 3; tile_y = 2;
        strategy = (if staged then Am_ops.Exec.Cuda_tiled else Am_ops.Exec.Cuda_global) }
  in
  let cuda3 staged = Ops3.Cuda_sim { Am_ops.Exec.tile_x = 3; tile_y = 2; tile_z = 2; staged } in
  match rank with
  | 1 ->
    let ctx = Ops1.create () in
    let block = Ops1.decl_block ctx ~name:"b" in
    {
      decl =
        (fun ~name ~sizes:(x, _, _) ~halo ~dim -> Ops1.decl_dat ctx ~name ~block ~xsize:x ~halo ~dim ());
      init = (fun d f -> Ops1.init ctx d (fun x c -> f x 0 0 c));
      dat_arg = (fun d st a -> Ops1.arg_dat d (Array.map (fun (x, _, _) -> x) st) a);
      gbl_arg = (fun name buf a -> Ops1.arg_gbl ~name buf a);
      setup =
        (fun () ->
          match config with
          | Seq -> ()
          | Shared -> Ops1.set_backend ctx (Ops1.Shared { pool })
          | Cuda staged -> Ops1.set_backend ctx (cuda1 staged)
          | Rows n -> Ops1.partition ctx ~n_ranks:n ~ref_xsize:bx
          | Grid _ -> assert false);
      loop =
        (fun r args k ->
          Ops1.par_loop_acc ctx ~name:"corpus" block
            { Ops1.xlo = r.Types.xlo; xhi = r.Types.xhi }
            args k);
      fetch = Ops1.fetch_padded ctx;
    }
  | 2 ->
    let ctx = Ops.create () in
    let block = Ops.decl_block ctx ~name:"b" in
    {
      decl =
        (fun ~name ~sizes:(x, y, _) ~halo ~dim ->
          Ops.decl_dat ctx ~name ~block ~xsize:x ~ysize:y ~halo ~dim ());
      init = (fun d f -> Ops.init ctx d (fun x y c -> f x y 0 c));
      dat_arg = (fun d st a -> Ops.arg_dat d (Array.map (fun (x, y, _) -> (x, y)) st) a);
      gbl_arg = (fun name buf a -> Ops.arg_gbl ~name buf a);
      setup =
        (fun () ->
          match config with
          | Seq -> ()
          | Shared -> Ops.set_backend ctx (Ops.Shared { pool })
          | Cuda staged -> Ops.set_backend ctx (cuda2 staged)
          | Rows n -> Ops.partition ctx ~n_ranks:n ~ref_ysize:by
          | Grid (px, py) -> Ops.partition_grid ctx ~px ~py ~ref_xsize:bx ~ref_ysize:by);
      loop =
        (fun r args k ->
          Ops.par_loop_acc ctx ~name:"corpus" block
            { Ops.xlo = r.Types.xlo; xhi = r.Types.xhi; ylo = r.Types.ylo; yhi = r.Types.yhi }
            args k);
      fetch = Ops.fetch_padded ctx;
    }
  | _ ->
    let ctx = Ops3.create () in
    let block = Ops3.decl_block ctx ~name:"b" in
    {
      decl =
        (fun ~name ~sizes:(x, y, z) ~halo ~dim ->
          Ops3.decl_dat ctx ~name ~block ~xsize:x ~ysize:y ~zsize:z ~halo ~dim ());
      init = (fun d f -> Ops3.init ctx d f);
      dat_arg = (fun d st a -> Ops3.arg_dat d st a);
      gbl_arg = (fun name buf a -> Ops3.arg_gbl ~name buf a);
      setup =
        (fun () ->
          match config with
          | Seq -> ()
          | Shared -> Ops3.set_backend ctx (Ops3.Shared { pool })
          | Cuda staged -> Ops3.set_backend ctx (cuda3 staged)
          | Rows n -> Ops3.partition ctx ~n_ranks:n ~ref_zsize:bz
          | Grid (py, pz) -> Ops3.partition_pencil ctx ~py ~pz ~ref_ysize:by ~ref_zsize:bz);
      loop = (fun r args k -> Ops3.par_loop_acc ctx ~name:"corpus" block r args k);
      fetch = Ops3.fetch_padded ctx;
    }

(* ---- Cases ------------------------------------------------------------------- *)

type case = {
  rank : int;
  kernel : Acc.kernel;
  variant : int; (* the signature the call's stencils follow *)
  config : config;
  base : int * int * int; (* the first label's sizes, the partition reference *)
  shapes : (string * ((int * int * int) * int)) list; (* per label: sizes, halo *)
  picks : int array; (* per argument: which dataset of its label's shape *)
  range : Types.range;
  seed : int; (* values *)
}

let signature c = c.kernel.Acc.walkers.(c.variant).Acc.signature

let show c =
  let x, y, z = c.base in
  let r = c.range in
  Printf.sprintf
    "kernel %s variant %d, rank %d, %s, base %dx%dx%d, labels [%s], picks [%s], range %s, seed %d"
    (kname c.kernel) c.variant c.rank (show_config c.config) x y z
    (String.concat "; "
       (List.map
          (fun (l, ((x, y, z), h)) -> Printf.sprintf "%s %dx%dx%d halo %d" l x y z h)
          c.shapes))
    (String.concat "; " (Array.to_list (Array.map string_of_int c.picks)))
    (Types.range_to_string ~rank:3 r) c.seed

(* Dataset arguments' labels, in first-use order. *)
let labels sg =
  Array.fold_left
    (fun acc a ->
      match a with
      | Acc.Grid_dat { label; _ } when not (List.mem label acc) -> acc @ [ label ]
      | Acc.Grid_dat _ | Acc.Grid_gbl _ -> acc)
    [] sg

let reach sg label axis =
  Array.fold_left
    (fun acc a ->
      match a with
      | Acc.Grid_dat { label = l; stencil; _ } when l = label ->
        Array.fold_left
          (fun acc (x, y, z) -> max acc (abs (match axis with 0 -> x | 1 -> y | _ -> z)))
          acc stencil
      | Acc.Grid_dat _ | Acc.Grid_gbl _ -> acc)
    0 sg

let written = function Access.Write | Access.Rw -> true | _ -> false

(* Argument [i]'s dataset: its label's shape, its dim and its pick; two
   arguments with one key name one dataset. *)
let key sg shapes picks i =
  match sg.(i) with
  | Acc.Grid_dat { label; dim; _ } -> Some (List.assoc label shapes, dim, picks.(i))
  | Acc.Grid_gbl _ -> None

let access_of = function Acc.Grid_dat { access; _ } | Acc.Grid_gbl { access; _ } -> access
let indices n = List.init n Fun.id

(* Whether two arguments name one dataset and one of them writes: the
   executors stage both, so the point walker runs. *)
let aliased_write c =
  let sg = signature c in
  let key = key sg c.shapes c.picks and n = Array.length sg in
  List.exists
    (fun i ->
      List.exists
        (fun j ->
          j <> i && key i <> None && key i = key j
          && (written (access_of sg.(i)) || written (access_of sg.(j))))
        (indices n))
    (indices n)

let nonempty (r : Types.range) = r.xlo < r.xhi && r.ylo < r.yhi && r.zlo < r.zhi
let component axis (x, y, z) = match axis with 0 -> x | 1 -> y | _ -> z

let gen_case st =
  let int lo hi = lo + Random.State.int st (hi - lo + 1) in
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let rank, kernel = pick corpus in
  let variant = Random.State.int st (Array.length kernel.Acc.walkers) in
  let sg = kernel.Acc.walkers.(variant).Acc.signature in
  let config = pick (configs rank) in
  let on_axis axis = axis < rank in
  let labels = labels sg in
  (* Halos cover each label's reach, and up to two cells more; a split
     axis gives every rank at least the deepest halo. *)
  let halos =
    List.map
      (fun l -> (l, List.fold_left max 0 (List.map (reach sg l) [ 0; 1; 2 ]) + int 0 2))
      labels
  in
  let max_halo = List.fold_left (fun acc (_, h) -> max acc h) 1 halos in
  let sx, sy, sz = splits rank config in
  let size axis n =
    if not (on_axis axis) then 1 else max (if n > 1 then n * max_halo else 1) (int 1 9)
  in
  let base = (size 0 sx, size 1 sy, size 2 sz) in
  (* Later labels are as large or one cell larger along each axis. *)
  let shapes =
    List.mapi
      (fun k l ->
        let bx, by, bz = base in
        let d axis = if k > 0 && on_axis axis then int 0 1 else 0 in
        (l, ((bx + d 0, by + d 1, bz + d 2), List.assoc l halos)))
      labels
  in
  let n = Array.length sg in
  let picks = Array.init n (fun _ -> int 0 1) in
  (* A written argument may share its dataset only with centre-only
     arguments ([par_loop] refuses the loop-carried dependence). *)
  let centre i =
    match sg.(i) with
    | Acc.Grid_dat { stencil; _ } -> stencil = [| (0, 0, 0) |]
    | Acc.Grid_gbl _ -> true
  in
  for i = 0 to n - 1 do
    let key = key sg shapes picks in
    if written (access_of sg.(i)) && key i <> None then
      if List.exists (fun j -> j <> i && key j = key i && not (centre j)) (indices n) then
        picks.(i) <- 2 + i
  done;
  (* The box inside which every argument's stencil stays addressable;
     the range is empty, one point, one row, the base interior, that
     whole box (into the ghost cells) or a part of it. *)
  let bound axis =
    Array.fold_left
      (fun (lo, hi) a ->
        match a with
        | Acc.Grid_dat { label; stencil; _ } ->
          let sizes, h = List.assoc label shapes in
          let offs = Array.map (component axis) stencil in
          ( max lo (-h - Array.fold_left min 0 offs),
            min hi (component axis sizes + h - Array.fold_left max 0 offs) )
        | Acc.Grid_gbl _ -> (lo, hi))
      (min_int, max_int) sg
  in
  let kind = int 0 9 in
  let axis_range axis =
    if not (on_axis axis) then (0, 1)
    else
      let lo, hi = bound axis in
      match kind with
      | 0 ->
        let p = int lo hi in
        (p, p)
      | 1 ->
        let p = int lo (hi - 1) in
        (p, p + 1)
      | 2 when axis > 0 ->
        let p = int lo (hi - 1) in
        (p, p + 1)
      | 2 | 5 | 6 -> (lo, hi)
      | 3 | 4 -> (0, min (component axis base) hi)
      | _ ->
        let a = int lo (hi - 1) in
        (a, int (a + 1) hi)
  in
  let x0, x1 = axis_range 0 and y0, y1 = axis_range 1 and z0, z1 = axis_range 2 in
  {
    rank; kernel; variant; config; base; shapes; picks;
    range = { Types.xlo = x0; xhi = x1; ylo = y0; yhi = y1; zlo = z0; zhi = z1 };
    seed = int 0 999_999;
  }

(* Initial values, -0.0 among them. *)
let value seed i =
  match (seed + (i * 7919)) mod 9 with
  | 0 -> -0.0
  | 1 -> 0.0
  | 2 -> 1.0
  | 3 -> -2.5
  | 4 -> 0.375
  | j -> Float.of_int ((seed mod 97) - 48) /. Float.of_int (j + 3)

(* What one run leaves: per dataset its name, the first argument naming
   it and its padded array (pulled from the owning ranks when
   partitioned, ghost cells included); per global its argument and
   values. *)
type state = { dats : (string * int * float array) list; gbls : (int * float array) list }

(* Run [c] once with [kernel] on a fresh context; returns the state and
   how many times a range walker was called. *)
let run pool c kernel =
  let calls = Atomic.make 0 in
  let counted (w : Acc.range_walker) =
    { w with Acc.range = (fun p a b d e f g -> Atomic.incr calls; w.Acc.range p a b d e f g) }
  in
  let kernel = { kernel with Acc.walkers = Array.map counted kernel.Acc.walkers } in
  let r = runner c.rank c.config pool ~base:c.base in
  let sg = signature c in
  let dats = Hashtbl.create 8 in
  let order = ref [] in
  let args =
    Array.to_list
      (Array.mapi
         (fun i a ->
           match a with
           | Acc.Grid_gbl { len; access } ->
             let buf = Array.init len (value (c.seed + (1000 * i))) in
             (r.gbl_arg (Printf.sprintf "g%d" i) buf access, `Gbl (i, buf))
           | Acc.Grid_dat { stencil; access; dim; label } ->
             let k = Option.get (key sg c.shapes c.picks i) in
             let d =
               match Hashtbl.find_opt dats k with
               | Some d -> d
               | None ->
                 let sizes, halo = List.assoc label c.shapes in
                 let name = Printf.sprintf "d%d" (Hashtbl.length dats) in
                 let d = r.decl ~name ~sizes ~halo ~dim in
                 let seed = c.seed + (131 * Hashtbl.length dats) in
                 let x, y, _ = sizes in
                 r.init d (fun px py pz comp ->
                     let cell = ((((pz + 4) * (y + 8)) + py + 4) * (x + 8)) + px + 4 in
                     value seed ((cell * dim) + comp));
                 Hashtbl.add dats k d;
                 order := (name, i, d) :: !order;
                 d
             in
             (r.dat_arg d stencil access, `Dat))
         sg)
  in
  r.setup ();
  r.loop c.range (List.map fst args) kernel;
  let state =
    {
      dats = List.rev_map (fun (name, i, d) -> (name, i, r.fetch d)) !order;
      gbls = List.filter_map (function _, `Gbl g -> Some g | _, `Dat -> None) args;
    }
  in
  (state, Atomic.get calls)

let bits x = Int64.bits_of_float x
let close a b = Float.abs (a -. b) <= 1e-10 *. (1.0 +. Float.abs b)

(* The point [i] of a dataset's fetched padded array names. *)
let point_of c (sizes, halo) dim i =
  let x, y, _ = sizes in
  let g axis = if axis >= c.rank then 0 else halo in
  let px = x + (2 * g 0) and py = y + (2 * g 1) in
  let comp = i mod dim and p = i / dim in
  ( (p mod px) - g 0,
    (p / px mod py) - g 1,
    (p / (px * py)) - g 2,
    comp )

(* Run [c] through its walker and through its point form; fail, naming
   the loop, argument and point, on any difference.  Returns whether the
   walker ran. *)
let check_case pool c =
  let fail fmt = Qcheck_util.failf_seed Qcheck_util.base_seed ("loop %s: " ^^ fmt) (show c) in
  let run form c kernel =
    match run pool c kernel with
    | result -> result
    | exception e -> fail "the run through the %s raised %s" form (Printexc.to_string e)
  in
  let walked, calls = run "kernel" c c.kernel in
  let pointed, _ = run "point form" c (Acc.lift c.kernel.Acc.point) in
  let sg = signature c in
  List.iter2
    (fun (name, i, w) (_, _, p) ->
      Array.iteri
        (fun j v ->
          if bits v <> bits p.(j) then
            match sg.(i) with
            | Acc.Grid_dat { label; dim; _ } ->
              let x, y, z, comp = point_of c (List.assoc label c.shapes) dim j in
              fail
                "argument %d (dat %s) differs at point (%d,%d,%d) component %d: walker %h, point \
                 form %h"
                i name x y z comp v p.(j)
            | Acc.Grid_gbl _ -> assert false)
        w)
    walked.dats pointed.dats;
  List.iter2
    (fun (i, w) (_, p) ->
      let shared_inc = c.config = Shared && access_of sg.(i) = Access.Inc in
      Array.iteri
        (fun j v ->
          if not (if shared_inc then close v p.(j) else bits v = bits p.(j)) then
            fail "argument %d (global) differs at component %d: walker %h, point form %h" i j v
              p.(j))
        w)
    walked.gbls pointed.gbls;
  (* A partitioned run leaves every padded point, ghost cells included,
     as Seq does. *)
  (match c.config with
  | Rows _ | Grid _ ->
    let seq, _ = run "kernel on seq" { c with config = Seq } c.kernel in
    List.iter2
      (fun (name, i, w) (_, _, q) ->
        Array.iteri
          (fun j v ->
            if bits v <> bits q.(j) then
              match sg.(i) with
              | Acc.Grid_dat { label; dim; _ } ->
                let x, y, z, comp = point_of c (List.assoc label c.shapes) dim j in
                fail
                  "argument %d (dat %s) differs from seq at point (%d,%d,%d) component %d: %h, \
                   seq %h"
                  i name x y z comp v q.(j)
              | Acc.Grid_gbl _ -> assert false)
          w)
      walked.dats seq.dats
  | Seq | Shared | Cuda _ -> ());
  (* On Seq the dispatch rule is exactly: no aliased argument that
     writes (an empty range reaches the walker, which runs no point). *)
  if c.config = Seq then begin
    let want = not (aliased_write c) in
    if (calls > 0) <> want then
      fail "the range walker %s where the rule says it %s"
        (if calls > 0 then "ran" else "did not run")
        (if want then "runs" else "does not")
  end;
  calls > 0 && nonempty c.range

let test_corpus () =
  let st = Random.State.make [| Qcheck_util.base_seed |] in
  let cases = List.init 360 (fun _ -> gen_case st) in
  let ran =
    Pool.with_pool ~size:2 (fun pool -> List.length (List.filter (check_case pool) cases))
  in
  if ran < 150 then
    Qcheck_util.failf_seed Qcheck_util.base_seed "the range walker ran on only %d of 360 cases" ran;
  let sg c = signature c in
  let has_stencil pred c =
    Array.exists
      (function Acc.Grid_dat { stencil; _ } -> pred stencil | Acc.Grid_gbl _ -> false)
      (sg c)
  in
  let into_ghosts c =
    let r = c.range and x, y, z = c.base in
    nonempty r
    && (r.xlo < 0 || r.xhi > x
       || (c.rank > 1 && (r.ylo < 0 || r.yhi > y))
       || (c.rank > 2 && (r.zlo < 0 || r.zhi > z)))
  in
  List.iter
    (fun (what, pred) ->
      if not (List.exists pred cases) then
        Qcheck_util.failf_seed Qcheck_util.base_seed "no generated case has %s" what)
    ([
       ("an empty range", fun c -> not (nonempty c.range));
       ( "a one-point range",
         fun c -> Types.range_size c.range = 1 );
       ( "a one-row range of several points",
         fun c ->
           let r = c.range in
           c.rank > 1 && r.Types.yhi - r.Types.ylo = 1 && r.Types.xhi - r.Types.xlo > 1 );
       ("a range into the ghost cells", into_ghosts);
       ("an aliased pair that writes", aliased_write);
       ( "two labels of different shapes",
         fun c -> List.length (List.sort_uniq compare (List.map snd c.shapes)) > 1 );
       ( "a negative offset",
         has_stencil (Array.exists (fun (x, y, z) -> x < 0 || y < 0 || z < 0)) );
       ("the second variant of a kernel", fun c -> c.variant > 0);
     ]
    @ List.map (fun (_, k) -> ("kernel " ^ kname k, fun c -> c.kernel == k)) corpus
    @ List.concat_map
        (fun rank ->
          List.map
            (fun cfg ->
              ( Printf.sprintf "rank %d on %s" rank (show_config cfg),
                fun c -> c.rank = rank && c.config = cfg ))
            (configs rank))
        [ 1; 2; 3 ]);
  (* The corpus declares every dataset and global mode, dims 1 and 2, and
     two labels. *)
  let sigs = List.concat_map (fun (_, k) -> Array.to_list k.Acc.walkers.(0).Acc.signature) corpus in
  let has what pred =
    if not (List.exists pred sigs) then Alcotest.failf "no corpus kernel declares %s" what
  in
  List.iter
    (fun mode ->
      has ("dataset " ^ Access.to_string mode) (function
        | Acc.Grid_dat { access; _ } -> access = mode
        | Acc.Grid_gbl _ -> false))
    [ Access.Read; Access.Write; Access.Rw ];
  List.iter
    (fun mode ->
      has ("global " ^ Access.to_string mode) (function
        | Acc.Grid_gbl { access; _ } -> access = mode
        | Acc.Grid_dat _ -> false))
    [ Access.Read; Access.Inc; Access.Min; Access.Max ];
  List.iter
    (fun d ->
      has (Printf.sprintf "dim %d" d) (function
        | Acc.Grid_dat { dim; _ } -> dim = d
        | Acc.Grid_gbl _ -> false))
    [ 1; 2 ]

(* ---- Declared signatures: a mismatch is refused by name -------------------- *)

let%kernel declared (a : Acc.t array) = set a.(2) (get a.(0) 1 +. get a.(1) 0 +. gbl a.(3) 1)
[@@args n [(0,0); (1,0)] 1 Read, n [(0,0)] 1 Read, c [(0,0)] 1 Rw, gbl 2 Read]

(* A 2D context with node-shaped datasets [x], [x'] and a dim-2 [x2], a
   cell-shaped [y] and [y'], and a fine [f] for a restriction. *)
type mesh = {
  mctx : Ops.ctx;
  block : Ops.block;
  x : Ops.dat;
  x' : Ops.dat;
  x2 : Ops.dat;
  y : Ops.dat;
  y' : Ops.dat;
  f : Ops.dat;
}

let nx = 9 and ny = 8

let make_mesh () =
  let ctx = Ops.create () in
  let block = Ops.decl_block ctx ~name:"b" in
  let dat ?(dim = 1) name xsize ysize =
    let d = Ops.decl_dat ctx ~name ~block ~xsize ~ysize ~halo:1 ~dim () in
    Ops.init ctx d (fun x y c -> Float.of_int ((x * 7) + (y * 3) + c) +. 0.5);
    d
  in
  {
    mctx = ctx;
    block;
    x = dat "x" (nx + 1) (ny + 1);
    x' = dat "x'" (nx + 1) (ny + 1);
    x2 = dat ~dim:2 "x2" (nx + 1) (ny + 1);
    y = dat "y" nx ny;
    y' = dat "y'" nx ny;
    f = dat "f" ((2 * nx) + 2) ((2 * ny) + 2);
  }

let quad_x : Ops.stencil = [| (0, 0); (1, 0) |]

(* One loop per declared fact of [declared], that fact off: the loop's
   name, its arguments, and the argument and fact the refusal must
   name. *)
let mismatches t =
  let g2 = [| 1.0; 2.0 |] in
  let args ?(a0 = Ops.arg_dat t.x quad_x Access.Read)
      ?(a1 = Ops.arg_dat t.x' Ops.stencil_point Access.Read)
      ?(a2 = Ops.arg_dat t.y Ops.stencil_point Access.Rw)
      ?(a3 = Ops.arg_gbl ~name:"g" g2 Access.Read) () =
    [ a0; a1; a2; a3 ]
  in
  [
    ( "sig_stencil",
      args ~a0:(Ops.arg_dat t.x Ops.stencil_2d_plus1y Access.Read) (),
      "argument 0",
      "stencil" );
    ("sig_dim", args ~a1:(Ops.arg_dat t.x2 Ops.stencil_point Access.Read) (), "argument 1", "dim");
    ( "sig_access",
      args ~a2:(Ops.arg_dat t.y Ops.stencil_point Access.Write) (),
      "argument 2",
      "access" );
    ( "sig_length",
      args ~a3:(Ops.arg_gbl ~name:"g" [| 1.0; 2.0; 3.0 |] Access.Read) (),
      "argument 3",
      "length" );
    ( "sig_shape",
      args ~a1:(Ops.arg_dat t.y' Ops.stencil_point Access.Read) (),
      "argument 1",
      "layout label n" );
    ( "sig_stride",
      args ~a0:(Ops.arg_dat_restrict t.f quad_x ~factor:2 Access.Read) (),
      "argument 0",
      "strided" );
    ("sig_idx", args ~a1:Ops.arg_idx (), "argument 1", "iteration index");
    ( "sig_count",
      args () @ [ Ops.arg_gbl ~name:"h" g2 Access.Read ],
      "declares 4 arguments",
      "passes 5" );
  ]

let contains = Str_contains.contains

let test_signature_mismatch () =
  Pool.with_pool ~size:2 (fun pool ->
      List.iter
        (fun (backend, setup) ->
          let t = make_mesh () in
          setup t;
          let snapshot () =
            List.map (fun d -> Array.map bits (Ops.fetch_interior t.mctx d)) (Ops.dats t.mctx)
          in
          let range = Ops.interior t.y in
          List.iter
            (fun (loop, args, arg, fact) ->
              let before = snapshot () in
              (match Ops.par_loop_acc t.mctx ~name:loop t.block range args declared with
              | () -> Alcotest.failf "%s, %s: the mismatched call ran" backend loop
              | exception Invalid_argument msg ->
                List.iter
                  (fun what ->
                    if not (contains msg what) then
                      Alcotest.failf "%s, %s: %S does not name %S" backend loop msg what)
                  [ "Ops.par_loop_acc"; loop; "kernel declared"; arg; fact ]);
              if snapshot () <> before then Alcotest.failf "%s, %s: a dataset changed" backend loop)
            (mismatches t);
          (* The declared shape itself runs. *)
          Ops.par_loop_acc t.mctx ~name:"sig_ok" t.block range
            [
              Ops.arg_dat t.x quad_x Access.Read;
              Ops.arg_dat t.x' Ops.stencil_point Access.Read;
              Ops.arg_dat t.y Ops.stencil_point Access.Rw;
              Ops.arg_gbl ~name:"g" [| 1.0; 2.0 |] Access.Read;
            ]
            declared)
        [
          ("seq", ignore);
          ("shared 2", fun t -> Ops.set_backend t.mctx (Ops.Shared { pool }));
          ( "cuda",
            fun t ->
              Ops.set_backend t.mctx
                (Ops.Cuda_sim
                   { Am_ops.Exec.tile_x = 4; tile_y = 2; strategy = Am_ops.Exec.Cuda_tiled })
          );
          ("check", fun t -> Ops.set_backend t.mctx Ops.Check);
          ("3 ranks", fun t -> Ops.partition t.mctx ~n_ranks:3 ~ref_ysize:ny);
        ])

let () =
  Alcotest.run "range_walker"
    [
      ( "range walker = point walker",
        [
          Alcotest.test_case "seeded OPS loop corpus, ranks 1-3, bitwise (AM_SEED)" `Quick
            test_corpus;
        ]
      );
      ( "declared signatures",
        [
          Alcotest.test_case "a mismatched fact is refused by name on every backend" `Quick
            test_signature_mismatch;
        ] );
    ]

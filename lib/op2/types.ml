(* Core value types of the unstructured-mesh active library.

   An application declares its mesh once — sets (edges, cells, ...), maps
   between sets and datasets on sets — and then expresses all computation as
   parallel loops; see {!Op2} for the user-facing API.  Everything here is
   deliberately backend-agnostic: the same declarations drive the
   sequential, shared-memory, GPU-simulator and distributed backends. *)

module Access = Am_core.Access

type set = { set_id : int; set_name : string; set_size : int }

type map_t = {
  map_id : int;
  map_name : string;
  from_set : set;
  to_set : set;
  arity : int;
  mutable values : int array; (* arity entries per from_set element *)
}

(* Memory layout of a dataset: array-of-structures (element-major, the
   natural CPU layout) or structure-of-arrays (component-major, what the GPU
   backend prefers).  The automatic AoS->SoA conversion of the paper is
   [Op2.convert_layout]. *)
type layout = Aos | Soa

type dat = {
  dat_id : int;
  dat_name : string;
  dat_set : set;
  dim : int;
  mutable data : float array; (* dim values per set element *)
  mutable layout : layout;
}

type arg =
  | Arg_dat of { dat : dat; map : (map_t * int) option; access : Access.t }
    (* [map = None]: direct access on the iteration set.
       [map = Some (m, k)]: element [e] touches [m.values.(e*arity + k)]. *)
  | Arg_gbl of { name : string; buf : float array; access : Access.t }

(* Whether two argument lists are one call site's: the same datasets and
   maps, by physical identity, the same slots and access modes, and
   globals of the same name and length (their buffers are bound per
   call).  Allocates nothing. *)
let rec same_shape a b =
  match (a, b) with
  | [], [] -> true
  | x :: a, y :: b -> same_arg x y && same_shape a b
  | [], _ :: _ | _ :: _, [] -> false

and same_arg x y =
  match (x, y) with
  | Arg_dat { dat = d1; map = m1; access = a1 }, Arg_dat { dat = d2; map = m2; access = a2 } -> (
    d1 == d2 && a1 = a2
    &&
    match (m1, m2) with
    | None, None -> true
    | Some (p, i), Some (q, j) -> p == q && i = j
    | None, Some _ | Some _, None -> false)
  | Arg_gbl g1, Arg_gbl g2 ->
    String.equal g1.name g2.name && Array.length g1.buf = Array.length g2.buf && g1.access = g2.access
  | (Arg_dat _ | Arg_gbl _), _ -> false

(* Declaration registry: one per application context. *)
type env = {
  mutable sets : set list; (* reversed declaration order *)
  mutable maps : map_t list;
  mutable dats : dat list;
  mutable consts : (string * float array) list; (* op_decl_const registry *)
  mutable next_id : int;
}

let make_env () = { sets = []; maps = []; dats = []; consts = []; next_id = 0 }

let fresh_id env =
  let id = env.next_id in
  env.next_id <- id + 1;
  id

let decl_set env ~name ~size =
  if size < 0 then invalid_arg "decl_set: negative size";
  let s = { set_id = fresh_id env; set_name = name; set_size = size } in
  env.sets <- s :: env.sets;
  s

let decl_map env ~name ~from_set ~to_set ~arity ~values =
  if arity <= 0 then invalid_arg "decl_map: arity must be positive";
  if Array.length values <> from_set.set_size * arity then
    invalid_arg (Printf.sprintf "decl_map %s: expected %d values, got %d" name
                   (from_set.set_size * arity) (Array.length values));
  Array.iter
    (fun v ->
      if v < 0 || v >= to_set.set_size then
        invalid_arg (Printf.sprintf "decl_map %s: target %d out of range" name v))
    values;
  let m =
    { map_id = fresh_id env; map_name = name; from_set; to_set; arity;
      values = Array.copy values }
  in
  env.maps <- m :: env.maps;
  m

let decl_dat env ~name ~set ~dim ~data =
  if dim <= 0 then invalid_arg "decl_dat: dim must be positive";
  if Array.length data <> set.set_size * dim then
    invalid_arg (Printf.sprintf "decl_dat %s: expected %d values, got %d" name
                   (set.set_size * dim) (Array.length data));
  let d =
    { dat_id = fresh_id env; dat_name = name; dat_set = set; dim;
      data = Array.copy data; layout = Aos }
  in
  env.dats <- d :: env.dats;
  d

let decl_dat_const env ~name ~set ~dim ~value =
  decl_dat env ~name ~set ~dim ~data:(Array.make (set.set_size * dim) value)

(* op_decl_const: global simulation constants registered with the library
   so the code generator can emit them per target (e.g. CUDA constant
   memory) and diagnostics can report them. *)
let decl_global_const env ~name values =
  if List.mem_assoc name env.consts then
    invalid_arg (Printf.sprintf "decl_const: %s already declared" name);
  if Array.length values = 0 then invalid_arg "decl_const: empty constant";
  env.consts <- (name, Array.copy values) :: env.consts

let consts env = List.rev env.consts

let sets env = List.rev env.sets
let maps env = List.rev env.maps
let dats env = List.rev env.dats

let dats_on env set =
  List.filter (fun d -> d.dat_set.set_id = set.set_id) (dats env)

let maps_from env set =
  List.filter (fun m -> m.from_set.set_id = set.set_id) (maps env)

let maps_to env set =
  List.filter (fun m -> m.to_set.set_id = set.set_id) (maps env)

(* Layout-aware addressing into a dataset array holding [n] elements of
   [dim] components.  In distributed mode [n] is the rank-local element
   count, so it is threaded explicitly rather than read off the set. *)
let value_index layout ~n ~dim ~elem ~comp =
  match layout with
  | Aos -> (elem * dim) + comp
  | Soa -> (comp * n) + elem

let dat_n_elems dat = Array.length dat.data / dat.dim

let dat_get dat ~elem ~comp =
  dat.data.(value_index dat.layout ~n:(dat_n_elems dat) ~dim:dat.dim ~elem ~comp)

let dat_set_value dat ~elem ~comp v =
  dat.data.(value_index dat.layout ~n:(dat_n_elems dat) ~dim:dat.dim ~elem ~comp) <- v

(* Convert a raw array between layouts. *)
let convert_array ~from_layout ~to_layout ~n ~dim data =
  if from_layout = to_layout then data
  else begin
    let out = Array.make (Array.length data) 0.0 in
    for elem = 0 to n - 1 do
      for comp = 0 to dim - 1 do
        out.(value_index to_layout ~n ~dim ~elem ~comp) <-
          data.(value_index from_layout ~n ~dim ~elem ~comp)
      done
    done;
    out
  end

let arg_access = function
  | Arg_dat { access; _ } -> access
  | Arg_gbl { access; _ } -> access

let arg_dim = function
  | Arg_dat { dat; _ } -> dat.dim
  | Arg_gbl { buf; _ } -> Array.length buf

let is_indirect = function
  | Arg_dat { map = Some _; _ } -> true
  | Arg_dat { map = None; _ } | Arg_gbl _ -> false

(* Validate an argument list against the iteration set; raises
   [Invalid_argument] with a precise message on misuse.  This is the
   "consistency checking" developer aid the paper describes. *)
let validate_args ~iter_set args =
  List.iteri
    (fun i arg ->
      let fail msg = invalid_arg (Printf.sprintf "par_loop arg %d: %s" i msg) in
      match arg with
      | Arg_gbl { buf; access; name } ->
        if not (Access.valid_on_gbl access) then
          fail (Printf.sprintf "global %s: access %s not valid on globals" name
                  (Access.to_string access));
        if Array.length buf = 0 then fail (Printf.sprintf "global %s: empty buffer" name)
      | Arg_dat { dat; map = None; access } ->
        if not (Access.valid_on_dat access) then
          fail (Printf.sprintf "dat %s: access %s not valid on datasets" dat.dat_name
                  (Access.to_string access));
        if dat.dat_set.set_id <> iter_set.set_id then
          fail (Printf.sprintf "direct dat %s lives on set %s, loop iterates %s"
                  dat.dat_name dat.dat_set.set_name iter_set.set_name)
      | Arg_dat { dat; map = Some (m, k); access } ->
        if not (Access.valid_on_dat access) then
          fail (Printf.sprintf "dat %s: access %s not valid on datasets" dat.dat_name
                  (Access.to_string access));
        if m.from_set.set_id <> iter_set.set_id then
          fail (Printf.sprintf "map %s goes from set %s, loop iterates %s" m.map_name
                  m.from_set.set_name iter_set.set_name);
        if m.to_set.set_id <> dat.dat_set.set_id then
          fail (Printf.sprintf "map %s targets set %s, but dat %s lives on %s"
                  m.map_name m.to_set.set_name dat.dat_name dat.dat_set.set_name);
        if k < 0 || k >= m.arity then
          fail (Printf.sprintf "map %s has arity %d, index %d out of range" m.map_name
                  m.arity k))
    args

(* Build the backend-independent loop descriptor for tracing/profiling. *)
let describe ~name ~iter_set ~info args : Am_core.Descr.loop =
  let arg_descr = function
    | Arg_gbl { name; buf; access } ->
      {
        Am_core.Descr.dat_name = name;
        dat_id = -1;
        dim = Array.length buf;
        access;
        kind = Am_core.Descr.Global;
      }
    | Arg_dat { dat; map = None; access } ->
      {
        Am_core.Descr.dat_name = dat.dat_name;
        dat_id = dat.dat_id;
        dim = dat.dim;
        access;
        kind = Am_core.Descr.Direct;
      }
    | Arg_dat { dat; map = Some (m, k); access } ->
      {
        Am_core.Descr.dat_name = dat.dat_name;
        dat_id = dat.dat_id;
        dim = dat.dim;
        access;
        kind =
          Am_core.Descr.Indirect
            {
              map_name = m.map_name;
              map_index = k;
              ratio =
                Float.of_int m.to_set.set_size /. Float.of_int (max 1 m.from_set.set_size);
            };
      }
  in
  {
    Am_core.Descr.loop_name = name;
    set_name = iter_set.set_name;
    set_size = iter_set.set_size;
    args = List.map arg_descr args;
    info;
  }

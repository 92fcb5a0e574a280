(* Generated walkers for accessor kernels: [let%kernel] for structured
   meshes (OPS) and [let%elem_kernel] for unstructured ones (OP2).

     let%kernel pdv_acc (a : Acc.t array) = body
     [@@args node [(0,0); (1,0); (0,1); (1,1)] 1 Read, ..., gbl 4 Read]

   binds [pdv_acc] to an [Am_core.Acc.kernel] value: the point form [fun
   (a : Acc.t array) -> body], exactly as written, and one range walker
   per declared signature, whose [range] is native — the walker compiled to
   C (see "Native walkers" below) — and whose [reference] is the same
   walker in OCaml.  The signature states per argument what OPS's
   [ops_arg_dat]/[ops_arg_gbl] state: [label [offsets] dim Access] for a
   dataset, with its stencil as literal offsets ([x], [(x, y)] or [(x, y,
   z)]) in declaration order, and [gbl length Access] for a global.
   Labels are layout names local to the signature: arguments with one
   label pass datasets of one shape, which [Ops.par_loop_acc] checks on
   every call.  A kernel that runs with more than one set of stencils (an
   x and a y sweep) takes one [[@@args]] per variant on its one body; a
   call runs the walker whose stencils equal its arguments'.  The walker
   [range places xlo xhi ylo yhi zlo zhi] runs [body] at every point of the
   box, z, then y, then x, as the OPS translator's generated loop nests do
   (the paper's Fig 7).  Per call it loads one base, plane and row stride
   per layout label, from the first argument with that label (the column
   stride is the declared dim, a constant), one offset local per distinct
   (label, literal stencil point), each dataset's array, each [Read]
   global component the body names by a literal, and one float local per
   component of an [Inc]/[Min]/[Max] global that every use names by a
   literal, stored into the worker's buffer after the box.  Per point it
   computes one index per label.  With flambda off and libraries built
   [-opaque], nothing else would inline the kernel into the executor's
   loop.

   The body names accessors as [a.(k)] with a literal [k], or as variables
   [let]-bound to one, and uses them only through the kernel module's four
   accessor functions, which the walker replaces by direct indexing:

     get x p        stencil point p: data.(i + o_p) for a literal p (the
                    label's index i and its offset local), data.(i +
                    off.(p)) for a computed one (the argument's table)
     set x v        the centre point: data.(i) <- v
     gbl x c        component c of a global (a local or its buffer), or of
                    a dataset's point 0
     set_gbl x c v  the same, written

   The signature rules out, at compile time: a literal stencil point
   outside the declared stencil, a literal component outside the declared
   dim or length, a [set] or [set_gbl] on a [Read] argument, [get]/[set] on
   a global, an argument number outside the signature, a missing or
   inconsistent signature (one label with two dims, variants of different
   lengths or with the same stencils, a written dataset with a stencil
   other than the centre), and an [Inc] dataset: the executors stage [Inc]
   datasets, so such a kernel is a plain point function ([Acc.lift]).

     let%elem_kernel res_calc (a : Acc.t array) = body
     [@@args x (edge_nodes 2 0) 2 Read, ..., res (edge_cells 2 1) 4 Inc]

   binds [res_calc] to an [Am_core.Acc.elem_kernel] value: the point form
   as written, and ([Some]) an element walker generated for the declared
   argument signature, whose [elems] is native — the walker compiled to C
   (see "Native walkers" below) — and whose [reference] is the same walker
   in OCaml.  The signature states per argument what OP2's
   [op_arg_dat]/[op_arg_gbl] state: [label dim Access] for a direct
   dataset, [label (map arity slot) dim Access] for an indirect one, [gbl
   length Access] for a global.  Labels are names local to the signature:
   arguments with one dataset label pass one dataset, with one map label
   one map, which [Op2.par_loop_acc] checks on every call.  The walker
   [elems w lo hi] runs [body] at every element of [lo, hi), as the OP2
   translator's generated loops do, with every dim, arity and slot a
   constant.  Per call it loads one dataset array per dataset label and
   one map table per map label; per element it loads each (map label,
   slot) once and computes each base, [t * dim] or [e * dim].  [Read],
   [Write] and [Rw] datasets are addressed in place.  An [Inc] dataset, or
   an [Inc]/[Min]/[Max] global, that every use names by a literal
   component lives in float locals: per element for a dataset, per range
   for a global, which is then stored into the worker's accumulator.  With
   a computed component it lives in the worker's buffer, a dataset's
   zeroed before the body.  After the body every [Inc] dataset adds all
   its [dim] components back to memory, in argument order and then
   component order, as the point walker does.  The vocabulary is two
   functions, with a literal or computed component [c]:

     get x c        data.(b + c)
     set x c v      data.(b + c) <- v

   The signature also rules out, at compile time, a literal component
   outside [0, dim), a [set] on a [Read] argument, an argument number
   outside the signature, and a missing or inconsistent signature.

   In both OCaml forms indexing stays [Array.get]/[Array.set],
   bounds-checked, and each point or element evaluates the same
   floating-point operations in the same order as the point form; both
   native walkers evaluate them too, a range walker after proving its
   whole box inside every array once per call, an element walker after
   proving its range inside every direct dataset and map table once per
   call and each map entry it loads once per element.  Any other use of
   an accessor — passed to a function, returned or stored, indexed by a
   non-literal argument number — and a parameter other than
   [(a : Acc.t array)] are errors located at the offending expression; a
   generated walker never falls back to per-point calls inside itself. *)

open Ppxlib

(* Which walker a kernel gets: range walkers ([let%kernel]) or an element
   walker ([let%elem_kernel]). *)
type form = Ranges | Elements

let extension_name = function Ranges -> "kernel" | Elements -> "elem_kernel"

let vocabulary = function
  | Ranges -> [ ("get", 2); ("set", 2); ("gbl", 2); ("set_gbl", 3) ]
  | Elements -> [ ("get", 2); ("set", 3) ]

let vocabulary_names = function
  | Ranges -> "get, set, gbl and set_gbl"
  | Elements -> "get and set"

(* The accessors one kernel uses: per argument number, the literal stencil
   points a dataset is read or written at (point 0 for [set], [gbl] and
   [set_gbl]) and whether a computed point reads its offset table; for a
   global, and for an element walker's arguments, the literal components
   and whether some use names a computed one. *)
type use = { mutable points : int list; mutable table : bool }

(* One argument of a declared signature ([@@args]).  An element kernel's
   dataset has its label, dim, access mode and, when indirect, its map
   label, arity and slot; a structured kernel's dataset its layout label,
   stencil (literal (x, y, z) offsets), dim and access mode; a global of
   either its length and access mode.
   Access modes are constructor names ("Read", "Inc", ...). *)
type sarg =
  | Sdat of { label : string; dim : int; access : string; via : (string * int * int) option }
  | Sgrid of { label : string; stencil : (int * int * int) array; dim : int; access : string }
  | Sgbl of { len : int; access : string }

(* How a walker reaches an argument: the dataset in place (at a base
   computed per element, or the label's index per point); float locals,
   one per literal component (an [Inc] dataset's per element, a global's
   per range: immutable for a [Read] global, stored back for
   [Inc]/[Min]/[Max]); or the worker's buffer at base 0 (an [Inc]
   dataset's scratch, a global's accumulator). *)
type route = In_place | Locals | Buffer

type env = {
  form : form;
  kname : string;
  param : string option; (* [None] once a binder shadows it *)
  aliases : (string * int) list;
  uses : (int, use) Hashtbl.t;
  sg : sarg array; (* the declared signature *)
  routes : route array; (* per argument *)
}

let fail env ~loc fmt =
  Location.raise_errorf ~loc ("%%%s %s: " ^^ fmt) (extension_name env.form) env.kname

let use env k =
  match Hashtbl.find_opt env.uses k with
  | Some u -> u
  | None ->
    let u = { points = []; table = false } in
    Hashtbl.add env.uses k u;
    u

let literal_int e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_integer (s, None)) -> int_of_string_opt s
  | _ -> None

(* The argument number [e] names, if it is an accessor: [a.(k)] on the
   kernel parameter with a literal [k], or an alias.  [a.(i)] with any
   other [i] is refused here. *)
let accessor env e =
  match e.pexp_desc with
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Ldot (Lident "Array", "get"); _ }; _ },
        [ (Nolabel, { pexp_desc = Pexp_ident { txt = Lident v; _ }; _ }); (Nolabel, i) ] )
    when Some v = env.param -> (
    match literal_int i with
    | Some k when k >= Array.length env.sg ->
      fail env ~loc:i.pexp_loc "argument %d is outside the signature, which declares %d" k
        (Array.length env.sg)
    | Some k when k >= 0 -> Some k
    | Some _ | None ->
      fail env ~loc:i.pexp_loc "%s.(i) needs a literal argument number i" v)
  | Pexp_ident { txt = Lident v; _ } -> List.assoc_opt v env.aliases
  | _ -> None

(* Is [e] the kernel's accessor array itself? *)
let is_param env e =
  match e.pexp_desc with
  | Pexp_ident { txt = Lident v; _ } -> Some v = env.param
  | _ -> false

let escapes env e =
  fail env ~loc:e.pexp_loc
    "an accessor is returned or stored; accessors may only be read and written through %s"
    (vocabulary_names env.form)

(* Generated names; the [__kernel_] prefix keeps them apart from the
   body's own. *)
let data k = Printf.sprintf "__kernel_d%d" k
let offs k = Printf.sprintf "__kernel_o%d" k
let base k = Printf.sprintf "__kernel_b%d" k

let evar ~loc name = Ast_builder.Default.evar ~loc name

(* Variables a pattern binds. *)
let bound_vars =
  object
    inherit [string list] Ast_traverse.fold as super

    method! pattern p acc =
      let acc =
        match p.ppat_desc with
        | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) -> txt :: acc
        | _ -> acc
      in
      super#pattern p acc
  end

let shadow env names =
  {
    env with
    param = (match env.param with Some v when List.mem v names -> None | p -> p);
    aliases = List.filter (fun (v, _) -> not (List.mem v names)) env.aliases;
  }

let shadow_pat env p = shadow env (bound_vars#pattern p [])

(* ---- Element walkers ------------------------------------------------------ *)

(* The first argument of [sg] that [same] pairs with argument [k]: the one
   whose local the element walker shares among the arguments with one
   dataset label, one map label, or one map label and slot. *)
let first sg same k =
  let rec from j = if same sg.(j) sg.(k) then j else from (j + 1) in
  from 0

let same_dataset a b =
  match (a, b) with Sdat a, Sdat b -> String.equal a.label b.label | _ -> false

let same_map a b =
  match (a, b) with
  | Sdat { via = Some (m, _, _); _ }, Sdat { via = Some (m', _, _); _ } -> String.equal m m'
  | _ -> false

let same_target a b =
  match (a, b) with
  | Sdat { via = Some (m, _, s); _ }, Sdat { via = Some (m', _, s'); _ } ->
    String.equal m m' && s = s'
  | _ -> false

let map_local j = Printf.sprintf "__kernel_m%d" j
let target j = Printf.sprintf "__kernel_t%d" j
let local k c = Printf.sprintf "__kernel_u%d_%d" k c
let buffer k = Printf.sprintf "__kernel_z%d" k

(* [get x c] ([v = None]) or [set x c v] on argument [k] of an element
   walker, or [gbl x c]/[set_gbl x c v] on a global of a range walker, once
   the declaration allows it: a literal component within the declared dim
   (a global's length), and no [set] on a [Read] argument.  A [Read]
   global's literal components are immutable locals. *)
let elem_use env ~loc k u c v =
  let dim, access, what =
    match env.sg.(k) with
    | Sdat { dim; access; _ } | Sgrid { dim; access; _ } -> (dim, access, "dim")
    | Sgbl { len; access } -> (len, access, "length")
  in
  let lit = literal_int c in
  (match lit with
  | Some ci when ci < 0 || ci >= dim ->
    fail env ~loc:c.pexp_loc "component %d is outside [0, %d), argument %d's declared %s" ci dim
      k what
  | Some ci -> if not (List.mem ci u.points) then u.points <- ci :: u.points
  | None -> u.table <- true);
  if Option.is_some v && access = "Read" then
    fail env ~loc "set on argument %d, which the signature declares Read" k;
  let ev = evar ~loc in
  match (env.routes.(k), lit, v) with
  | In_place, _, _ -> (
    let d = ev (data (first env.sg same_dataset k)) in
    let i = [%expr Stdlib.( + ) [%e ev (base k)] [%e c]] in
    match v with
    | None -> [%expr Stdlib.Array.get [%e d] [%e i]]
    | Some v -> [%expr Stdlib.Array.set [%e d] [%e i] [%e v]])
  | Locals, Some ci, None when access = "Read" -> ev (local k ci)
  | Locals, Some ci, None -> [%expr Stdlib.( ! ) [%e ev (local k ci)]]
  | Locals, Some ci, Some v -> [%expr Stdlib.( := ) [%e ev (local k ci)] [%e v]]
  | (Buffer | Locals), _, None -> [%expr Stdlib.Array.get [%e ev (buffer k)] [%e c]]
  | (Buffer | Locals), _, Some v -> [%expr Stdlib.Array.set [%e ev (buffer k)] [%e c] [%e v]]

(* ---- Range walkers -------------------------------------------------------- *)

let same_layout a b =
  match (a, b) with Sgrid a, Sgrid b -> String.equal a.label b.label | _ -> false

(* A range walker's per-label names: the index of the current point, the
   index of the current plane's and row's x = 0, the base and strides, and
   the offset local of one literal stencil point, named by its offsets
   without trailing zeros ([__kernel_o_node_1_1] for (1, 1)). *)
let index l = "__kernel_i_" ^ l
let plane_start l = "__kernel_q_" ^ l
let row_start l = "__kernel_r_" ^ l
let lbase l = "__kernel_base_" ^ l
let lplane l = "__kernel_plane_" ^ l
let lrow l = "__kernel_row_" ^ l

let offset_local l (x, y, z) =
  let coord v = if v < 0 then Printf.sprintf "m%d" (-v) else string_of_int v in
  let coords = match (y, z) with 0, 0 -> [ x ] | _, 0 -> [ x; y ] | _ -> [ x; y; z ] in
  String.concat "_" ("__kernel_o" :: l :: List.map coord coords)

(* [f x ...] ([get], [set], [gbl] or [set_gbl], its operands rewritten) on
   argument [k] of a range walker, once the declaration allows it.  A
   dataset is indexed from its label's index: a literal stencil point within
   the declared stencil through its offset local (none for the centre), a
   computed one through the argument's offset table, [gbl]/[set_gbl]'s
   component within the declared dim at point 0; a global goes through
   [elem_use].  [set] and [set_gbl] on a [Read] argument, and [get]/[set]
   on a global, are refused. *)
let grid_use env ~loc k u f rest =
  let ev = evar ~loc in
  match env.sg.(k) with
  | Sgbl _ -> (
    match (f, rest) with
    | "gbl", [ c ] -> elem_use env ~loc k u c None
    | "set_gbl", [ c; v ] -> elem_use env ~loc k u c (Some v)
    | _ ->
      fail env ~loc
        "%s on argument %d, which the signature declares a global: a global is read with gbl and \
         written with set_gbl"
        f k)
  | Sdat _ -> assert false
  | Sgrid { label; stencil; dim; access } -> (
    let note p = if not (List.mem p u.points) then u.points <- p :: u.points in
    (* The flat index of literal stencil point [p] at the current point. *)
    let at p =
      note p;
      if stencil.(p) = (0, 0, 0) then ev (index label)
      else [%expr Stdlib.( + ) [%e ev (index label)] [%e ev (offset_local label stencil.(p))]]
    in
    let component c =
      match literal_int c with
      | Some ci when ci < 0 || ci >= dim ->
        fail env ~loc:c.pexp_loc "component %d is outside [0, %d), argument %d's declared dim" ci
          dim k
      | Some 0 -> at 0
      | Some _ | None -> [%expr Stdlib.( + ) [%e at 0] [%e c]]
    in
    let written () =
      if access = "Read" then
        fail env ~loc "%s on argument %d, which the signature declares Read" f k
    in
    let d = ev (data k) in
    match (f, rest) with
    | "get", [ p ] -> (
      match literal_int p with
      | Some pi when pi < 0 || pi >= Array.length stencil ->
        fail env ~loc:p.pexp_loc
          "stencil point %d is outside argument %d's declared stencil of %d point%s" pi k
          (Array.length stencil)
          (if Array.length stencil = 1 then "" else "s")
      | Some pi -> [%expr Stdlib.Array.get [%e d] [%e at pi]]
      | None ->
        u.table <- true;
        [%expr
          Stdlib.Array.get [%e d]
            (Stdlib.( + ) [%e ev (index label)] (Stdlib.Array.get [%e ev (offs k)] [%e p]))])
    | "set", [ v ] ->
      written ();
      [%expr Stdlib.Array.set [%e d] [%e at 0] [%e v]]
    | "gbl", [ c ] -> [%expr Stdlib.Array.get [%e d] [%e component c]]
    | "set_gbl", [ c; v ] ->
      written ();
      [%expr Stdlib.Array.set [%e d] [%e component c] [%e v]]
    | _ -> assert false)

let rewrite =
  object (self)
    inherit [env] Ast_traverse.map_with_context as super

    method! expression env e =
      let loc = e.pexp_loc in
      match accessor env e with
      | Some _ -> escapes env e
      | None -> (
        if is_param env e then escapes env e;
        match e.pexp_desc with
        | Pexp_apply
            ({ pexp_desc = Pexp_ident { txt = Lident f; _ }; _ }, ((Nolabel, x) :: rest as args))
          when List.assoc_opt f (vocabulary env.form) = Some (List.length args)
               && List.for_all (fun (l, _) -> l = Nolabel) rest
               && accessor env x <> None -> (
          let k = Option.get (accessor env x) in
          let u = use env k in
          match (env.form, f, List.map (fun (_, a) -> self#expression env a) rest) with
          | Ranges, f, rest -> grid_use env ~loc k u f rest
          | Elements, "get", [ c ] -> elem_use env ~loc k u c None
          | Elements, "set", [ c; v ] -> elem_use env ~loc k u c (Some v)
          | _ -> assert false)
        | Pexp_apply (_, args) ->
          List.iter
            (fun (_, a) ->
              if accessor env a <> None || is_param env a then
                fail env ~loc:a.pexp_loc
                  "an accessor is passed to a function; only %s may take one"
                  (vocabulary_names env.form))
            args;
          super#expression env e
        | Pexp_let (Nonrecursive, vbs, body) ->
          (* [let x = a.(k)] (or another alias) is an alias, dropped from the
             row form; the other bindings are rewritten in the outer scope
             and shadow what they bind. *)
          let aliases, kept =
            List.partition_map
              (fun vb ->
                let name =
                  match vb.pvb_pat.ppat_desc with
                  | Ppat_var { txt; _ } | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _)
                    ->
                    Some txt
                  | _ -> None
                in
                match (name, accessor env vb.pvb_expr) with
                | Some x, Some k -> Left (x, k)
                | _ -> Right { vb with pvb_expr = self#expression env vb.pvb_expr })
              vbs
          in
          let inner = List.fold_left (fun env vb -> shadow_pat env vb.pvb_pat) env kept in
          let inner = shadow inner (List.map fst aliases) in
          let inner = { inner with aliases = aliases @ inner.aliases } in
          let body = self#expression inner body in
          if kept = [] then body else { e with pexp_desc = Pexp_let (Nonrecursive, kept, body) }
        | Pexp_let (Recursive, vbs, _) ->
          super#expression
            (List.fold_left (fun env vb -> shadow_pat env vb.pvb_pat) env vbs)
            e
        | Pexp_function (params, _, _) ->
          let env =
            List.fold_left
              (fun env p ->
                match p.pparam_desc with
                | Pparam_val (_, _, pat) -> shadow_pat env pat
                | Pparam_newtype _ -> env)
              env params
          in
          super#expression env e
        | Pexp_for (pat, _, _, _, _) ->
          (* The bounds are outside the index's scope but cannot name it. *)
          super#expression (shadow_pat env pat) e
        | _ -> super#expression env e)

    method! case env c = super#case (shadow_pat env c.pc_lhs) c
  end

(* The route of each argument, from the uses the body makes of it: an
   [Inc] dataset or an [Inc]/[Min]/[Max] global takes float locals when
   every use names a literal component, the worker's buffer otherwise; a
   [Read] global the buffer for an element walker, and for a range walker
   immutable locals for its literal components (a computed one reads the
   buffer); any other dataset is addressed in place. *)
let routes_of form sg uses =
  Array.mapi
    (fun k a ->
      let computed = match Hashtbl.find_opt uses k with Some u -> u.table | None -> false in
      match a with
      | Sdat { access = "Inc"; _ } | Sgbl { access = "Inc" | "Min" | "Max"; _ } ->
        if computed then Buffer else Locals
      | Sdat _ | Sgrid _ -> In_place
      | Sgbl _ -> ( match form with Ranges -> Locals | Elements -> Buffer))
    sg

let rec sequence ~loc = function
  | [] -> [%expr ()]
  | [ x ] -> x
  | x :: rest -> [%expr [%e x]; [%e sequence ~loc rest]]

(* What an element walker for one signature loads, shared by its OCaml and
   its C form.  [based] are the arguments with a per-element base: every
   [Inc] dataset, and every dataset the body addresses in place; [targets]
   the first based argument of each distinct (map label, slot); [dats]
   and [maps] the first based argument of each dataset label and of each
   map label; [buffers] the arguments the walker reads through the
   worker's buffer (a global, an [Inc] dataset's scratch); [gbl_locals]
   and [inc_locals] the float locals of an [Inc]/[Min]/[Max] global's and
   of an [Inc] dataset's literal components. *)
type elem_layout = {
  incs : int list;
  based : int list;
  targets : int list;
  dats : int list;
  maps : int list;
  buffers : int list;
  gbl_locals : (int * int) list;
  inc_locals : (int * int) list;
}

let via env k = match env.sg.(k) with Sdat { via; _ } -> via | Sgrid _ | Sgbl _ -> None

let dim_of env k =
  match env.sg.(k) with Sdat { dim; _ } | Sgrid { dim; _ } -> dim | Sgbl { len; _ } -> len

let is_dat env k = match env.sg.(k) with Sdat _ | Sgrid _ -> true | Sgbl _ -> false

let points env k =
  match Hashtbl.find_opt env.uses k with Some u -> List.sort compare u.points | None -> []

let elem_layout env =
  let sg = env.sg in
  let ks = List.init (Array.length sg) Fun.id in
  let used k = Hashtbl.mem env.uses k in
  let incs =
    List.filter (fun k -> match sg.(k) with Sdat { access = "Inc"; _ } -> true | _ -> false) ks
  in
  let based =
    List.filter
      (fun k -> List.mem k incs || (is_dat env k && env.routes.(k) = In_place && used k))
      ks
  in
  let indirect = List.filter (fun k -> via env k <> None) based in
  let firsts same l = List.sort_uniq compare (List.map (first sg same) l) in
  let buffered k =
    env.routes.(k) = Buffer || ((not (is_dat env k)) && env.routes.(k) = Locals)
  in
  let locals pred =
    List.concat_map
      (fun k -> if pred k then List.map (fun c -> (k, c)) (points env k) else [])
      ks
  in
  {
    incs;
    based;
    targets = firsts same_target indirect;
    dats = firsts same_dataset based;
    maps = firsts same_map indirect;
    buffers = List.filter (fun k -> used k && buffered k) ks;
    gbl_locals = locals (fun k -> (not (is_dat env k)) && env.routes.(k) = Locals);
    inc_locals = locals (fun k -> is_dat env k && env.routes.(k) = Locals);
  }

(* The element walker around the rewritten [body], with the signature's
   dims, arities and slots as constants.  Per call it loads one dataset
   array per dataset label and one map table per map label the walker
   needs, from the first argument with that label, the worker's buffers,
   and an [Inc]/[Min]/[Max] global's literal components into float locals,
   stored back after the range.  Per element it loads each (map label,
   slot) once, computes the base of every argument addressed in place and
   of every [Inc], starts each [Inc] at zero (float locals, or its zeroed
   scratch), runs the body, and adds every [Inc]'s [dim] components back
   to memory, in argument order and then component order — a component
   the body never names adds 0.0, turning a -0.0 target into +0.0 as the
   point walker does. *)
let elems_form ~loc env body =
  let sg = env.sg in
  let ev = evar ~loc and eint = Ast_builder.Default.eint ~loc in
  let lets bindings body =
    List.fold_right
      (fun (name, e) acc ->
        [%expr let [%p Ast_builder.Default.pvar ~loc name] = [%e e] in [%e acc]])
      bindings body
  in
  let { incs; based; targets; dats; maps; buffers; gbl_locals; inc_locals } = elem_layout env in
  let dim = dim_of env and points = points env in
  let targets =
    List.map
      (fun j ->
        let _, arity, slot = Option.get (via env j) in
        let row =
          if arity = 1 then [%expr __kernel_e] else [%expr Stdlib.( * ) __kernel_e [%e eint arity]]
        in
        let i = if slot = 0 then row else [%expr Stdlib.( + ) [%e row] [%e eint slot]] in
        (target j, [%expr Stdlib.Array.get [%e ev (map_local (first sg same_map j))] [%e i]]))
      targets
  in
  let bases =
    List.map
      (fun k ->
        let at =
          if via env k = None then [%expr __kernel_e] else ev (target (first sg same_target k))
        in
        (base k, [%expr Stdlib.( * ) [%e at] [%e eint (dim k)]]))
      based
  in
  let zeroed =
    List.concat_map
      (fun k ->
        if env.routes.(k) <> Buffer then []
        else
          List.init (dim k) (fun c ->
              [%expr Stdlib.Array.set [%e ev (buffer k)] [%e eint c] 0.0]))
      incs
  in
  let add_back =
    List.concat_map
      (fun k ->
        let d = ev (data (first sg same_dataset k)) in
        List.init (dim k) (fun c ->
            let v =
              if env.routes.(k) = Buffer then
                [%expr Stdlib.Array.get [%e ev (buffer k)] [%e eint c]]
              else if List.mem c (points k) then [%expr Stdlib.( ! ) [%e ev (local k c)]]
              else [%expr 0.0]
            in
            [%expr
              let __kernel_j = Stdlib.( + ) [%e ev (base k)] [%e eint c] in
              Stdlib.Array.set [%e d] __kernel_j
                (Stdlib.( +. ) (Stdlib.Array.get [%e d] __kernel_j) [%e v])]))
      incs
  in
  let element =
    lets
      (targets @ bases @ List.map (fun (k, c) -> (local k c, [%expr Stdlib.ref 0.0])) inc_locals)
      (sequence ~loc (zeroed @ (body :: add_back)))
  in
  let loop =
    [%expr for __kernel_e = __kernel_lo to Stdlib.( - ) __kernel_hi 1 do [%e element] done]
  in
  let per_call =
    (if dats = [] && maps = [] then []
     else [ ("__kernel_addrs", [%expr __kernel_walk.Am_core.Acc.addrs]) ])
    @ (if buffers = [] then [] else [ ("__kernel_bufs", [%expr __kernel_walk.Am_core.Acc.bufs]) ])
    @ List.map
        (fun j -> (data j, [%expr (Stdlib.Array.get __kernel_addrs [%e eint j]).Am_core.Acc.adata]))
        dats
    @ List.map
        (fun j ->
          (map_local j, [%expr (Stdlib.Array.get __kernel_addrs [%e eint j]).Am_core.Acc.amap]))
        maps
    @ List.map (fun k -> (buffer k, [%expr Stdlib.Array.get __kernel_bufs [%e eint k]])) buffers
    @ List.map
        (fun (k, c) ->
          (local k c, [%expr Stdlib.ref (Stdlib.Array.get [%e ev (buffer k)] [%e eint c])]))
        gbl_locals
  in
  let store =
    List.map
      (fun (k, c) ->
        [%expr Stdlib.Array.set [%e ev (buffer k)] [%e eint c] (Stdlib.( ! ) [%e ev (local k c)])])
      gbl_locals
  in
  [%expr
    fun (__kernel_walk : Am_core.Acc.walk) (__kernel_lo : int) (__kernel_hi : int) ->
      if Stdlib.( < ) __kernel_lo __kernel_hi then
        [%e lets per_call (sequence ~loc (loop :: store))]]

(* What a range walker for one signature loads per call, shared by its
   OCaml and its C form: the used dataset and global arguments, the first
   argument of each used layout label, and each distinct (label, literal
   stencil point) off the centre that some use names, with the label's
   dim. *)
type layout = {
  datasets : int list;
  globals : int list;
  firsts : int list;
  offsets : (string * int * (int * int * int)) list;
}

let grid env k =
  match env.sg.(k) with Sgrid g -> (g.label, g.stencil, g.dim) | Sdat _ | Sgbl _ -> assert false

let layout env =
  let sg = env.sg in
  let ks = List.filter (Hashtbl.mem env.uses) (List.init (Array.length sg) Fun.id) in
  let datasets = List.filter (fun k -> match sg.(k) with Sgrid _ -> true | _ -> false) ks in
  let offsets =
    List.sort_uniq compare
      (List.concat_map
         (fun k ->
           let l, stencil, dim = grid env k in
           List.filter_map
             (fun p -> if stencil.(p) = (0, 0, 0) then None else Some (l, dim, stencil.(p)))
             (Hashtbl.find env.uses k).points)
         datasets)
  in
  {
    datasets;
    globals = List.filter (fun k -> match sg.(k) with Sgbl _ -> true | _ -> false) ks;
    firsts = List.sort_uniq compare (List.map (first sg same_layout) datasets);
    offsets;
  }

(* The range walker around the rewritten [body], for one declared
   signature.  Per call, when the box is not empty, it loads per layout
   label the base, plane and row stride of the label's first argument's
   place; one offset local per distinct (label, literal stencil point) off
   the centre, from those strides and the declared dim; each used dataset's
   array, and its offset table when a computed point reads it; each used
   global's buffer, a [Read] global's literal components and an
   [Inc]/[Min]/[Max] global's float locals.  It then runs z, y and x over
   the box, computing per plane, row and point one index per label, and
   after the box stores each float local into its buffer. *)
let range_form ~loc env body =
  let ev = evar ~loc and eint = Ast_builder.Default.eint ~loc in
  let pvar = Ast_builder.Default.pvar ~loc in
  let lets bindings body =
    List.fold_right
      (fun (name, e) acc -> [%expr let [%p pvar name] = [%e e] in [%e acc]])
      bindings body
  in
  let use k = Hashtbl.find env.uses k in
  let { datasets; globals; firsts; offsets } = layout env in
  let grid = grid env in
  let label k = let l, _, _ = grid k in l in
  let place k field =
    Ast_builder.Default.pexp_field ~loc [%expr Stdlib.Array.get __kernel_p [%e eint k]]
      { txt = Ldot (Ldot (Lident "Am_core", "Acc"), field); loc }
  in
  let strides =
    List.concat_map
      (fun j ->
        let l = label j in
        [ (lbase l, place j "pbase"); (lplane l, place j "pplane"); (lrow l, place j "prow") ])
      firsts
  in
  let offset l dim (x, y, z) =
    let scaled stride v =
      match v with
      | 0 -> []
      | 1 -> [ ev stride ]
      | -1 -> [ [%expr Stdlib.( ~- ) [%e ev stride]] ]
      | v -> [ [%expr Stdlib.( * ) [%e ev stride] [%e eint v]] ]
    in
    let terms =
      scaled (lplane l) z @ scaled (lrow l) y @ if x = 0 then [] else [ eint (x * dim) ]
    in
    List.fold_left
      (fun acc t -> [%expr Stdlib.( + ) [%e acc] [%e t]])
      (List.hd terms) (List.tl terms)
  in
  let locals k = List.sort compare (use k).points in
  let read k = match env.sg.(k) with Sgbl { access = "Read"; _ } -> true | _ -> false in
  let per_call =
    strides
    @ List.map (fun (l, dim, o) -> (offset_local l o, offset l dim o)) offsets
    @ List.concat_map
        (fun k ->
          (data k, place k "pdata")
          :: (if (use k).table then [ (offs k, place k "poff") ] else []))
        datasets
    @ List.concat_map
        (fun k ->
          (buffer k, place k "pdata")
          ::
          (if env.routes.(k) <> Locals then []
           else
             List.map
               (fun c ->
                 let load = [%expr Stdlib.Array.get [%e ev (buffer k)] [%e eint c]] in
                 (local k c, if read k then load else [%expr Stdlib.ref [%e load]]))
               (locals k)))
        globals
  in
  let stored =
    List.concat_map
      (fun k ->
        if env.routes.(k) <> Locals || read k then []
        else
          List.map
            (fun c ->
              [%expr
                Stdlib.Array.set [%e ev (buffer k)] [%e eint c] (Stdlib.( ! ) [%e ev (local k c)])])
            (locals k))
      globals
  in
  (* [body] under one binding [name l] per used label [l]. *)
  let per_label name value body =
    lets
      (List.map
         (fun j ->
           let l, _, dim = grid j in
           (name l, value l dim))
         firsts)
      body
  in
  let ( +: ) a b = [%expr Stdlib.( + ) [%e a] [%e b]] in
  let ( *: ) a b = [%expr Stdlib.( * ) [%e a] [%e b]] in
  let ivar name = if firsts = [] then [%pat? _] else pvar name in
  let x = ev "__kernel_x" and y = ev "__kernel_y" and z = ev "__kernel_z" in
  let point =
    per_label index (fun l dim -> ev (row_start l) +: if dim = 1 then x else x *: eint dim) body
  in
  let row =
    per_label row_start
      (fun l _ -> ev (plane_start l) +: (y *: ev (lrow l)))
      [%expr
        for [%p ivar "__kernel_x"] = __kernel_xlo to Stdlib.( - ) __kernel_xhi 1 do
          [%e point]
        done]
  in
  let plane =
    per_label plane_start
      (fun l _ -> ev (lbase l) +: (z *: ev (lplane l)))
      [%expr
        for [%p ivar "__kernel_y"] = __kernel_ylo to Stdlib.( - ) __kernel_yhi 1 do
          [%e row]
        done]
  in
  let loops =
    [%expr
      for [%p ivar "__kernel_z"] = __kernel_zlo to Stdlib.( - ) __kernel_zhi 1 do
        [%e plane]
      done]
  in
  let places = if per_call = [] then [%pat? _] else [%pat? __kernel_p] in
  let nonempty lo hi = [%expr Stdlib.( < ) [%e ev lo] [%e ev hi]] in
  [%expr
    fun ([%p places] : Am_core.Acc.place array) (__kernel_xlo : int) (__kernel_xhi : int)
        (__kernel_ylo : int) (__kernel_yhi : int) (__kernel_zlo : int) (__kernel_zhi : int) ->
      if
        Stdlib.( && )
          [%e nonempty "__kernel_xlo" "__kernel_xhi"]
          (Stdlib.( && )
             [%e nonempty "__kernel_ylo" "__kernel_yhi"]
             [%e nonempty "__kernel_zlo" "__kernel_zhi"])
      then [%e lets per_call (sequence ~loc (loops :: stored))]]

(* ---- Native walkers ------------------------------------------------------- *)

(* Each range walker and each element walker is also compiled to C:
   [native_walker] and [native_elems] translate the rewritten body (the
   same tree [range_form] or [elems_form] wraps, with the same labels,
   routes, bases and locals) into one C function, which [walkers_c] writes
   for a dune rule and [native_wrapper] binds through an [external].  The
   vocabulary is closed, and anything outside it is an error located at
   the expression, so no kernel silently stays OCaml:

     get, set, gbl, set_gbl      (already rewritten into indexing)
     float literals, +. -. *. /. ~-., float and int comparisons
     int literals, + - and * on ints (wrapped to OCaml's 63 bits)
     &&, ||, not, true, false
     let/and of floats, ints, bools, refs (read with !, written with :=,
     never escaping) and functions; if; sequences; for
     sqrt, Float.abs, Float.min/Float.max (OCaml's NaN and signed-zero
     rules), Float.of_int, Float.to_int (OCaml's native conversion)
     a module-level float array read by index, [qinf.(k)]
     functions defined above the kernel in its file, inlined; any other
     name used as a value is a constant the OCaml wrapper passes in

   Every float node becomes the same IEEE operation in the same tree, and
   the C is compiled without fast-math or contraction, so the native
   walker's results equal the OCaml walker's bit for bit.

   Memory safety is proved once per call, before any point or element
   runs.  A range walker proves that the places array has the signature's
   length, every label's strides are non-negative, each dataset's lowest
   and highest index over the box plus each literal offset it uses lie
   inside its array, every entry of an offset table a computed point reads
   does too, and every global buffer is at least its declared length.  An
   element walker proves that the walk holds one address and one buffer
   per argument, [lo] is not negative, every direct dataset and every map
   table covers [lo, hi), and every [Inc] scratch and global buffer it
   reads is at least its declared length; per element it compares each
   (map label, slot) target it loads once, unsigned, against the smallest
   element count among the datasets that target reaches, so every base is
   inside its array.  A float array constant's literal indices are proved
   once per call.  What only a point or an element knows — a computed
   stencil point's place in its table, a computed component or index — is
   checked where it is used.  A failed check returns a status that the
   wrapper turns into [Invalid_argument] naming the kernel and the
   argument ([Am_core.Acc.native_failure]): the kind in the low four bits,
   the argument (or the float array's number) above them. *)

(* The failed checks' kinds, which [Am_core.Acc.native_failure] puts into
   words; 2, a negative stride, comes from the prelude's [am_layout],
   which returns 2 or [st_box]. *)
let st_places = 1
let st_box = 3
let st_table = 4
let st_global = 5
let st_point = 6
let st_component = 7
let st_walk = 8
let st_lo = 9
let st_dataset = 10
let st_map = 11
let st_target = 12
let st_scratch = 13
let st_array = 14
let status kind k = kind lor (k lsl 4)

(* C types: a ref is its mutable local, [Cfarr] a float array constant;
   [Cv] is not yet known. *)
type cty = Cfloat | Cint | Cbool | Cfarr | Cref of cty | Cv of cty option ref

let rec repr = function Cv { contents = Some t } -> repr t | t -> t
let fresh_ty () = Cv (ref None)

(* C expressions and statements.  [Cblock] is a GNU statement expression,
   [Cat] an index checked where it is used (it returns [status] from the
   walker when outside [0, n)). *)
type cx =
  | Cl of string
  | Cun of string * cx
  | Cbin of string * cx * cx
  | Ccall of string * cx list
  | Ccond of cx * cx * cx
  | Cidx of string * cx
  | Cat of cx * string * int
  | Cblock of cst list * cx

and cst =
  | Sdecl of location * cty * string * cx
  | Sset of cx * cx
  | Sif of cx * cst list * cst list
  | Sfor of string * cx * cx * bool * cst list

(* A top-level item of the kernel's file, innermost first: a value
   binding, a module name, or an [open]/[include] that may rebind any
   name above it. *)
type item =
  | Value of string * value_binding
  | Opaque of string (* a value the native walker cannot inline *)
  | Module of string
  | Opened

(* A name bound inside a kernel or helper body: a C local, or a function
   that is inlined where it is applied. *)
type cbind = Local of string * cty | Fn of fn

and fn = { params : (arg_label * string) list; fbody : expression; fenv : cenv }

and cenv = { locals : (string * cbind) list; scope : item list }

type cstate = {
  ckname : string;
  cenv0 : env; (* the rewriter's env of this signature *)
  kscope : item list; (* the kernel's own scope *)
  mutable fresh : int;
  mutable consts : (string * longident * cty) list; (* C parameter, OCaml path, type *)
  reach : (int, int * int * int * int) Hashtbl.t; (* dataset -> literal (x, y, z, component) *)
  tables : (int, unit) Hashtbl.t; (* datasets whose offset table a computed point reads *)
  mutable arrays : (string * int ref) list; (* float array constants, their top literal index *)
  ranges : (string, int * int) Hashtbl.t; (* for indices with literal bounds -> [lo, hi] *)
}

let new_state ~scope env =
  {
    ckname = env.kname;
    cenv0 = env;
    kscope = scope;
    fresh = 0;
    consts = [];
    reach = Hashtbl.create 8;
    tables = Hashtbl.create 2;
    arrays = [];
    ranges = Hashtbl.create 2;
  }

let cfail st ~loc fmt =
  Location.raise_errorf ~loc ("%%%s %s: " ^^ fmt) (extension_name st.cenv0.form) st.ckname

let vocabulary_help =
  "the native walker takes get, set, gbl, set_gbl, float arithmetic and comparisons, int + - \
   and *, sqrt, Float.abs, Float.min, Float.max, Float.of_int, Float.to_int, module-level float \
   arrays read by index, ref, ! and :=, and functions defined above the kernel in its file"

let c_ident s =
  String.concat ""
    (List.map
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> String.make 1 c
         | c -> Printf.sprintf "_%02x" (Char.code c))
       (List.of_seq (String.to_seq s)))

let local_name st v =
  st.fresh <- st.fresh + 1;
  Printf.sprintf "v_%s_%d" (c_ident v) st.fresh

(* A generated name in C: [__kernel_i_cell] is [kernel_i_cell]. *)
let generated v = String.length v > 9 && String.sub v 0 9 = "__kernel_"
let c_gen v = String.sub v 2 (String.length v - 2)

let rec unify st ~loc a b =
  match (repr a, repr b) with
  | Cv r, Cv r' when r == r' -> ()
  | Cv r, t | t, Cv r -> r := Some t
  | Cfloat, Cfloat | Cint, Cint | Cbool, Cbool | Cfarr, Cfarr -> ()
  | Cref a, Cref b -> unify st ~loc a b
  | _ -> cfail st ~loc "the native walker cannot type this expression"

let rec flat = function
  | Lident s -> s
  | Ldot (Lident "Stdlib", s) -> s
  | Ldot (m, s) -> flat m ^ "." ^ s
  | Lapply _ -> "?"

type prim =
  | Fbin of string
  | Ibin of string
  | Cmp of string
  | Logic of string
  | Not
  | Fneg
  | Fun1 of string
  | Fun2 of string
  | Of_int
  | To_int
  | Aget
  | Mkref
  | Deref
  | Assign

let prims =
  [
    ("+.", Fbin "+"); ("-.", Fbin "-"); ("*.", Fbin "*"); ("/.", Fbin "/"); ("+", Ibin "+");
    ("-", Ibin "-"); ("*", Ibin "*");
    ("<", Cmp "<"); (">", Cmp ">"); ("<=", Cmp "<="); (">=", Cmp ">="); ("=", Cmp "==");
    ("<>", Cmp "!="); ("&&", Logic "&&"); ("||", Logic "||"); ("not", Not); ("~-.", Fneg);
    ("Float.neg", Fneg); ("sqrt", Fun1 "sqrt");
    ("Float.sqrt", Fun1 "sqrt"); ("Float.abs", Fun1 "fabs"); ("abs_float", Fun1 "fabs");
    ("Float.min", Fun2 "am_fmin"); ("Float.max", Fun2 "am_fmax"); ("Float.of_int", Of_int);
    ("float_of_int", Of_int); ("Float.to_int", To_int); ("Array.get", Aget); ("ref", Mkref);
    ("!", Deref); (":=", Assign);
  ]

(* What a name means in [scope]: the first binding of it, unless an
   [open] or [include] comes first (it may rebind it). *)
let rec in_scope name = function
  | [] -> `Absent
  | Opened :: _ -> `Opened
  | Value (n, vb) :: rest when String.equal n name -> `Value (vb, rest)
  | Opaque n :: _ when String.equal n name -> `Opaque
  | Module n :: _ when String.equal n name -> `Module
  | _ :: rest -> in_scope name rest

let rec head = function Lident m -> m | Ldot (m, _) | Lapply (m, _) -> head m

(* A helper's parameters: plain (or annotated) variables, labelled or
   not. *)
let helper_params st params =
  List.map
    (fun p ->
      match p.pparam_desc with
      | Pparam_val
          ( ((Nolabel | Labelled _) as l),
            None,
            ( { ppat_desc = Ppat_var { txt; _ }; _ }
            | { ppat_desc = Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _); _ } ) )
        ->
        (l, txt)
      | _ ->
        cfail st ~loc:p.pparam_loc
          "a helper's parameters must be plain variables, labelled or not, for the native walker")
    params

let as_fn st cenv e =
  match e.pexp_desc with
  | Pexp_function (params, _, Pfunction_body body) ->
    Some { params = helper_params st params; fbody = body; fenv = cenv }
  | Pexp_function _ ->
    cfail st ~loc:e.pexp_loc "the native walker inlines functions of plain parameters only"
  | _ -> None

(* A value named by [lid] that is neither local nor a helper: a constant,
   passed in by the OCaml wrapper, which evaluates [lid] in the kernel's
   scope — so a helper may only name a constant the kernel sees the same. *)
let constant st cenv ~loc lid =
  (match lid with
  | Lident v -> (
    match (in_scope v cenv.scope, in_scope v st.kscope) with
    | `Opened, _ | _, `Opened -> cfail st ~loc "an open or include above the kernel may rebind %s" v
    | `Value (a, _), `Value (b, _) when a == b -> ()
    | `Opaque, `Opaque | `Absent, `Absent -> ()
    | _ -> cfail st ~loc "%s names a different value here than in the kernel's own scope" v)
  | _ -> ());
  let name = "k_" ^ c_ident (flat lid) in
  match List.find_opt (fun (n, _, _) -> String.equal n name) st.consts with
  | Some (_, _, t) -> (Cl name, t)
  | None ->
    let t = fresh_ty () in
    st.consts <- st.consts @ [ (name, lid, t) ];
    (Cl name, t)

(* The argument number after [prefix] in generated name [v]. *)
let numbered prefix v =
  let n = String.length prefix in
  if String.length v > n && String.sub v 0 n = prefix then
    int_of_string_opt (String.sub v n (String.length v - n))
  else None

(* The dataset, buffer or offset-table argument a generated array name
   denotes. *)
let generated_arg v =
  let num prefix = numbered prefix v in
  match (num "__kernel_d", num "__kernel_z", num "__kernel_o") with
  | Some k, _, _ -> `Data k
  | _, Some k, _ -> `Buffer k
  | _, _, Some k -> `Table k
  | _ -> `None

(* The argument an element walker's base local belongs to. *)
let base_arg v = numbered "__kernel_b" v

let array_fn = function
  | Ldot (Ldot (Lident "Stdlib", "Array"), ("get" | "set" as f)) -> Some f
  | _ -> None

let int_lit s = Cl (Printf.sprintf "((intnat) %sL)" s)

let outside st ~loc =
  cfail st ~loc "this expression is outside the native walker's vocabulary: %s" vocabulary_help

let rec ex st cenv e : cx * cty =
  let loc = e.pexp_loc in
  match e.pexp_desc with
  | Pexp_constant (Pconst_float (s, None)) ->
    let f = float_of_string s in
    if not (Float.is_finite f) then cfail st ~loc "the float literal %s is not finite" s;
    (Cl (Printf.sprintf "%h" f), Cfloat)
  | Pexp_constant (Pconst_integer (s, None)) -> (
    match int_of_string_opt s with
    | Some i -> (int_lit (string_of_int i), Cint)
    | None -> cfail st ~loc "the integer literal %s" s)
  | Pexp_construct ({ txt = Lident ("true" | "false" as b); _ }, None) ->
    (Cl (if b = "true" then "1" else "0"), Cbool)
  | Pexp_constraint (e, _) -> ex st cenv e
  | Pexp_ident { txt = Lident v; _ } when generated v ->
    let t =
      if String.length v > 10 && String.sub v 0 10 = "__kernel_u" then Cfloat else Cint
    in
    (Cl (c_gen v), t)
  | Pexp_ident { txt; _ } -> (
    match txt with
    | Lident v when List.mem_assoc v cenv.locals -> (
      match List.assoc v cenv.locals with
      | Local (c, t) -> (
        match repr t with
        | Cref _ ->
          cfail st ~loc "the ref %s escapes: a ref may only be read with ! and written with :=" v
        | _ -> (Cl c, t))
      | Fn _ -> cfail st ~loc "the function %s is used as a value; it may only be applied" v)
    | Lident v -> (
      match in_scope v cenv.scope with
      | `Value (vb, _) when Option.is_some (as_fn st cenv vb.pvb_expr) ->
        cfail st ~loc "the function %s is used as a value; it may only be applied" v
      | _ -> constant st cenv ~loc txt)
    | _ -> constant st cenv ~loc txt)
  | Pexp_apply (f, args) -> (
    match apply st cenv ~loc ~stmt:false f args with
    | `Value v -> v
    | `Unit _ -> cfail st ~loc "a unit expression where the native walker needs a value")
  | Pexp_let (Nonrecursive, vbs, body) ->
    let decls, cenv = bind st cenv vbs in
    let c, t = ex st cenv body in
    ((if decls = [] then c else Cblock (decls, c)), t)
  | Pexp_ifthenelse (c, a, Some b) ->
    let c = cond st cenv c in
    let ca, ta = ex st cenv a and cb, tb = ex st cenv b in
    unify st ~loc ta tb;
    (Ccond (c, ca, cb), ta)
  | Pexp_sequence (a, b) ->
    let sa = sm st cenv a in
    let c, t = ex st cenv b in
    (Cblock (sa, c), t)
  | _ -> outside st ~loc

and typed st cenv ty e =
  let c, t = ex st cenv e in
  unify st ~loc:e.pexp_loc t ty;
  c

and cond st cenv e = typed st cenv Cbool e

(* Statements: a unit expression. *)
and sm st cenv e : cst list =
  let loc = e.pexp_loc in
  match e.pexp_desc with
  | Pexp_construct ({ txt = Lident "()"; _ }, None) -> []
  | Pexp_constraint (e, _) -> sm st cenv e
  | Pexp_let (Nonrecursive, vbs, body) ->
    let decls, cenv = bind st cenv vbs in
    decls @ sm st cenv body
  | Pexp_sequence (a, b) -> sm st cenv a @ sm st cenv b
  | Pexp_ifthenelse (c, a, b) ->
    let c = cond st cenv c in
    [ Sif (c, sm st cenv a, match b with None -> [] | Some b -> sm st cenv b) ]
  | Pexp_for (pat, lo, hi, dir, body) ->
    let v =
      match pat.ppat_desc with
      | Ppat_var { txt; _ } -> Some txt
      | Ppat_any -> None
      | _ -> cfail st ~loc:pat.ppat_loc "a for loop's index must be a variable"
    in
    let c = local_name st (Option.value v ~default:"i") in
    (match (literal_int lo, literal_int hi, dir) with
    | Some l, Some h, Upto -> Hashtbl.replace st.ranges c (l, h)
    | Some l, Some h, Downto -> Hashtbl.replace st.ranges c (h, l)
    | _ -> ());
    let lo = typed st cenv Cint lo and hi = typed st cenv Cint hi in
    let cenv =
      match v with
      | Some v -> { cenv with locals = (v, Local (c, Cint)) :: cenv.locals }
      | None -> cenv
    in
    [ Sfor (c, lo, hi, dir = Upto, sm st cenv body) ]
  | Pexp_apply (f, args) -> (
    match apply st cenv ~loc ~stmt:true f args with
    | `Unit s -> s
    | `Value _ -> cfail st ~loc "a value where the native walker needs a unit statement")
  | _ -> outside st ~loc

(* [let ... and ...]: every right-hand side in the outer scope, then the
   names. *)
and bind st cenv vbs =
  let one vb =
    let loc = vb.pvb_loc in
    let v =
      match vb.pvb_pat.ppat_desc with
      | Ppat_var { txt; _ } | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) -> txt
      | _ -> cfail st ~loc:vb.pvb_pat.ppat_loc "the native walker binds plain variables only"
    in
    match as_fn st cenv vb.pvb_expr with
    | Some fn -> ([], (v, Fn fn))
    | None -> (
      let c = local_name st v in
      match vb.pvb_expr.pexp_desc with
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt = lid; _ }; _ }, [ (Nolabel, init) ])
        when resolve st cenv lid = `Prim Mkref ->
        let ci, t = ex st cenv init in
        ([ Sdecl (loc, t, c, ci) ], (v, Local (c, Cref t)))
      | _ ->
        let ci, t = ex st cenv vb.pvb_expr in
        ([ Sdecl (loc, t, c, ci) ], (v, Local (c, t))))
  in
  let parts = List.map one vbs in
  ( List.concat_map fst parts,
    { cenv with locals = List.rev_map snd parts @ cenv.locals } )

(* What an applied name is: a local or file helper, a primitive, or
   unknown. *)
and resolve st cenv lid =
  match lid with
  | Lident v when List.mem_assoc v cenv.locals -> (
    match List.assoc v cenv.locals with Fn fn -> `Fn fn | Local _ -> `Unknown)
  | _ -> (
    let prim () =
      match List.assoc_opt (flat lid) prims with Some p -> `Prim p | None -> `Unknown
    in
    match lid with
    | Lident v -> (
      match in_scope v cenv.scope with
      | `Value (vb, rest) -> (
        match as_fn st { cenv with scope = rest } vb.pvb_expr with
        | Some fn -> `Fn { fn with fenv = { locals = []; scope = rest } }
        | None -> `Unknown)
      | `Opened -> `Opened
      | `Opaque -> `Unknown
      | `Module | `Absent -> prim ())
    | _ -> (
      match in_scope (head lid) cenv.scope with
      | `Module | `Opened -> `Unknown
      | `Value _ | `Opaque | `Absent -> prim ()))

and apply st cenv ~loc ~stmt f args =
  let lid =
    match f.pexp_desc with
    | Pexp_ident { txt; _ } -> txt
    | _ -> cfail st ~loc "the native walker applies named functions only"
  in
  match (array_fn lid, args) with
  | Some "get", [ (Nolabel, { pexp_desc = Pexp_ident { txt = Lident a; _ }; _ }); (Nolabel, i) ]
    when generated a ->
    `Value (access st cenv a i, Cfloat)
  | ( Some "set",
      [ (Nolabel, { pexp_desc = Pexp_ident { txt = Lident a; _ }; _ }); (Nolabel, i); (Nolabel, v) ]
    )
    when generated a ->
    `Unit [ Sset (access st cenv a i, typed st cenv Cfloat v) ]
  | _ -> (
    let name = flat lid in
    match resolve st cenv lid with
    | `Fn fn -> inline st cenv ~loc ~stmt name fn args
    | `Opened -> cfail st ~loc "an open or include above the kernel may rebind %s" name
    | `Unknown when name = "min" || name = "max" ->
      cfail st ~loc
        "%s is polymorphic compare; use Float.%s, whose NaN and signed-zero rules the native \
         walker keeps"
        (Longident.name lid) name
    | `Unknown -> cfail st ~loc "unknown function %s: %s" name vocabulary_help
    | `Prim p -> (
      if List.exists (fun (l, _) -> l <> Nolabel) args then
        cfail st ~loc "%s takes no labelled argument" name;
      let args = List.map snd args in
      let v c t = `Value (c, t) in
      let i63 c = Ccall ("AM_I63", [ c ]) and u c = Cun ("(uintnat) ", c) in
      match (p, args) with
      | Fbin op, [ a; b ] -> v (Cbin (op, typed st cenv Cfloat a, typed st cenv Cfloat b)) Cfloat
      | Ibin op, [ a; b ] ->
        v (i63 (Cbin (op, u (typed st cenv Cint a), u (typed st cenv Cint b)))) Cint
      | Cmp op, [ a; b ] ->
        let ca, ta = ex st cenv a and cb, tb = ex st cenv b in
        unify st ~loc ta tb;
        if repr ta = Cfarr then cfail st ~loc "the native walker compares numbers only";
        v (Cbin (op, ca, cb)) Cbool
      | Logic op, [ a; b ] -> v (Cbin (op, cond st cenv a, cond st cenv b)) Cbool
      | Not, [ a ] -> v (Cun ("!", cond st cenv a)) Cbool
      | Fneg, [ a ] -> v (Cun ("-", typed st cenv Cfloat a)) Cfloat
      | Fun1 f, [ a ] -> v (Ccall (f, [ typed st cenv Cfloat a ])) Cfloat
      | Fun2 f, [ a; b ] -> v (Ccall (f, [ typed st cenv Cfloat a; typed st cenv Cfloat b ])) Cfloat
      | Of_int, [ a ] -> v (Cun ("(double) ", typed st cenv Cint a)) Cfloat
      | To_int, [ a ] ->
        (* OCaml's native conversion: the truncated value wrapped to 63
           bits, and 0 for NaN and for a value outside the 64-bit range. *)
        let t = local_name st "to_int" in
        let x = Cl t in
        let inside = Cbin ("&&", Cbin (">=", x, Cl "-0x1p+63"), Cbin ("<", x, Cl "0x1p+63")) in
        v
          (Cblock
             ( [ Sdecl (loc, Cfloat, t, typed st cenv Cfloat a) ],
               Ccond (inside, i63 (Cun ("(intnat) ", x)), int_lit "0") ))
          Cint
      | Aget, [ arr; i ] -> v (float_array st cenv arr i) Cfloat
      | Deref, [ r ] -> (
        match r.pexp_desc with
        | Pexp_ident { txt = Lident g; _ } when generated g -> v (Cl (c_gen g)) Cfloat
        | _ ->
          let c, t = reference st cenv r in
          v (Cl c) t)
      | Assign, [ r; x ] -> (
        match r.pexp_desc with
        | Pexp_ident { txt = Lident g; _ } when generated g ->
          `Unit [ Sset (Cl (c_gen g), typed st cenv Cfloat x) ]
        | _ ->
          let c, t = reference st cenv r in
          `Unit [ Sset (Cl c, typed st cenv t x) ])
      | Mkref, _ ->
        cfail st ~loc "a ref escapes: the native walker takes a ref only as let x = ref v in ..."
      | _ -> cfail st ~loc "%s is partially applied or over-applied" name))

(* [arr.(i)] on a module-level float array: a constant the wrapper passes
   in, read through its data pointer.  A literal index is proved once per
   call against the array's length, a computed one checked here. *)
and float_array st cenv arr i =
  let loc = arr.pexp_loc in
  (match arr.pexp_desc with
  | Pexp_ident { txt = Lident v; _ } when not (List.mem_assoc v cenv.locals) -> ()
  | Pexp_ident { txt = Ldot _; _ } -> ()
  | _ ->
    cfail st ~loc "the native walker reads by index only a float array defined above the kernel");
  let c, t = ex st cenv arr in
  unify st ~loc t Cfarr;
  let name = match c with Cl n -> n | _ -> assert false in
  let top =
    match List.assoc_opt name st.arrays with
    | Some top -> top
    | None ->
      let top = ref (-1) in
      st.arrays <- st.arrays @ [ (name, top) ];
      top
  in
  let rec ordinal j = function
    | (n, _) :: rest -> if String.equal n name then j else ordinal (j + 1) rest
    | [] -> assert false
  in
  match literal_int i with
  | Some n when n >= 0 ->
    top := max !top n;
    Cidx (name ^ "_d", int_lit (string_of_int n))
  | Some _ | None ->
    Cidx
      ( name ^ "_d",
        Cat (typed st cenv Cint i, name ^ "_n", status st_array (ordinal 0 st.arrays)) )

(* The local a ref names, for ! and :=. *)
and reference st cenv r =
  match r.pexp_desc with
  | Pexp_ident { txt = Lident v; _ } -> (
    match List.assoc_opt v cenv.locals with
    | Some (Local (c, t)) -> (
      match repr t with
      | Cref t -> (c, t)
      | _ -> cfail st ~loc:r.pexp_loc "%s is not a ref bound in the kernel" v)
    | _ -> cfail st ~loc:r.pexp_loc "%s is not a ref bound in the kernel" v)
  | _ -> cfail st ~loc:r.pexp_loc "the native walker reads and writes refs bound by let only"

(* A helper applied to every parameter: its arguments bound to fresh
   locals in the caller's scope, its body translated in its own, as a
   statement when the call is one ([stmt]). *)
and inline st cenv ~loc ~stmt name fn args =
  let positional = List.filter (fun (l, _) -> l = Nolabel) args in
  let rec take pos = function
    | [] -> if pos <> [] then cfail st ~loc "%s is over-applied" name else []
    | (Nolabel, p) :: rest -> (
      match pos with
      | (_, a) :: pos -> (p, a) :: take pos rest
      | [] -> cfail st ~loc "%s is partially applied" name)
    | (Labelled l, p) :: rest -> (
      match List.find_opt (fun (l', _) -> l' = Labelled l) args with
      | Some (_, a) -> (p, a) :: take pos rest
      | None -> cfail st ~loc "%s is applied without ~%s" name l)
    | (Optional _, _) :: _ -> cfail st ~loc "%s has an optional parameter" name
  in
  let bound = take positional fn.params in
  if List.length args <> List.length bound then cfail st ~loc "%s is over-applied" name;
  let decls, locals =
    List.fold_left
      (fun (decls, locals) (p, a) ->
        let c = local_name st p in
        let ca, t = ex st cenv a in
        (decls @ [ Sdecl (a.pexp_loc, t, c, ca) ], (p, Local (c, t)) :: locals))
      ([], fn.fenv.locals) bound
  in
  let cenv = { fn.fenv with locals } in
  if stmt then `Unit (decls @ sm st cenv fn.fbody)
  else
    let c, t = ex st cenv fn.fbody in
    `Value ((if decls = [] then c else Cblock (decls, c)), t)

(* [Stdlib.Array.get a i] (or [set]) on a generated array.  A dataset is
   indexed from its label's index: the index itself, plus an offset local,
   plus a literal component, or plus a computed point's table entry is
   covered by the per-call proof; any other index is checked where it is
   used.  A global's literal component is covered by the proof of its
   length; a computed one is checked. *)
and access st cenv a i =
  let loc = i.pexp_loc in
  let lit e = match literal_int e with Some c -> Some c | None -> None in
  let plus e =
    match e.pexp_desc with
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Ldot (Lident "Stdlib", "+"); _ }; _ },
          [ (Nolabel, a); (Nolabel, b) ] ) ->
      Some (a, b)
    | _ -> None
  in
  let ident e = match e.pexp_desc with Pexp_ident { txt = Lident v; _ } -> Some v | _ -> None in
  (* The C index of a for loop with literal bounds inside [0, n) that [e]
     names. *)
  let within cenv e n =
    match Option.bind (ident e) (fun v -> List.assoc_opt v cenv.locals) with
    | Some (Local (c, _)) -> (
      match Hashtbl.find_opt st.ranges c with
      | Some (lo, hi) when lo >= 0 && hi < n -> Some c
      | Some _ | None -> None)
    | Some (Fn _) | None -> None
  in
  let table k p =
    Hashtbl.replace st.tables k ();
    Ccall
      ( "Long_val",
        [
          Cidx
            ( Printf.sprintf "kernel_o%d" k,
              Cat (typed st cenv Cint p, Printf.sprintf "kernel_no%d" k, status st_point k) );
        ] )
  in
  match generated_arg a with
  | `Data j when st.cenv0.form = Elements -> (
    (* [d_j.(b_k + c)]: a component [c] within [0, dim) — a literal, or
       the index of a for loop with literal bounds inside it — lies inside
       the element whose base is [b_k], which the per-call proof and the
       per-element target check cover; any other index is checked here,
       against argument [k]. *)
    let based =
      match plus i with
      | Some (b, c) -> (
        match Option.bind (ident b) base_arg with Some k -> Some (k, c) | None -> None)
      | None -> None
    in
    let d = Printf.sprintf "kernel_d%d" j in
    match based with
    | Some (k, c) -> (
      let proved =
        match lit c with
        | Some n -> Some (int_lit (string_of_int n))
        | None -> Option.map (fun v -> Cl v) (within cenv c (dim_of st.cenv0 k))
      in
      match proved with
      | Some c -> Cidx (d, Cbin ("+", Cl (c_gen (base k)), c))
      | None ->
        Cidx (d, Cat (typed st cenv Cint i, Printf.sprintf "kernel_n%d" j, status st_component k)))
    | None -> cfail st ~loc "the native walker does not index %s this way" a)
  | `Data k -> (
    let label, stencil, dim = grid st.cenv0 k in
    let centre = index label in
    let point v =
      Array.find_opt
        (fun p -> p <> (0, 0, 0) && String.equal (offset_local label p) v)
        stencil
    in
    (* An index this dataset's proof covers: its point and component. *)
    let proved e =
      match (ident e, plus e) with
      | Some v, _ when String.equal v centre -> Some ((0, 0, 0), Cl (c_gen centre))
      | _, Some (c, o) when ident c = Some centre -> (
        match Option.bind (ident o) point with
        | Some p -> Some (p, Cbin ("+", Cl (c_gen centre), Cl (c_gen (Option.get (ident o)))))
        | None -> None)
      | _ -> None
    in
    let reach (x, y, z) c =
      let r = (x, y, z, c) in
      if not (List.mem r (Hashtbl.find_all st.reach k)) then Hashtbl.add st.reach k r
    in
    let checked () =
      Cat (typed st cenv Cint i, Printf.sprintf "kernel_n%d" k, status st_component k)
    in
    let at =
      match (proved i, plus i) with
      | Some (p, c), _ ->
        reach p 0;
        c
      | None, Some (b, o) -> (
        match (proved b, lit o, o.pexp_desc) with
        | Some (p, c), Some n, _ when n >= 0 && n < dim ->
          reach p n;
          Cbin ("+", c, int_lit (string_of_int n))
        | ( _,
            _,
            Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, [ (Nolabel, t); (Nolabel, p) ]) )
          when array_fn txt = Some "get" && ident b = Some centre
               && Option.map generated_arg (ident t) = Some (`Table k) ->
          Cbin ("+", Cl (c_gen centre), table k p)
        | _ -> checked ())
      | None, None -> checked ()
    in
    Cidx (Printf.sprintf "kernel_d%d" k, at))
  | `Buffer k -> (
    let len = dim_of st.cenv0 k in
    let looped = if st.cenv0.form = Elements then within cenv i len else None in
    match (lit i, looped) with
    | Some c, _ when c >= 0 && c < len ->
      Cidx (Printf.sprintf "kernel_z%d" k, int_lit (string_of_int c))
    | _, Some v -> Cidx (Printf.sprintf "kernel_z%d" k, Cl v)
    | _ ->
      Cidx
        ( Printf.sprintf "kernel_z%d" k,
          Cat (typed st cenv Cint i, Printf.sprintf "kernel_nz%d" k, status st_component k) ))
  | `Table _ | `None -> cfail st ~loc "the native walker does not index %s this way" a

(* ---- Printing ---- *)

let c_type st ~loc what t =
  match repr t with
  | Cfloat -> "double"
  | Cint -> "intnat"
  | Cbool -> "int"
  | Cfarr -> "value"
  | Cref _ -> cfail st ~loc "%s holds a ref" what
  | Cv _ -> cfail st ~loc "the native walker cannot tell the type of %s" what

let rec pr_cx st b = function
  | Cl s -> Buffer.add_string b s
  | Cun (op, a) ->
    Buffer.add_string b ("(" ^ op ^ if op.[String.length op - 1] = ' ' then "" else " ");
    pr_cx st b a;
    Buffer.add_char b ')'
  | Cbin (op, x, y) ->
    Buffer.add_char b '(';
    pr_cx st b x;
    Buffer.add_string b (" " ^ op ^ " ");
    pr_cx st b y;
    Buffer.add_char b ')'
  | Ccall (f, args) ->
    Buffer.add_string b (f ^ "(");
    List.iteri
      (fun i a ->
        if i > 0 then Buffer.add_string b ", ";
        pr_cx st b a)
      args;
    Buffer.add_char b ')'
  | Ccond (c, x, y) ->
    Buffer.add_char b '(';
    pr_cx st b c;
    Buffer.add_string b " ? ";
    pr_cx st b x;
    Buffer.add_string b " : ";
    pr_cx st b y;
    Buffer.add_char b ')'
  | Cidx (a, i) ->
    Buffer.add_string b (a ^ "[");
    pr_cx st b i;
    Buffer.add_char b ']'
  | Cat (i, n, s) ->
    Buffer.add_string b "AM_AT(";
    pr_cx st b i;
    Buffer.add_string b (Printf.sprintf ", %s, %d)" n s)
  | Cblock (sts, e) ->
    Buffer.add_string b "({ ";
    List.iter (pr_st st b ~ind:"") sts;
    pr_cx st b e;
    Buffer.add_string b "; })"

and pr_st st b ~ind s =
  let line f =
    Buffer.add_string b ind;
    f ();
    Buffer.add_string b (if ind = "" then " " else "\n")
  in
  let inner = if ind = "" then "" else ind ^ "  " in
  let block sts =
    Buffer.add_string b (if ind = "" then "{ " else "{\n");
    List.iter (pr_st st b ~ind:inner) sts;
    Buffer.add_string b ind;
    Buffer.add_string b "}"
  in
  match s with
  | Sdecl (loc, t, v, e) ->
    line (fun () ->
        Buffer.add_string b (c_type st ~loc v t ^ " " ^ v ^ " = ");
        pr_cx st b e;
        Buffer.add_char b ';')
  | Sset (x, e) ->
    line (fun () ->
        pr_cx st b x;
        Buffer.add_string b " = ";
        pr_cx st b e;
        Buffer.add_char b ';')
  | Sif (c, x, y) ->
    line (fun () ->
        Buffer.add_string b "if (";
        pr_cx st b c;
        Buffer.add_string b ") ";
        block x;
        if y <> [] then (
          Buffer.add_string b " else ";
          block y))
  | Sfor (v, lo, hi, up, body) ->
    line (fun () ->
        Buffer.add_string b (Printf.sprintf "{ intnat %s_end = " v);
        pr_cx st b hi;
        Buffer.add_string b (Printf.sprintf "; for (intnat %s = " v);
        pr_cx st b lo;
        Buffer.add_string b
          (if up then Printf.sprintf "; %s <= %s_end; %s++) " v v v
           else Printf.sprintf "; %s >= %s_end; %s--) " v v v);
        block body;
        Buffer.add_string b " }")

(* The helpers every native walker file starts with, always inlined (gcc
   keeps [am_fmin] out of line otherwise, a call per point).
   [am_fmin]/[am_fmax] are OCaml's [Float.min]/[Float.max], NaN and signed
   zero included; [AM_I63] wraps an int result to OCaml's 63 bits; [AM_AT]
   checks an index where it is used. *)
let c_prelude =
  {|/* Native range walkers, generated by lib/ppx_kernel from let%kernel
   bodies: do not edit. */
#include <math.h>
#include <caml/mlvalues.h>

#define AM_INLINE static inline __attribute__((always_inline))
#define AM_I63(u) ((intnat) ((uintnat) (u) << 1) >> 1)
#define AM_AT(i, n, st) \
  ({ intnat am_at_ = (i); if ((uintnat) am_at_ >= (uintnat) (n)) return (st); am_at_; })

AM_INLINE double am_fmin(double x, double y)
{
  if (y > x || (!signbit(y) && signbit(x))) return isnan(y) ? y : x;
  return isnan(x) ? x : y;
}

AM_INLINE double am_fmax(double x, double y)
{
  if (y > x || (!signbit(y) && signbit(x))) return isnan(x) ? x : y;
  return isnan(y) ? y : x;
}

/* Field [f] of place [k]: its array, base, plane, row or offset table. */
#define AM_PLACE(places, k, f) Field(Field((places), (k)), (f))

AM_INLINE double *am_data(value places, intnat k)
{
  return (double *) AM_PLACE(places, k, 0);
}

AM_INLINE intnat am_length(value places, intnat k)
{
  return Wosize_val(AM_PLACE(places, k, 0)) / Double_wosize;
}

/* A label's base and strides from place [k], and its lowest and highest
   index over the box: 0, [st_stride] or [st_box]. */
AM_INLINE int am_layout(value places, intnat k, intnat dim, intnat xlo, intnat xhi,
                            intnat ylo, intnat yhi, intnat zlo, intnat zhi, intnat *base,
                            intnat *plane, intnat *row, intnat *lo, intnat *hi)
{
  intnat a, b, c;
  *base = Long_val(AM_PLACE(places, k, 1));
  *plane = Long_val(AM_PLACE(places, k, 2));
  *row = Long_val(AM_PLACE(places, k, 3));
  if (*plane < 0 || *row < 0) return 2;
  if (__builtin_mul_overflow(zlo, *plane, &a) || __builtin_add_overflow(*base, a, &a)
      || __builtin_mul_overflow(ylo, *row, &b) || __builtin_add_overflow(a, b, &a)
      || __builtin_mul_overflow(xlo, dim, &c) || __builtin_add_overflow(a, c, lo))
    return 3;
  if (__builtin_mul_overflow(zhi - 1, *plane, &a) || __builtin_add_overflow(*base, a, &a)
      || __builtin_mul_overflow(yhi - 1, *row, &b) || __builtin_add_overflow(a, b, &a)
      || __builtin_mul_overflow(xhi - 1, dim, &c) || __builtin_add_overflow(a, c, hi))
    return 3;
  return 0;
}

/* The offset of stencil point (x, y, z): nonzero on overflow. */
AM_INLINE int am_offset(intnat plane, intnat row, intnat dim, intnat x, intnat y, intnat z,
                            intnat *out)
{
  intnat a, b, c;
  return __builtin_mul_overflow(z, plane, &a) || __builtin_mul_overflow(y, row, &b)
         || __builtin_mul_overflow(x, dim, &c) || __builtin_add_overflow(a, b, &a)
         || __builtin_add_overflow(a, c, out);
}

/* Whether [lo + off + c, hi + off + c] leaves [0, n). */
AM_INLINE int am_outside(intnat lo, intnat hi, intnat off, intnat c, intnat n)
{
  intnat a, b;
  return __builtin_add_overflow(off, c, &off) || __builtin_add_overflow(lo, off, &a)
         || __builtin_add_overflow(hi, off, &b) || a < 0 || b >= n;
}

/* Whether some entry of offset table [t] takes [lo, hi] outside [0, n). */
AM_INLINE int am_table_outside(intnat lo, intnat hi, value t, intnat n)
{
  for (mlsize_t e = 0; e < Wosize_val(t); e++)
    if (am_outside(lo, hi, Long_val(Field(t, e)), 0, n)) return 1;
  return 0;
}
|}

(* The constants [st] collected, each with its C type: a float, an int or
   a float array, never a bool. *)
let c_consts st =
  List.map
    (fun (c, lid, t) ->
      let what = "the constant " ^ flat lid in
      match c_type st ~loc:Location.none what t with
      | "int" -> cfail st ~loc:Location.none "%s is a bool; pass it as a float or an int" what
      | t -> (c, lid, t))
    st.consts

(* What the wrapper passes back to the walker from C: the constants' OCaml
   paths and C types, and the float arrays' names in status order. *)
let passed st consts =
  ( List.map (fun (_, lid, t) -> (lid, t)) consts,
    List.map
      (fun (name, _) ->
        let _, lid, _ = List.find (fun (c, _, _) -> String.equal c name) consts in
        flat lid)
      st.arrays )

(* How the bytecode entry point converts a constant of C type [t]. *)
let of_value t = match t with "double" -> "Double_val" | "value" -> "" | _ -> "Long_val"

(* Each float array constant's data and length, and the proof of the
   literal indices the body reads. *)
let print_arrays st b =
  let p fmt = Printf.bprintf b fmt in
  List.iteri
    (fun o (name, top) ->
      p "  const double *%s_d = (const double *) %s;\n" name name;
      p "  intnat %s_n = Wosize_val(%s) / Double_wosize;\n" name name;
      if !top >= 0 then p "  if (%s_n <= %d) return %d;\n" name !top (status st_array o))
    st.arrays

(* What a file of native walkers adds to [c_prelude] when it holds an
   element walker: an address's dataset array and map table, and the
   per-call proof that a table covers a range. *)
let c_elem_prelude =
  {|
/* Native element walkers, generated by lib/ppx_kernel from let%elem_kernel
   bodies: do not edit. */

/* Field [f] of address [k]: its dataset array (0) or map table (1). */
#define AM_ADDR(addrs, k, f) Field(Field((addrs), (k)), (f))

AM_INLINE intnat am_doubles(value a)
{
  return Wosize_val(a) / Double_wosize;
}

AM_INLINE double *am_adata(value addrs, intnat k)
{
  return (double *) AM_ADDR(addrs, k, 0);
}

AM_INLINE intnat am_alength(value addrs, intnat k)
{
  return am_doubles(AM_ADDR(addrs, k, 0));
}

AM_INLINE const value *am_amap(value addrs, intnat k)
{
  return (const value *) Op_val(AM_ADDR(addrs, k, 1));
}

AM_INLINE intnat am_amap_length(value addrs, intnat k)
{
  return Wosize_val(AM_ADDR(addrs, k, 1));
}

/* Whether [n] entries fall short of [hi] rows of [width]. */
AM_INLINE int am_short(intnat n, intnat hi, intnat width)
{
  intnat need;
  return __builtin_mul_overflow(hi, width, &need) || need > n;
}
|}

(* The prelude of a file of native walkers [walkers] ([walkers_c]'s
   output): [c_prelude], and [c_elem_prelude] when some walker is an
   element walker. *)
let prelude_of walkers =
  let elements (symbol, _) = String.length symbol > 9 && String.sub symbol 0 9 = "am_elems_" in
  if List.exists elements walkers then c_prelude ^ c_elem_prelude else c_prelude

(* The C native walker [symbol] of one signature, from the rewritten
   [body]: its text, the constants the wrapper passes, in order, and the
   names of the float arrays among them. *)
let native_walker ~scope ~symbol env body =
  let st = new_state ~scope env in
  let stmts = sm st { locals = []; scope } body in
  let { datasets; globals; firsts; offsets } = layout env in
  let sg = env.sg in
  let b = Buffer.create 4096 in
  let p fmt = Printf.bprintf b fmt in
  let grid = grid env in
  let label k = let l, _, _ = grid k in l in
  let dim_of k = let _, _, d = grid k in d in
  let consts = c_consts st in
  p "intnat %s(value am_places, intnat am_xlo, intnat am_xhi, intnat am_ylo,\n" symbol;
  p "  intnat am_yhi,";
  p " intnat am_zlo, intnat am_zhi%s)\n{\n"
    (String.concat "" (List.map (fun (c, _, t) -> Printf.sprintf ", %s %s" t c) consts));
  p "  if (am_xlo >= am_xhi || am_ylo >= am_yhi || am_zlo >= am_zhi) return 0;\n";
  p "  if (Wosize_val(am_places) != %d) return %d;\n" (Array.length sg) (status st_places 0);
  if firsts <> [] then p "  int am_s;\n";
  List.iter
    (fun j ->
      let l = label j in
      let n = c_gen in
      p "  intnat %s, %s, %s, am_lo_%s, am_hi_%s;\n" (n (lbase l)) (n (lplane l)) (n (lrow l)) l l;
      p "  if ((am_s = am_layout(am_places, %d, %d, am_xlo, am_xhi, am_ylo, am_yhi, am_zlo,\n" j
        (dim_of j);
      p "         am_zhi,";
      p " &%s, &%s, &%s, &am_lo_%s, &am_hi_%s)))\n    return am_s | (%d << 4);\n"
        (n (lbase l)) (n (lplane l)) (n (lrow l)) l l j)
    firsts;
  List.iter
    (fun (l, dim, ((x, y, z) as o)) ->
      let j = List.find (fun j -> String.equal (label j) l) firsts in
      p "  intnat %s;\n" (c_gen (offset_local l o));
      p "  if (am_offset(%s, %s, %d, %d, %d, %d, &%s)) return %d;\n" (c_gen (lplane l))
        (c_gen (lrow l)) dim x y z (c_gen (offset_local l o)) (status st_box j))
    offsets;
  List.iter
    (fun k ->
      let l, _, _ = grid k in
      p "  double *kernel_d%d = am_data(am_places, %d);\n" k k;
      p "  intnat kernel_n%d = am_length(am_places, %d);\n" k k;
      let reached = List.sort_uniq compare (Hashtbl.find_all st.reach k) in
      List.iter
        (fun (x, y, z, c) ->
          let off = if (x, y, z) = (0, 0, 0) then "0" else c_gen (offset_local l (x, y, z)) in
          p "  if (am_outside(am_lo_%s, am_hi_%s, %s, %d, kernel_n%d)) return %d;\n" l l off c k
            (status st_box k))
        reached;
      if Hashtbl.mem st.tables k then begin
        p "  value am_t%d = AM_PLACE(am_places, %d, 4);\n" k k;
        p "  const value *kernel_o%d = (const value *) Op_val(am_t%d);\n" k k;
        p "  intnat kernel_no%d = Wosize_val(am_t%d);\n" k k;
        p "  if (am_table_outside(am_lo_%s, am_hi_%s, am_t%d, kernel_n%d)) return %d;\n" l l k k
          (status st_table k)
      end)
    datasets;
  List.iter
    (fun k ->
      let len, access = match sg.(k) with Sgbl { len; access } -> (len, access) | _ -> (0, "") in
      p "  double *kernel_z%d = am_data(am_places, %d);\n" k k;
      p "  intnat kernel_nz%d = am_length(am_places, %d);\n" k k;
      p "  if (kernel_nz%d < %d) return %d;\n" k len (status st_global k);
      if env.routes.(k) = Locals then
        List.iter
          (fun c ->
            p "  %sdouble kernel_u%d_%d = kernel_z%d[%d];\n"
              (if access = "Read" then "const " else "")
              k c k c)
          (List.sort compare (Hashtbl.find env.uses k).points))
    globals;
  print_arrays st b;
  let per name value ind =
    List.iter
      (fun j ->
        let l = label j in
        p "%sconst intnat %s = %s;\n" ind (c_gen (name l)) (value l (dim_of j)))
      firsts
  in
  p "  for (intnat kernel_z = am_zlo; kernel_z < am_zhi; kernel_z++) {\n";
  per plane_start
    (fun l _ -> Printf.sprintf "%s + kernel_z * %s" (c_gen (lbase l)) (c_gen (lplane l)))
    "    ";
  p "    for (intnat kernel_y = am_ylo; kernel_y < am_yhi; kernel_y++) {\n";
  per row_start
    (fun l _ -> Printf.sprintf "%s + kernel_y * %s" (c_gen (plane_start l)) (c_gen (lrow l)))
    "      ";
  p "      for (intnat kernel_x = am_xlo; kernel_x < am_xhi; kernel_x++) {\n";
  per index
    (fun l dim ->
      if dim = 1 then Printf.sprintf "%s + kernel_x" (c_gen (row_start l))
      else Printf.sprintf "%s + kernel_x * %d" (c_gen (row_start l)) dim)
    "        ";
  List.iter (pr_st st b ~ind:"        ") stmts;
  p "      }\n    }\n  }\n";
  List.iter
    (fun k ->
      match sg.(k) with
      | Sgbl { access; _ } when access <> "Read" && env.routes.(k) = Locals ->
        List.iter
          (fun c -> p "  kernel_z%d[%d] = kernel_u%d_%d;\n" k c k c)
          (List.sort compare (Hashtbl.find env.uses k).points)
      | _ -> ())
    globals;
  p "  return 0;\n}\n\n";
  (* The bytecode entry point: the same walker on tagged and boxed
     arguments. *)
  p "value %s_byte(value *argv, int argn)\n{\n  (void) argn;\n" symbol;
  p "  return Val_long(%s(argv[0], Long_val(argv[1]), Long_val(argv[2]), Long_val(argv[3]),\n"
    symbol;
  p "    Long_val(argv[4]), Long_val(argv[5]), Long_val(argv[6])%s));\n}\n"
    (String.concat ""
       (List.mapi
          (fun i (_, _, t) -> Printf.sprintf ", %s(argv[%d])" (of_value t) (i + 7))
          consts));
  (Buffer.contents b, passed st consts)

(* The C native element walker [symbol] of one signature, from the
   rewritten [body], as [native_walker]: the per-call proof, then per
   element each (map label, slot) target loaded once and checked against
   [am_c<t>], the smallest element count among the datasets it reaches,
   the bases, the [Inc]s started at zero, the body and the [Inc]s added
   back, in argument order and then component order, as [elems_form]
   does. *)
let native_elems ~scope ~symbol env body =
  let st = new_state ~scope env in
  let stmts = sm st { locals = []; scope } body in
  let { incs; based; targets; dats; maps; buffers; gbl_locals; inc_locals } = elem_layout env in
  let sg = env.sg and n = Array.length env.sg in
  let dim = dim_of env and points = points env in
  let dat k = first sg same_dataset k in
  let b = Buffer.create 4096 in
  let p fmt = Printf.bprintf b fmt in
  let consts = c_consts st in
  p "intnat %s(value am_walk, intnat am_lo, intnat am_hi%s)\n{\n" symbol
    (String.concat "" (List.map (fun (c, _, t) -> Printf.sprintf ", %s %s" t c) consts));
  p "  if (am_lo >= am_hi) return 0;\n";
  p "  value am_addrs = Field(am_walk, 0), am_bufs = Field(am_walk, 1);\n";
  p "  if (Wosize_val(am_addrs) != %d || Wosize_val(am_bufs) != %d) return %d;\n" n n
    (status st_walk 0);
  p "  if (am_lo < 0) return %d;\n" (status st_lo 0);
  List.iter
    (fun j ->
      p "  double *kernel_d%d = am_adata(am_addrs, %d);\n" j j;
      p "  intnat kernel_n%d = am_alength(am_addrs, %d);\n" j j)
    dats;
  let direct = List.filter_map (fun k -> if via env k = None then Some (dat k) else None) based in
  List.iter
    (fun j ->
      p "  if (am_short(kernel_n%d, am_hi, %d)) return %d;\n" j (dim j) (status st_dataset j))
    (List.sort_uniq compare direct);
  List.iter
    (fun j ->
      let _, arity, _ = Option.get (via env j) in
      p "  const value *kernel_m%d = am_amap(am_addrs, %d);\n" j j;
      p "  if (am_short(am_amap_length(am_addrs, %d), am_hi, %d)) return %d;\n" j arity
        (status st_map j))
    maps;
  List.iter
    (fun t ->
      let reached =
        List.sort_uniq compare
          (List.filter_map
             (fun k ->
               if via env k <> None && first sg same_target k = t then Some (dat k) else None)
             based)
      in
      let count j = Printf.sprintf "kernel_n%d / %d" j (dim j) in
      p "  intnat am_c%d = %s;\n" t (count (List.hd reached));
      List.iter
        (fun j -> p "  if (%s < am_c%d) am_c%d = %s;\n" (count j) t t (count j))
        (List.tl reached))
    targets;
  List.iter
    (fun k ->
      p "  double *kernel_z%d = (double *) Field(am_bufs, %d);\n" k k;
      p "  intnat kernel_nz%d = am_doubles(Field(am_bufs, %d));\n" k k;
      p "  if (kernel_nz%d < %d) return %d;\n" k (dim k)
        (status (if is_dat env k then st_scratch else st_global) k))
    buffers;
  List.iter (fun (k, c) -> p "  double kernel_u%d_%d = kernel_z%d[%d];\n" k c k c) gbl_locals;
  print_arrays st b;
  p "  for (intnat kernel_e = am_lo; kernel_e < am_hi; kernel_e++) {\n";
  List.iter
    (fun t ->
      let _, arity, slot = Option.get (via env t) in
      let row = if arity = 1 then "kernel_e" else Printf.sprintf "kernel_e * %d" arity in
      let i = if slot = 0 then row else Printf.sprintf "%s + %d" row slot in
      p "    const intnat kernel_t%d = Long_val(kernel_m%d[%s]);\n" t (first sg same_map t) i;
      p "    if ((uintnat) kernel_t%d >= (uintnat) am_c%d) return %d;\n" t t (status st_target t))
    targets;
  List.iter
    (fun k ->
      let at =
        if via env k = None then "kernel_e"
        else Printf.sprintf "kernel_t%d" (first sg same_target k)
      in
      p "    const intnat kernel_b%d = %s * %d;\n" k at (dim k))
    based;
  List.iter (fun (k, c) -> p "    double kernel_u%d_%d = 0.0;\n" k c) inc_locals;
  List.iter
    (fun k ->
      if env.routes.(k) = Buffer then
        for c = 0 to dim k - 1 do
          p "    kernel_z%d[%d] = 0.0;\n" k c
        done)
    incs;
  List.iter (pr_st st b ~ind:"    ") stmts;
  List.iter
    (fun k ->
      let d = dat k in
      for c = 0 to dim k - 1 do
        let v =
          if env.routes.(k) = Buffer then Printf.sprintf "kernel_z%d[%d]" k c
          else if List.mem c (points k) then Printf.sprintf "kernel_u%d_%d" k c
          else "0.0"
        in
        p "    kernel_d%d[kernel_b%d + %d] = kernel_d%d[kernel_b%d + %d] + %s;\n" d k c d k c v
      done)
    incs;
  p "  }\n";
  List.iter (fun (k, c) -> p "  kernel_z%d[%d] = kernel_u%d_%d;\n" k c k c) gbl_locals;
  p "  return 0;\n}\n\n";
  (* The bytecode entry point: the same walker on tagged and boxed
     arguments, taken one by one up to five, from an array beyond. *)
  let arity = 3 + List.length consts in
  let arg i = if arity <= 5 then Printf.sprintf "a%d" i else Printf.sprintf "argv[%d]" i in
  if arity <= 5 then
    p "value %s_byte(%s)\n{\n" symbol
      (String.concat ", " (List.init arity (fun i -> Printf.sprintf "value a%d" i)))
  else p "value %s_byte(value *argv, int argn)\n{\n  (void) argn;\n" symbol;
  p "  return Val_long(%s(%s, Long_val(%s), Long_val(%s)%s));\n}\n" symbol (arg 0) (arg 1) (arg 2)
    (String.concat ""
       (List.mapi
          (fun i (_, _, t) -> Printf.sprintf ", %s(%s)" (of_value t) (arg (i + 3)))
          consts));
  (Buffer.contents b, passed st consts)

(* The name of a kernel file's walkers: its base name without extension,
   as the generator and the rewriter both see it. *)
let unit_name str =
  match str with
  | [] -> "none"
  | item :: _ ->
    let f = Filename.remove_extension (Filename.basename item.pstr_loc.loc_start.pos_fname) in
    if f = "" || f = "." then "none" else c_ident f

let symbol ~unit kname v = Printf.sprintf "am_walk_%s_%s_%d" unit (c_ident kname) v
let elem_symbol ~unit kname = Printf.sprintf "am_elems_%s_%s" unit (c_ident kname)

(* The OCaml side of a native walker: an [external] on [symbol], untagged
   and unboxed, that allocates nothing, and a wrapper that passes the
   constants and raises on a failed check, naming the kernel and the
   argument or float array. *)
let native_wrapper ~loc ~form ~kname ~symbol (consts, arrays) =
  let open Ast_builder.Default in
  let attr name = attribute ~loc ~name:{ txt = name; loc } ~payload:(PStr []) in
  let untagged = { [%type: int] with ptyp_attributes = [ attr "untagged" ] } in
  let unboxed = { [%type: float] with ptyp_attributes = [ attr "unboxed" ] } in
  let fixed, first, ints =
    match form with
    | Ranges ->
      ( "__kernel_p",
        [%type: Am_core.Acc.place array],
        [ "__kernel_xlo"; "__kernel_xhi"; "__kernel_ylo"; "__kernel_yhi"; "__kernel_zlo";
          "__kernel_zhi" ] )
    | Elements -> ("__kernel_w", [%type: Am_core.Acc.walk], [ "__kernel_lo"; "__kernel_hi" ])
  in
  let const = function "double" -> unboxed | "value" -> [%type: float array] | _ -> untagged in
  let params =
    (first :: List.map (fun _ -> untagged) ints) @ List.map (fun (_, t) -> const t) consts
  in
  let ty = List.fold_right (fun a r -> ptyp_arrow ~loc Nolabel a r) params untagged in
  let prim =
    pstr_primitive ~loc
      (value_description ~loc ~name:{ txt = "walk"; loc } ~type_:ty
         ~prim:[ symbol ^ "_byte"; symbol ])
  in
  let prim =
    match prim.pstr_desc with
    | Pstr_primitive vd ->
      { prim with pstr_desc = Pstr_primitive { vd with pval_attributes = [ attr "noalloc" ] } }
    | _ -> prim
  in
  let call =
    pexp_apply ~loc [%expr Kernel_native__.walk]
      (List.map
         (fun e -> (Nolabel, e))
         (List.map (evar ~loc) (fixed :: ints)
         @ List.map (fun (lid, _) -> pexp_ident ~loc { txt = lid; loc }) consts))
  in
  let check =
    [%expr
      let __kernel_s = [%e call] in
      if Stdlib.( <> ) __kernel_s 0 then
        Am_core.Acc.native_failure
          [%e estring ~loc (match form with Ranges -> "range" | Elements -> "element")]
          [%e estring ~loc kname]
          [%e elist ~loc (List.map (estring ~loc) arrays)]
          __kernel_s]
  in
  let walker =
    match form with
    | Ranges ->
      [%expr
        fun (__kernel_p : Am_core.Acc.place array) (__kernel_xlo : int) (__kernel_xhi : int)
            (__kernel_ylo : int) (__kernel_yhi : int) (__kernel_zlo : int) (__kernel_zhi : int) ->
          [%e check]]
    | Elements ->
      [%expr
        fun (__kernel_w : Am_core.Acc.walk) (__kernel_lo : int) (__kernel_hi : int) -> [%e check]]
  in
  [%expr
    let module Kernel_native__ = struct
      [%%i prim]
    end in
    [%e walker]]

(* The signature as a value, [Am_core.Acc.arg_sig array] or
   [Am_core.Acc.grid_sig array]. *)
let signature_expr form ~loc sg =
  let eint = Ast_builder.Default.eint ~loc and estring = Ast_builder.Default.estring ~loc in
  let access a =
    Ast_builder.Default.pexp_construct ~loc
      { txt = Ldot (Ldot (Lident "Am_core", "Access"), a); loc }
      None
  in
  Ast_builder.Default.pexp_array ~loc
    (Array.to_list
       (Array.map
          (function
            | Sdat { label; dim; access = a; via } ->
              let via =
                match via with
                | None -> [%expr None]
                | Some (m, arity, slot) ->
                  [%expr
                    Some
                      {
                        Am_core.Acc.map = [%e estring m];
                        arity = [%e eint arity];
                        slot = [%e eint slot];
                      }]
              in
              [%expr
                Am_core.Acc.Dat
                  {
                    label = [%e estring label];
                    dim = [%e eint dim];
                    access = [%e access a];
                    via = [%e via];
                  }]
            | Sgrid { label; stencil; dim; access = a } ->
              let point (x, y, z) = [%expr [%e eint x], [%e eint y], [%e eint z]] in
              [%expr
                Am_core.Acc.Grid_dat
                  {
                    label = [%e estring label];
                    stencil =
                      [%e
                        Ast_builder.Default.pexp_array ~loc
                          (List.map point (Array.to_list stencil))];
                    dim = [%e eint dim];
                    access = [%e access a];
                  }]
            | Sgbl { len; access = a } -> (
              match form with
              | Elements -> [%expr Am_core.Acc.Gbl { len = [%e eint len]; access = [%e access a] }]
              | Ranges ->
                [%expr Am_core.Acc.Grid_gbl { len = [%e eint len]; access = [%e access a] }]))
          sg))

(* Signature parsing, shared by both forms: errors located at the entry and
   naming the kernel. *)
let sig_fail form kname ~loc fmt =
  Location.raise_errorf ~loc ("%%%s %s: " ^^ fmt) (extension_name form) kname

let args_attributes vb =
  List.filter (fun a -> String.equal a.attr_name.txt "args") vb.pvb_attributes

(* The comma-separated entries of one [[@@args ...]] attribute. *)
let sig_entries form kname attr =
  match attr.attr_payload with
  | PStr [ { pstr_desc = Pstr_eval ({ pexp_desc = Pexp_tuple es; _ }, _); _ } ] -> es
  | PStr [ { pstr_desc = Pstr_eval (e, _); _ } ] -> [ e ]
  | _ ->
    sig_fail form kname ~loc:attr.attr_loc "[@@@@args] takes a comma-separated list of arguments"

let sig_int form kname ~at what e =
  match literal_int e with
  | Some i when i >= at -> i
  | Some _ | None ->
    sig_fail form kname ~loc:e.pexp_loc "%s must be an integer literal of at least %d" what at

let sig_access form kname ~modes e =
  match e.pexp_desc with
  | Pexp_construct ({ txt = Lident a; _ }, None) when List.mem a modes -> a
  | _ ->
    sig_fail form kname ~loc:e.pexp_loc "the access mode must be one of %s"
      (String.concat ", " modes)

let gbl_modes = [ "Read"; "Inc"; "Min"; "Max" ]

(* The [[@@args ...]] signature of element kernel [kname]: a comma-separated
   list with one entry per argument, in argument order —

     label dim Access                    a direct dataset argument
     label (map arity slot) dim Access   an indirect one
     gbl length Access                   a global

   where the labels are names local to the signature.  Refused, located at
   the entry: a malformed entry, an access mode the argument kind does not
   take, a dim, length or arity below 1, a slot outside the arity, and one
   dataset label declared with two dims or one map label with two
   arities. *)
let parse_signature ~kname vb =
  let fail ~loc fmt = sig_fail Elements kname ~loc fmt in
  let attr =
    match args_attributes vb with
    | a :: _ -> a
    | [] ->
      fail ~loc:vb.pvb_loc
        "missing its argument signature [@@@@args ...], one entry per argument (label dim Access, \
         label (map arity slot) dim Access or gbl length Access)"
  in
  let int = sig_int Elements kname and access = sig_access Elements kname in
  let dat_modes = [ "Read"; "Write"; "Rw"; "Inc" ] in
  let entry e =
    match e.pexp_desc with
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Lident "gbl"; _ }; _ },
          [ (Nolabel, len); (Nolabel, a) ] ) ->
      Sgbl { len = int ~at:1 "a global's length" len; access = access ~modes:gbl_modes a }
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Lident label; _ }; _ },
          [ (Nolabel, dim); (Nolabel, a) ] ) ->
      Sdat { label; dim = int ~at:1 "a dim" dim; access = access ~modes:dat_modes a; via = None }
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Lident label; _ }; _ },
          [
            ( Nolabel,
              {
                pexp_desc =
                  Pexp_apply
                    ( { pexp_desc = Pexp_ident { txt = Lident m; _ }; _ },
                      [ (Nolabel, arity); (Nolabel, slot) ] );
                _;
              } );
            (Nolabel, dim);
            (Nolabel, a);
          ] ) ->
      let arity = int ~at:1 "an arity" arity in
      let s = int ~at:0 "a slot" slot in
      if s >= arity then fail ~loc:slot.pexp_loc "slot %d is outside map %s's arity %d" s m arity;
      Sdat
        {
          label;
          dim = int ~at:1 "a dim" dim;
          access = access ~modes:dat_modes a;
          via = Some (m, arity, s);
        }
    | _ ->
      fail ~loc:e.pexp_loc
        "a signature entry is label dim Access, label (map arity slot) dim Access or gbl length \
         Access"
  in
  let entries = sig_entries Elements kname attr in
  let sg = Array.of_list (List.map entry entries) in
  List.iteri
    (fun k e ->
      match sg.(k) with
      | Sdat { label; dim; via; _ } -> (
        (match sg.(first sg same_dataset k) with
        | Sdat { dim = d; _ } when d <> dim ->
          fail ~loc:e.pexp_loc "dataset label %s is declared with dims %d and %d" label d dim
        | _ -> ());
        match via with
        | Some (m, arity, _) -> (
          match sg.(first sg same_map k) with
          | Sdat { via = Some (_, r, _); _ } when r <> arity ->
            fail ~loc:e.pexp_loc "map label %s is declared with arities %d and %d" m r arity
          | _ -> ())
        | None -> ())
      | Sgrid _ | Sgbl _ -> ())
    entries;
  sg

(* The [[@@args ...]] signatures of structured kernel [kname], one per
   attribute (one per variant): a comma-separated list with one entry per
   argument, in argument order —

     label [offsets] dim Access   a dataset, its stencil as literal offsets
                                  x, (x, y) or (x, y, z) in declaration order
     gbl length Access            a global

   where the labels are layout names local to the signature.  Refused,
   located at the entry or attribute: a missing signature, a malformed
   entry or stencil, an empty stencil, an access mode the argument kind
   does not take, an [Inc] dataset, a written dataset whose stencil is not
   the centre alone, a dim or length below 1, one label declared with two
   dims, variants declaring different numbers of arguments, and two
   variants with the same stencils. *)
let grid_signatures ~kname vb =
  let fail ~loc fmt = sig_fail Ranges kname ~loc fmt in
  let int = sig_int Ranges kname and access = sig_access Ranges kname in
  let offset e =
    let lit e =
      match literal_int e with
      | Some i -> i
      | None -> fail ~loc:e.pexp_loc "a stencil offset must be an integer literal"
    in
    match e.pexp_desc with
    | Pexp_tuple [ x; y ] -> (lit x, lit y, 0)
    | Pexp_tuple [ x; y; z ] -> (lit x, lit y, lit z)
    | _ -> (lit e, 0, 0)
  in
  let rec offsets e =
    match e.pexp_desc with
    | Pexp_construct ({ txt = Lident "[]"; _ }, None) -> []
    | Pexp_construct ({ txt = Lident "::"; _ }, Some { pexp_desc = Pexp_tuple [ hd; tl ]; _ }) ->
      offset hd :: offsets tl
    | _ -> fail ~loc:e.pexp_loc "a stencil is a list of literal offsets, e.g. [(0, 0); (1, 0)]"
  in
  let entry k e =
    match e.pexp_desc with
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Lident "gbl"; _ }; _ },
          [ (Nolabel, len); (Nolabel, a) ] ) ->
      Sgbl { len = int ~at:1 "a global's length" len; access = access ~modes:gbl_modes a }
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Lident label; _ }; _ },
          [ (Nolabel, st); (Nolabel, dim); (Nolabel, a) ] ) ->
      let stencil = Array.of_list (offsets st) in
      if stencil = [||] then fail ~loc:st.pexp_loc "argument %d's stencil is empty" k;
      (match a.pexp_desc with
      | Pexp_construct ({ txt = Lident "Inc"; _ }, None) ->
        fail ~loc:a.pexp_loc
          "argument %d is an Inc dataset, which the executors stage: a kernel with one is a \
           plain point function (Acc.lift), run by the point walker"
          k
      | _ -> ());
      let access = access ~modes:[ "Read"; "Write"; "Rw" ] a in
      if access <> "Read" && stencil <> [| (0, 0, 0) |] then
        fail ~loc:st.pexp_loc "argument %d is written, so its stencil must be the centre alone" k;
      Sgrid { label; stencil; dim = int ~at:1 "a dim" dim; access }
    | _ ->
      fail ~loc:e.pexp_loc "a signature entry is label [offsets] dim Access or gbl length Access"
  in
  let signature attr =
    let entries = sig_entries Ranges kname attr in
    let sg = Array.of_list (List.mapi entry entries) in
    List.iteri
      (fun k e ->
        match sg.(k) with
        | Sgrid { label; dim; _ } -> (
          match sg.(first sg same_layout k) with
          | Sgrid { dim = d; _ } when d <> dim ->
            fail ~loc:e.pexp_loc "layout label %s is declared with dims %d and %d" label d dim
          | _ -> ())
        | Sdat _ | Sgbl _ -> ())
      entries;
    (attr, sg)
  in
  let stencils sg =
    Array.to_list (Array.map (function Sgrid { stencil; _ } -> Some stencil | _ -> None) sg)
  in
  match List.map signature (args_attributes vb) with
  | [] ->
    fail ~loc:vb.pvb_loc
      "missing its argument signature [@@@@args ...], one entry per argument (label [offsets] dim \
       Access or gbl length Access)"
  | (_, sg0) :: _ as sigs ->
    List.iteri
      (fun i (attr, sg) ->
        if Array.length sg <> Array.length sg0 then
          fail ~loc:attr.attr_loc "[@@@@args] variants declare %d and %d arguments"
            (Array.length sg0) (Array.length sg);
        List.iteri
          (fun j (_, sg') ->
            if j < i && stencils sg' = stencils sg then
              fail ~loc:attr.attr_loc "[@@@@args] variants %d and %d declare the same stencils" j i)
          sigs)
      sigs;
    List.map snd sigs

let is_acc_array ty =
  match ty.ptyp_desc with
  | Ptyp_constr
      ( { txt = Lident "array"; _ },
        [ { ptyp_desc = Ptyp_constr ({ txt = Ldot (path, "t"); _ }, []); _ } ] ) -> (
    match path with Lident "Acc" | Ldot (_, "Acc") -> true | _ -> false)
  | _ -> false

(* [let%kernel name (a : Acc.t array) = body] (or [let%elem_kernel]) as one
   value binding.  A range kernel's walkers are native, each with its OCaml
   walker as [reference]; [emit] receives each native walker's C symbol and
   text, [scope] is what the file binds above the kernel and [unit] names
   its walkers. *)
let expand_binding form ~loc ~scope ~unit ~emit vb =
  let ext = extension_name form in
  let kname =
    match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt; _ } -> txt
    | _ -> Location.raise_errorf ~loc:vb.pvb_pat.ppat_loc "%%%s: bind a plain name" ext
  in
  let bad () =
    Location.raise_errorf ~loc:vb.pvb_expr.pexp_loc
      "%%%s %s: the kernel must take one parameter (a : Acc.t array)" ext kname
  in
  let param, body =
    match vb.pvb_expr.pexp_desc with
    | Pexp_function
        ( [
            {
              pparam_desc =
                Pparam_val
                  ( Nolabel,
                    None,
                    { ppat_desc = Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, ty); _ }
                  );
              _;
            };
          ],
          None,
          Pfunction_body body )
      when is_acc_array ty ->
      (txt, body)
    | _ -> bad ()
  in
  let point = vb.pvb_expr in
  (* Two passes per signature: the first checks the body against it and
     collects its uses, which fix each argument's route; the second
     rewrites the body along those routes. *)
  let rewritten sg =
    let uses = Hashtbl.create 8 in
    let pass1 =
      { form; kname; param = Some param; aliases = []; uses; sg; routes = routes_of form sg uses }
    in
    ignore (rewrite#expression pass1 body);
    let env = { pass1 with uses = Hashtbl.create 8; routes = routes_of form sg pass1.uses } in
    (env, rewrite#expression env body)
  in
  let estring = Ast_builder.Default.estring ~loc in
  let attributes = List.filter (fun a -> a.attr_name.txt <> "args") vb.pvb_attributes in
  match form with
  | Ranges ->
    let walker v sg =
      let env, body = rewritten sg in
      let symbol = symbol ~unit kname v in
      let c, passed = native_walker ~scope ~symbol env body in
      emit symbol c;
      [%expr
        {
          Am_core.Acc.kname = [%e estring kname];
          signature = [%e signature_expr Ranges ~loc sg];
          range = [%e native_wrapper ~loc ~form ~kname ~symbol passed];
          reference = [%e range_form ~loc env body];
        }]
    in
    let walkers = List.mapi walker (grid_signatures ~kname vb) in
    let value =
      [%expr
        {
          Am_core.Acc.point = [%e point];
          walkers = [%e Ast_builder.Default.pexp_array ~loc walkers];
        }]
    in
    Ast_builder.Default.pstr_value ~loc Nonrecursive
      [ { vb with pvb_expr = value; pvb_attributes = attributes } ]
  | Elements ->
    let sg = parse_signature ~kname vb in
    let env, body = rewritten sg in
    let symbol = elem_symbol ~unit kname in
    let c, passed = native_elems ~scope ~symbol env body in
    emit symbol c;
    let value =
      [%expr
        {
          Am_core.Acc.elem = [%e point];
          walker =
            Some
              {
                Am_core.Acc.kname = [%e estring kname];
                signature = [%e signature_expr Elements ~loc sg];
                elems = [%e native_wrapper ~loc ~form ~kname ~symbol passed];
                reference = [%e elems_form ~loc env body];
              };
        }]
    in
    Ast_builder.Default.pstr_value ~loc Nonrecursive
      [ { vb with pvb_expr = value; pvb_attributes = attributes } ]

let expand_item form ~scope ~unit ~emit item =
  match item.pstr_desc with
  | Pstr_value (Nonrecursive, [ vb ]) ->
    expand_binding form ~loc:item.pstr_loc ~scope ~unit ~emit vb
  | _ ->
    let ext = extension_name form in
    Location.raise_errorf ~loc:item.pstr_loc
      "%%%s: expected let%%%s name (a : Acc.t array) = body" ext ext

(* The scope entries an item adds, innermost first. *)
let bound item =
  let opaque names = List.map (fun n -> Opaque n) names in
  match item.pstr_desc with
  | Pstr_value (Nonrecursive, vbs) ->
    List.concat_map
      (fun vb ->
        match vb.pvb_pat.ppat_desc with
        | Ppat_var { txt; _ } -> [ Value (txt, vb) ]
        | _ -> opaque (bound_vars#pattern vb.pvb_pat []))
      vbs
  | Pstr_value (Recursive, vbs) ->
    opaque (List.concat_map (fun vb -> bound_vars#pattern vb.pvb_pat []) vbs)
  | Pstr_primitive vd -> [ Opaque vd.pval_name.txt ]
  | Pstr_module { pmb_name = { txt = Some m; _ }; _ } -> [ Module m ]
  | Pstr_recmodule mbs ->
    List.filter_map (fun mb -> Option.map (fun m -> Module m) mb.pmb_name.txt) mbs
  | Pstr_open _ | Pstr_include _ -> [ Opened ]
  | _ -> []

(* Expand every [let%kernel] and [let%elem_kernel] of a structure, each
   with the items above it (in its own and the enclosing structures) in
   scope. *)
let expand_structure ~emit str =
  let unit = unit_name str in
  let mapper =
    object (self)
      inherit [item list] Ast_traverse.map_with_context as super

      method! structure scope items =
        let _, rev =
          List.fold_left
            (fun (scope, acc) item ->
              let item = self#structure_item scope item in
              (bound item @ scope, item :: acc))
            (scope, []) items
        in
        List.rev rev

      method! structure_item scope item =
        match item.pstr_desc with
        | Pstr_extension (({ txt = "kernel"; _ }, PStr [ inner ]), _) ->
          expand_item Ranges ~scope ~unit ~emit inner
        | Pstr_extension (({ txt = "elem_kernel"; _ }, PStr [ inner ]), _) ->
          expand_item Elements ~scope ~unit ~emit inner
        | _ -> super#structure_item scope item
    end
  in
  mapper#structure [] str

let rewrite_structure = expand_structure ~emit:(fun _ _ -> ())

(* The native walkers of a structure's range kernels: each C symbol and
   its function, in source order. *)
let walkers_c str =
  let out = ref [] in
  ignore (expand_structure ~emit:(fun symbol c -> out := (symbol, c) :: !out) str);
  List.rev !out

(* A whole-file rewrite: a range kernel's native walker inlines the
   helpers above it and needs to know which names they bind. *)
let () = Driver.register_transformation "kernel" ~impl:rewrite_structure

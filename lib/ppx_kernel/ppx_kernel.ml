(* Generated walkers for accessor kernels: [let%kernel] for structured
   meshes (OPS) and [let%elem_kernel] for unstructured ones (OP2).

     let%kernel pdv_acc (a : Acc.t array) = body
     [@@args node [(0,0); (1,0); (0,1); (1,1)] 1 Read, ..., gbl 4 Read]

   binds [pdv_acc] to an [Am_core.Acc.kernel] value: the point form [fun
   (a : Acc.t array) -> body], exactly as written, and one range walker
   per declared signature.  The signature states per argument what OPS's
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
   argument signature.  The signature states per argument what OP2's
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

   In both forms indexing stays [Array.get]/[Array.set], bounds-checked,
   and each point or element evaluates the same floating-point operations
   in the same order as the point form.  Any other use of an accessor —
   passed to a function, returned or stored, indexed by a non-literal
   argument number — and a parameter other than [(a : Acc.t array)] are
   errors located at the offending expression; a generated walker never
   falls back to per-point calls inside itself. *)

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
  let ks = List.init (Array.length sg) Fun.id in
  let ev = evar ~loc and eint = Ast_builder.Default.eint ~loc in
  let lets bindings body =
    List.fold_right
      (fun (name, e) acc ->
        [%expr let [%p Ast_builder.Default.pvar ~loc name] = [%e e] in [%e acc]])
      bindings body
  in
  let used k = Hashtbl.mem env.uses k in
  let points k =
    match Hashtbl.find_opt env.uses k with Some u -> List.sort compare u.points | None -> []
  in
  let via k = match sg.(k) with Sdat { via; _ } -> via | Sgrid _ | Sgbl _ -> None in
  let dim k =
    match sg.(k) with Sdat { dim; _ } | Sgrid { dim; _ } -> dim | Sgbl { len; _ } -> len
  in
  let is_dat k = match sg.(k) with Sdat _ | Sgrid _ -> true | Sgbl _ -> false in
  let incs =
    List.filter (fun k -> match sg.(k) with Sdat { access = "Inc"; _ } -> true | _ -> false) ks
  in
  let based =
    List.filter (fun k -> List.mem k incs || (is_dat k && env.routes.(k) = In_place && used k)) ks
  in
  let indirect = List.filter (fun k -> via k <> None) based in
  let firsts same l = List.sort_uniq compare (List.map (first sg same) l) in
  let buffered k =
    env.routes.(k) = Buffer || ((not (is_dat k)) && env.routes.(k) = Locals)
  in
  let buffers = List.filter (fun k -> used k && buffered k) ks in
  let locals pred =
    List.concat_map (fun k -> if pred k then List.map (fun c -> (k, c)) (points k) else []) ks
  in
  let gbl_locals = locals (fun k -> (not (is_dat k)) && env.routes.(k) = Locals) in
  let inc_locals = locals (fun k -> is_dat k && env.routes.(k) = Locals) in
  let targets =
    List.map
      (fun j ->
        let _, arity, slot = Option.get (via j) in
        let row =
          if arity = 1 then [%expr __kernel_e] else [%expr Stdlib.( * ) __kernel_e [%e eint arity]]
        in
        let i = if slot = 0 then row else [%expr Stdlib.( + ) [%e row] [%e eint slot]] in
        (target j, [%expr Stdlib.Array.get [%e ev (map_local (first sg same_map j))] [%e i]]))
      (firsts same_target indirect)
  in
  let bases =
    List.map
      (fun k ->
        let at =
          if via k = None then [%expr __kernel_e] else ev (target (first sg same_target k))
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
  let datasets = firsts same_dataset based and maps = firsts same_map indirect in
  let per_call =
    (if datasets = [] && maps = [] then []
     else [ ("__kernel_addrs", [%expr __kernel_walk.Am_core.Acc.addrs]) ])
    @ (if buffers = [] then [] else [ ("__kernel_bufs", [%expr __kernel_walk.Am_core.Acc.bufs]) ])
    @ List.map
        (fun j -> (data j, [%expr (Stdlib.Array.get __kernel_addrs [%e eint j]).Am_core.Acc.adata]))
        datasets
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
  let sg = env.sg in
  let ev = evar ~loc and eint = Ast_builder.Default.eint ~loc in
  let pvar = Ast_builder.Default.pvar ~loc in
  let lets bindings body =
    List.fold_right
      (fun (name, e) acc -> [%expr let [%p pvar name] = [%e e] in [%e acc]])
      bindings body
  in
  let ks = List.filter (Hashtbl.mem env.uses) (List.init (Array.length sg) Fun.id) in
  let use k = Hashtbl.find env.uses k in
  let datasets = List.filter (fun k -> match sg.(k) with Sgrid _ -> true | _ -> false) ks in
  let globals = List.filter (fun k -> match sg.(k) with Sgbl _ -> true | _ -> false) ks in
  let grid k =
    match sg.(k) with Sgrid g -> (g.label, g.stencil, g.dim) | Sdat _ | Sgbl _ -> assert false
  in
  let label k = let l, _, _ = grid k in l in
  (* The used labels, each by its first argument. *)
  let firsts = List.sort_uniq compare (List.map (first sg same_layout) datasets) in
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
  let offsets =
    List.sort_uniq compare
      (List.concat_map
         (fun k ->
           let l, stencil, dim = grid k in
           List.filter_map
             (fun p -> if stencil.(p) = (0, 0, 0) then None else Some (l, dim, stencil.(p)))
             (use k).points)
         datasets)
  in
  let locals k = List.sort compare (use k).points in
  let read k = match sg.(k) with Sgbl { access = "Read"; _ } -> true | _ -> false in
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
   value binding. *)
let expand_binding form ~loc vb =
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
    let walker sg =
      let env, body = rewritten sg in
      [%expr
        {
          Am_core.Acc.kname = [%e estring kname];
          signature = [%e signature_expr Ranges ~loc sg];
          range = [%e range_form ~loc env body];
        }]
    in
    let walkers = List.map walker (grid_signatures ~kname vb) in
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
    let value =
      [%expr
        {
          Am_core.Acc.elem = [%e point];
          walker =
            Some
              {
                Am_core.Acc.kname = [%e estring kname];
                signature = [%e signature_expr Elements ~loc sg];
                elems = [%e elems_form ~loc env body];
              };
        }]
    in
    Ast_builder.Default.pstr_value ~loc Nonrecursive
      [ { vb with pvb_expr = value; pvb_attributes = attributes } ]

let expand_item form item =
  match item.pstr_desc with
  | Pstr_value (Nonrecursive, [ vb ]) -> expand_binding form ~loc:item.pstr_loc vb
  | _ ->
    let ext = extension_name form in
    Location.raise_errorf ~loc:item.pstr_loc
      "%%%s: expected let%%%s name (a : Acc.t array) = body" ext ext

let extension form =
  Extension.V3.declare (extension_name form) Extension.Context.structure_item
    Ast_pattern.(pstr (__ ^:: nil))
    (fun ~ctxt:_ item -> expand_item form item)

(* Expand every [let%kernel] and [let%elem_kernel] of a structure: the
   rewriter as a function, for tests. *)
let rewrite_structure =
  let mapper =
    object
      inherit Ast_traverse.map as super

      method! structure_item item =
        match item.pstr_desc with
        | Pstr_extension (({ txt = "kernel"; _ }, PStr [ inner ]), _) -> expand_item Ranges inner
        | Pstr_extension (({ txt = "elem_kernel"; _ }, PStr [ inner ]), _) ->
          expand_item Elements inner
        | _ -> super#structure_item item
    end
  in
  mapper#structure

let () =
  Driver.register_transformation "kernel"
    ~rules:
      [
        Context_free.Rule.extension (extension Ranges);
        Context_free.Rule.extension (extension Elements);
      ]

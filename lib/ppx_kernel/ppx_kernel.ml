(* Generated walkers for accessor kernels: [let%kernel] for structured
   meshes (OPS) and [let%elem_kernel] for unstructured ones (OP2).

     let%kernel pdv_acc (a : Acc.t array) = body

   binds [pdv_acc] to an [Am_core.Acc.kernel] value with two forms of one
   kernel.  The point form is [fun (a : Acc.t array) -> body], exactly as
   written.  The row form [row accs steps n] runs [body] at [n] consecutive
   points: it loads each used accessor's [data], offset table and [base]
   into locals once, hoists every literal stencil offset, and after each
   point advances every base by its [steps] entry.  This is the OCaml
   counterpart of the OPS translator inlining a user kernel into its
   generated loop nest (the paper's Fig 7): with flambda off and libraries
   built [-opaque], nothing else would inline the kernel into the
   executor's loop.

   The body names accessors as [a.(k)] with a literal [k], or as variables
   [let]-bound to one, and uses them only through the kernel module's four
   accessor functions, which the row form replaces by direct indexing:

     get x p        stencil point p: data.(b + o_p) for a literal p,
                    data.(b + off.(p)) for a computed one
     set x v        the centre point: data.(b + o_0) <- v
     gbl x c        component c of a global: data.(b + o_0 + c)
     set_gbl x c v  data.(b + o_0 + c) <- v

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

(* Which walker a kernel gets: a row form ([let%kernel]) or an element
   walker ([let%elem_kernel]). *)
type form = Rows | Elements

let extension_name = function Rows -> "kernel" | Elements -> "elem_kernel"

let vocabulary = function
  | Rows -> [ ("get", 2); ("set", 2); ("gbl", 2); ("set_gbl", 3) ]
  | Elements -> [ ("get", 2); ("set", 3) ]

let vocabulary_names = function
  | Rows -> "get, set, gbl and set_gbl"
  | Elements -> "get and set"

(* The accessors one kernel uses: per argument number, the literal stencil
   points it reads or writes at (the centre, 0, for [set]/[gbl]/[set_gbl])
   and whether a computed point reads its offset table.  For an element
   walker, [points] are the literal components and [table] says whether
   some use names a computed one. *)
type use = { mutable points : int list; mutable table : bool }

(* One argument of an element kernel's declared signature ([@@args]): a
   dataset with its label, dim, access mode and, when indirect, its map
   label, arity and slot; or a global with its length and access mode.
   Access modes are constructor names ("Read", "Inc", ...). *)
type sarg =
  | Sdat of { label : string; dim : int; access : string; via : (string * int * int) option }
  | Sgbl of { len : int; access : string }

(* How an element walker reaches an argument: the dataset in place at a
   base computed per element; float locals, one per literal component (an
   [Inc] dataset's per element, an [Inc]/[Min]/[Max] global's per range);
   or the worker's buffer at base 0 (an [Inc] dataset's scratch, a
   global's accumulator). *)
type route = In_place | Locals | Buffer

type env = {
  form : form;
  kname : string;
  param : string option; (* [None] once a binder shadows it *)
  aliases : (string * int) list;
  uses : (int, use) Hashtbl.t;
  sg : sarg array; (* the declared signature; [||] for row forms *)
  routes : route array; (* per argument, for the element walker *)
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
    | Some k when env.form = Elements && k >= Array.length env.sg ->
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
let step k = Printf.sprintf "__kernel_s%d" k
let point k p = Printf.sprintf "__kernel_o%d_%d" k p

let evar ~loc name = Ast_builder.Default.evar ~loc name

(* [!b_k + o], the flat index of offset expression [o] at the current point. *)
let at ~loc k o = [%expr Stdlib.( + ) (Stdlib.( ! ) [%e evar ~loc (base k)]) [%e o]]

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
   walker, once the declaration allows it: a literal component within the
   declared dim (a global's length), and no [set] on a [Read] argument. *)
let elem_use env ~loc k u c v =
  let dim, access, what =
    match env.sg.(k) with
    | Sdat { dim; access; _ } -> (dim, access, "dim")
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
  | Locals, Some ci, None -> [%expr Stdlib.( ! ) [%e ev (local k ci)]]
  | Locals, Some ci, Some v -> [%expr Stdlib.( := ) [%e ev (local k ci)] [%e v]]
  | (Buffer | Locals), _, None -> [%expr Stdlib.Array.get [%e ev (buffer k)] [%e c]]
  | (Buffer | Locals), _, Some v -> [%expr Stdlib.Array.set [%e ev (buffer k)] [%e c] [%e v]]

(* The body of a generated walker: every accessor use rewritten to
   indexing on the hoisted locals, binders respecting scope. *)
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
          let centre () =
            if not (List.mem 0 u.points) then u.points <- 0 :: u.points;
            evar ~loc (point k 0)
          in
          let d = evar ~loc (data k) in
          match (env.form, f, List.map (fun (_, a) -> self#expression env a) rest) with
          | Rows, "get", [ p ] -> (
            match literal_int p with
            | Some p when p >= 0 ->
              if not (List.mem p u.points) then u.points <- p :: u.points;
              [%expr Stdlib.Array.get [%e d] [%e at ~loc k (evar ~loc (point k p))]]
            | Some _ | None ->
              u.table <- true;
              [%expr
                Stdlib.Array.get [%e d]
                  [%e at ~loc k [%expr Stdlib.Array.get [%e evar ~loc (offs k)] [%e p]]]])
          | Rows, "set", [ v ] -> [%expr Stdlib.Array.set [%e d] [%e at ~loc k (centre ())] [%e v]]
          | Rows, "gbl", [ c ] ->
            [%expr
              Stdlib.Array.get [%e d] (Stdlib.( + ) [%e at ~loc k (centre ())] [%e c])]
          | Rows, "set_gbl", [ c; v ] ->
            [%expr
              Stdlib.Array.set [%e d] (Stdlib.( + ) [%e at ~loc k (centre ())] [%e c]) [%e v]]
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

(* The row form around the rewritten [body]. *)
let row_form ~loc env body =
  let ks = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) env.uses []) in
  let pvar name = Ast_builder.Default.pvar ~loc name in
  let advance =
    List.fold_right
      (fun k acc ->
        [%expr
          Stdlib.( := ) [%e evar ~loc (base k)]
            (Stdlib.( + ) (Stdlib.( ! ) [%e evar ~loc (base k)]) [%e evar ~loc (step k)]);
          [%e acc]])
      ks [%expr ()]
  in
  let loop = [%expr for _ = 1 to __kernel_n do [%e body]; [%e advance] done] in
  let hoisted =
    List.fold_right
      (fun k acc ->
        let u = Hashtbl.find env.uses k in
        let acc =
          List.fold_right
            (fun p acc ->
              [%expr
                let [%p pvar (point k p)] =
                  Stdlib.Array.get [%e evar ~loc (offs k)] [%e Ast_builder.Default.eint ~loc p]
                in
                [%e acc]])
            (List.sort compare u.points) acc
        in
        let acc =
          if u.points = [] && not u.table then acc
          else [%expr let [%p pvar (offs k)] = __kernel_acc.Am_core.Acc.off in [%e acc]]
        in
        let ek = Ast_builder.Default.eint ~loc k in
        [%expr
          let __kernel_acc = Stdlib.Array.get __kernel_a [%e ek] in
          let [%p pvar (data k)] = __kernel_acc.Am_core.Acc.data in
          let [%p pvar (base k)] = Stdlib.ref __kernel_acc.Am_core.Acc.base in
          let [%p pvar (step k)] = Stdlib.Array.get __kernel_steps [%e ek] in
          [%e acc]])
      ks loop
  in
  if ks = [] then [%expr fun _ _ __kernel_n -> [%e loop]]
  else
    [%expr
      fun (__kernel_a : Am_core.Acc.t array) (__kernel_steps : int array) (__kernel_n : int) ->
        [%e hoisted]]

(* The route of each argument, from the uses the body makes of it: an
   [Inc] dataset or an [Inc]/[Min]/[Max] global takes float locals when
   every use names a literal component, the worker's buffer otherwise; a
   [Read] global the buffer; any other dataset is addressed in place. *)
let routes_of sg uses =
  Array.mapi
    (fun k a ->
      let computed = match Hashtbl.find_opt uses k with Some u -> u.table | None -> false in
      match a with
      | Sdat { access = "Inc"; _ } | Sgbl { access = "Inc" | "Min" | "Max"; _ } ->
        if computed then Buffer else Locals
      | Sdat _ -> In_place
      | Sgbl _ -> Buffer)
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
  let via k = match sg.(k) with Sdat { via; _ } -> via | Sgbl _ -> None in
  let dim k = match sg.(k) with Sdat { dim; _ } -> dim | Sgbl { len; _ } -> len in
  let is_dat k = match sg.(k) with Sdat _ -> true | Sgbl _ -> false in
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

(* The signature as a value, [Am_core.Acc.arg_sig array]. *)
let signature_expr ~loc sg =
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
            | Sgbl { len; access = a } ->
              [%expr Am_core.Acc.Gbl { len = [%e eint len]; access = [%e access a] }])
          sg))

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
  let fail ~loc fmt = Location.raise_errorf ~loc ("%%elem_kernel %s: " ^^ fmt) kname in
  let attr =
    match List.find_opt (fun a -> String.equal a.attr_name.txt "args") vb.pvb_attributes with
    | Some a -> a
    | None ->
      fail ~loc:vb.pvb_loc
        "missing its argument signature [@@@@args ...], one entry per argument (label dim Access, \
         label (map arity slot) dim Access or gbl length Access)"
  in
  let entries =
    match attr.attr_payload with
    | PStr [ { pstr_desc = Pstr_eval ({ pexp_desc = Pexp_tuple es; _ }, _); _ } ] -> es
    | PStr [ { pstr_desc = Pstr_eval (e, _); _ } ] -> [ e ]
    | _ -> fail ~loc:attr.attr_loc "[@@@@args] takes a comma-separated list of arguments"
  in
  let int ~at what e =
    match literal_int e with
    | Some i when i >= at -> i
    | Some _ | None -> fail ~loc:e.pexp_loc "%s must be an integer literal of at least %d" what at
  in
  let access ~modes e =
    match e.pexp_desc with
    | Pexp_construct ({ txt = Lident a; _ }, None) when List.mem a modes -> a
    | _ -> fail ~loc:e.pexp_loc "the access mode must be one of %s" (String.concat ", " modes)
  in
  let dat_modes = [ "Read"; "Write"; "Rw"; "Inc" ] in
  let gbl_modes = [ "Read"; "Inc"; "Min"; "Max" ] in
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
      | Sgbl _ -> ())
    entries;
  sg

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
  let make_env sg =
    let uses = Hashtbl.create 8 in
    { form; kname; param = Some param; aliases = []; uses; sg; routes = routes_of sg uses }
  in
  match form with
  | Rows ->
    let env = make_env [||] in
    let body = rewrite#expression env body in
    let value = [%expr { Am_core.Acc.point = [%e point]; row = [%e row_form ~loc env body] }] in
    Ast_builder.Default.pstr_value ~loc Nonrecursive [ { vb with pvb_expr = value } ]
  | Elements ->
    (* Two passes: the first checks the body against the signature and
       collects its uses, which fix each argument's route; the second
       rewrites the body along those routes. *)
    let sg = parse_signature ~kname vb in
    let pass1 = make_env sg in
    ignore (rewrite#expression pass1 body);
    let env = { pass1 with uses = Hashtbl.create 8; routes = routes_of sg pass1.uses } in
    let body = rewrite#expression env body in
    let value =
      [%expr
        {
          Am_core.Acc.elem = [%e point];
          walker =
            Some
              {
                Am_core.Acc.kname = [%e Ast_builder.Default.estring ~loc kname];
                signature = [%e signature_expr ~loc sg];
                elems = [%e elems_form ~loc env body];
              };
        }]
    in
    let attributes = List.filter (fun a -> a.attr_name.txt <> "args") vb.pvb_attributes in
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
        | Pstr_extension (({ txt = "kernel"; _ }, PStr [ inner ]), _) -> expand_item Rows inner
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
        Context_free.Rule.extension (extension Rows);
        Context_free.Rule.extension (extension Elements);
      ]

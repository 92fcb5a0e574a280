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

   binds [res_calc] to an [Am_core.Acc.elem_kernel] value: the point form
   as written, and ([Some]) an element walker [elems w lo hi] that runs
   [body] at every element of [lo, hi), as the OP2 translator's generated
   loops do.
   It loads each used argument's addressing ([Acc.addr]) and arrays once
   per call: the dataset itself when the argument is in place, the
   frame's buffer (a global's accumulator, a staged Inc's scratch) at base
   0 otherwise.  Per element it computes each in-place base inline —
   [map.(e * arity + idx) * dim] when indirect, [e * dim] when direct —
   zeroes every staged Inc scratch, runs the body, and adds every scratch
   component back to memory in argument order.  Its vocabulary is two
   functions, with a literal or computed component [c]:

     get x c        data.(b + c)
     set x c v      data.(b + c) <- v

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
   and whether a computed point reads its offset table (row forms), and
   whether the body writes it (element walkers). *)
type use = { mutable points : int list; mutable table : bool; mutable written : bool }

type env = {
  form : form;
  kname : string;
  param : string option; (* [None] once a binder shadows it *)
  aliases : (string * int) list;
  uses : (int, use) Hashtbl.t;
}

let fail env ~loc fmt =
  Location.raise_errorf ~loc ("%%%s %s: " ^^ fmt) (extension_name env.form) env.kname

let use env k =
  match Hashtbl.find_opt env.uses k with
  | Some u -> u
  | None ->
    let u = { points = []; table = false; written = false } in
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
          (* [b_k + c], element component [c]. *)
          let comp c = [%expr Stdlib.( + ) [%e evar ~loc (base k)] [%e c]] in
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
          | Elements, "get", [ c ] -> [%expr Stdlib.Array.get [%e d] [%e comp c]]
          | Elements, "set", [ c; v ] ->
            u.written <- true;
            [%expr Stdlib.Array.set [%e d] [%e comp c] [%e v]]
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

(* Per-argument locals of the element walker. *)
let dataset k = Printf.sprintf "__kernel_g%d" k
let map k = Printf.sprintf "__kernel_m%d" k
let indirect k = Printf.sprintf "__kernel_i%d" k
let arity k = Printf.sprintf "__kernel_r%d" k
let slot k = Printf.sprintf "__kernel_x%d" k
let dim k = Printf.sprintf "__kernel_w%d" k
let stride k = Printf.sprintf "__kernel_v%d" k
let inc k = Printf.sprintf "__kernel_n%d" k
let target k = Printf.sprintf "__kernel_u%d" k

(* The element walker around the rewritten [body].  Per call it loads each
   used argument's addressing: the array the body sees ([data k]: the
   dataset in place, else the frame's buffer), the dataset, the map, and
   whether the argument is a staged Inc.  Per element it computes each
   used argument's target element ([target k]) and base — [stride k] is 0
   for a buffer — and, when the loop stages an Inc, zeroes the scratches
   before the body and adds them back after it, in argument order.  Those
   two steps are inlined for the arguments the body writes; when the loop
   stages an Inc the body never writes (its scratch stays zero, but adding
   it still turns a -0.0 into +0.0), [Acc.zero_incs] and [Acc.add_incs]
   take both steps for every staged Inc instead, so the order stays the
   argument order. *)
let elems_form ~loc env body =
  let ks = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) env.uses []) in
  let written = List.filter (fun k -> (Hashtbl.find env.uses k).written) ks in
  let pvar name = Ast_builder.Default.pvar ~loc name in
  let ev k f = evar ~loc (f k) in
  let seq = List.fold_right (fun x acc -> [%expr [%e x]; [%e acc]]) in
  let zero k =
    [%expr
      if [%e ev k inc] then
        for __kernel_c = 0 to Stdlib.( - ) [%e ev k dim] 1 do
          Stdlib.Array.set [%e ev k data] __kernel_c 0.0
        done]
  in
  let add_back k =
    [%expr
      if [%e ev k inc] then begin
        let __kernel_b = Stdlib.( * ) [%e ev k target] [%e ev k dim] in
        for __kernel_c = 0 to Stdlib.( - ) [%e ev k dim] 1 do
          let __kernel_j = Stdlib.( + ) __kernel_b __kernel_c in
          Stdlib.Array.set [%e ev k dataset] __kernel_j
            (Stdlib.( +. )
               (Stdlib.Array.get [%e ev k dataset] __kernel_j)
               (Stdlib.Array.get [%e ev k data] __kernel_c))
        done
      end]
  in
  let staged step ~all ~each =
    [%expr
      if __kernel_staging then
        if __kernel_generic then [%e all] else [%e seq (List.map step each) [%expr ()]]]
  in
  let element =
    List.fold_right
      (fun k acc ->
        [%expr
          let [%p pvar (target k)] =
            if [%e ev k indirect] then
              Stdlib.Array.get [%e ev k map]
                (Stdlib.( + ) (Stdlib.( * ) __kernel_e [%e ev k arity]) [%e ev k slot])
            else __kernel_e
          in
          let [%p pvar (base k)] = Stdlib.( * ) [%e ev k target] [%e ev k stride] in
          [%e acc]])
      ks
      (seq
         [ staged zero ~all:[%expr Am_core.Acc.zero_incs __kernel_walk] ~each:written; body ]
         (staged add_back ~all:[%expr Am_core.Acc.add_incs __kernel_walk __kernel_e] ~each:written))
  in
  let loop =
    [%expr for __kernel_e = __kernel_lo to Stdlib.( - ) __kernel_hi 1 do [%e element] done]
  in
  let hoisted =
    List.fold_right
      (fun k acc ->
        let ek = Ast_builder.Default.eint ~loc k in
        let acc =
          if not (List.mem k written) then acc
          else
            [%expr
              let [%p pvar (inc k)] =
                Stdlib.( && ) (Stdlib.not __kernel_p)
                  (Stdlib.( > ) (Stdlib.Array.length [%e ev k dataset]) 0)
              in
              [%e acc]]
        in
        [%expr
          let __kernel_t = Stdlib.Array.get __kernel_addrs [%e ek] in
          let __kernel_z = Stdlib.Array.get __kernel_bufs [%e ek] in
          let __kernel_p = Stdlib.( = ) (Stdlib.Array.length __kernel_z) 0 in
          let [%p pvar (dataset k)] = __kernel_t.Am_core.Acc.adata in
          let [%p pvar (data k)] = if __kernel_p then [%e ev k dataset] else __kernel_z in
          let [%p pvar (map k)] = __kernel_t.Am_core.Acc.amap in
          let [%p pvar (indirect k)] = Stdlib.( > ) (Stdlib.Array.length [%e ev k map]) 0 in
          let [%p pvar (arity k)] = __kernel_t.Am_core.Acc.arity in
          let [%p pvar (slot k)] = __kernel_t.Am_core.Acc.idx in
          let [%p pvar (dim k)] = __kernel_t.Am_core.Acc.adim in
          let [%p pvar (stride k)] = if __kernel_p then [%e ev k dim] else 0 in
          [%e acc]])
      ks loop
  in
  (* Is some staged Inc not one the body writes? *)
  let others =
    Ast_builder.Default.pexp_match ~loc [%expr Stdlib.Array.get __kernel_incs __kernel_s]
      (List.map
         (fun k ->
           Ast_builder.Default.case ~lhs:(Ast_builder.Default.pint ~loc k) ~guard:None
             ~rhs:[%expr ()])
         written
      @ [ Ast_builder.Default.case ~lhs:[%pat? _] ~guard:None ~rhs:[%expr __kernel_g := true] ])
  in
  [%expr
    fun (__kernel_walk : Am_core.Acc.walk) (__kernel_lo : int) (__kernel_hi : int) ->
      if Stdlib.( < ) __kernel_lo __kernel_hi then begin
        let __kernel_addrs = __kernel_walk.Am_core.Acc.addrs in
        let __kernel_bufs = __kernel_walk.Am_core.Acc.bufs in
        let __kernel_incs = __kernel_walk.Am_core.Acc.incs in
        let __kernel_staging = Stdlib.( > ) (Stdlib.Array.length __kernel_incs) 0 in
        let __kernel_generic =
          let __kernel_g = Stdlib.ref false in
          for __kernel_s = 0 to Stdlib.( - ) (Stdlib.Array.length __kernel_incs) 1 do
            [%e others]
          done;
          Stdlib.( ! ) __kernel_g
        in
        [%e hoisted]
      end]

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
  let env = { form; kname; param = Some param; aliases = []; uses = Hashtbl.create 8 } in
  let body = rewrite#expression env body in
  let point = vb.pvb_expr in
  let value =
    match form with
    | Rows -> [%expr { Am_core.Acc.point = [%e point]; row = [%e row_form ~loc env body] }]
    | Elements ->
      [%expr { Am_core.Acc.elem = [%e point]; elems = Some [%e elems_form ~loc env body] }]
  in
  Ast_builder.Default.pstr_value ~loc Nonrecursive [ { vb with pvb_expr = value } ]

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

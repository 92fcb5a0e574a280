(* [let%kernel]: generated row walkers for structured-mesh accessor kernels.

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

   Indexing stays [Array.get]/[Array.set], bounds-checked, and each point
   evaluates the same floating-point operations in the same order as the
   point form.  Any other use of an accessor — passed to a function,
   returned or stored, indexed by a non-literal argument number — and a
   parameter other than [(a : Acc.t array)] are errors located at the
   offending expression; the row form never falls back to per-point calls
   inside itself. *)

open Ppxlib

let vocabulary = [ ("get", 2); ("set", 2); ("gbl", 2); ("set_gbl", 3) ]

(* The accessors one kernel uses: per argument number, the literal stencil
   points it reads or writes at (the centre, 0, for [set]/[gbl]/[set_gbl])
   and whether a computed point reads its offset table. *)
type use = { mutable points : int list; mutable table : bool }

type env = {
  kname : string;
  param : string option; (* [None] once a binder shadows it *)
  aliases : (string * int) list;
  uses : (int, use) Hashtbl.t;
}

let fail env ~loc fmt = Location.raise_errorf ~loc ("%%kernel %s: " ^^ fmt) env.kname

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
    "an accessor is returned or stored; accessors may only be read and written through \
     get, set, gbl and set_gbl"

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

(* The body of the row form: every accessor use rewritten to indexing on
   the hoisted locals, binders respecting scope. *)
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
          when List.assoc_opt f vocabulary = Some (List.length args)
               && List.for_all (fun (l, _) -> l = Nolabel) rest
               && accessor env x <> None -> (
          let k = Option.get (accessor env x) in
          let u = use env k in
          let centre () =
            if not (List.mem 0 u.points) then u.points <- 0 :: u.points;
            evar ~loc (point k 0)
          in
          let d = evar ~loc (data k) in
          match (f, List.map (fun (_, a) -> self#expression env a) rest) with
          | "get", [ p ] -> (
            match literal_int p with
            | Some p when p >= 0 ->
              if not (List.mem p u.points) then u.points <- p :: u.points;
              [%expr Stdlib.Array.get [%e d] [%e at ~loc k (evar ~loc (point k p))]]
            | Some _ | None ->
              u.table <- true;
              [%expr
                Stdlib.Array.get [%e d]
                  [%e at ~loc k [%expr Stdlib.Array.get [%e evar ~loc (offs k)] [%e p]]]])
          | "set", [ v ] -> [%expr Stdlib.Array.set [%e d] [%e at ~loc k (centre ())] [%e v]]
          | "gbl", [ c ] ->
            [%expr
              Stdlib.Array.get [%e d] (Stdlib.( + ) [%e at ~loc k (centre ())] [%e c])]
          | "set_gbl", [ c; v ] ->
            [%expr
              Stdlib.Array.set [%e d] (Stdlib.( + ) [%e at ~loc k (centre ())] [%e c]) [%e v]]
          | _ -> assert false)
        | Pexp_apply (_, args) ->
          List.iter
            (fun (_, a) ->
              if accessor env a <> None || is_param env a then
                fail env ~loc:a.pexp_loc
                  "an accessor is passed to a function; only get, set, gbl and set_gbl \
                   may take one")
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

let is_acc_array ty =
  match ty.ptyp_desc with
  | Ptyp_constr
      ( { txt = Lident "array"; _ },
        [ { ptyp_desc = Ptyp_constr ({ txt = Ldot (path, "t"); _ }, []); _ } ] ) -> (
    match path with Lident "Acc" | Ldot (_, "Acc") -> true | _ -> false)
  | _ -> false

(* [let%kernel name (a : Acc.t array) = body] as one value binding. *)
let expand_binding ~loc vb =
  let kname =
    match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt; _ } -> txt
    | _ -> Location.raise_errorf ~loc:vb.pvb_pat.ppat_loc "%%kernel: bind a plain name"
  in
  let bad () =
    Location.raise_errorf ~loc:vb.pvb_expr.pexp_loc
      "%%kernel %s: the kernel must take one parameter (a : Acc.t array)" kname
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
  let env = { kname; param = Some param; aliases = []; uses = Hashtbl.create 8 } in
  let row = row_form ~loc env (rewrite#expression env body) in
  let point = vb.pvb_expr in
  let value = [%expr { Am_core.Acc.point = [%e point]; row = [%e row] }] in
  Ast_builder.Default.pstr_value ~loc Nonrecursive [ { vb with pvb_expr = value } ]

let expand_item item =
  match item.pstr_desc with
  | Pstr_value (Nonrecursive, [ vb ]) -> expand_binding ~loc:item.pstr_loc vb
  | _ ->
    Location.raise_errorf ~loc:item.pstr_loc
      "%%kernel: expected let%%kernel name (a : Acc.t array) = body"

let extension =
  Extension.V3.declare "kernel" Extension.Context.structure_item
    Ast_pattern.(pstr (__ ^:: nil))
    (fun ~ctxt:_ item -> expand_item item)

(* Expand every [let%kernel] of a structure: the rewriter as a function,
   for tests. *)
let rewrite_structure =
  let mapper =
    object
      inherit Ast_traverse.map as super

      method! structure_item item =
        match item.pstr_desc with
        | Pstr_extension (({ txt = "kernel"; _ }, PStr [ inner ]), _) -> expand_item inner
        | _ -> super#structure_item item
    end
  in
  mapper#structure

let () =
  Driver.register_transformation "kernel" ~rules:[ Context_free.Rule.extension extension ]

(* The [let%kernel] and [let%elem_kernel] rewriter (lib/ppx_kernel) run on
   source strings: what it expands, and what it refuses with an error
   located at the offending expression and naming the kernel. *)

open Ppxlib

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let parse src = Parse.implementation (Lexing.from_string src)
let expand src = Ppx_kernel.rewrite_structure (parse src)

(* The point form and the walkers of the one kernel [src] defines. *)
let forms src =
  match expand src with
  | [ { pstr_desc = Pstr_value (_, [ { pvb_expr; _ } ]); _ } ] -> (
    match pvb_expr.pexp_desc with
    | Pexp_record ([ (_, point); (_, row) ], None) ->
      (Pprintast.string_of_expression point, Pprintast.string_of_expression row)
    | _ -> Alcotest.fail "expansion is not a kernel record")
  | _ -> Alcotest.fail "expansion is not one value binding"

(* The function [src] binds, printed: the point form must be exactly it. *)
let written src =
  match parse src with
  | [ { pstr_desc = Pstr_extension ((_, PStr [ { pstr_desc = Pstr_value (_, [ vb ]); _ } ]), _); _ } ]
    ->
    Pprintast.string_of_expression vb.pvb_expr
  | _ -> Alcotest.fail "not one let%kernel"

(* [s] with every run of blanks and newlines as one space, so expected
   fragments do not depend on where the printer breaks lines. *)
let squash s =
  String.map (function '\n' -> ' ' | c -> c) s
  |> String.split_on_char ' '
  |> List.filter (( <> ) "")
  |> String.concat " "

let expands ~name src ~row_has ~row_lacks =
  let point, walker = forms src in
  let walker = squash walker in
  Alcotest.(check string) (name ^ ": point form as written") (written src) point;
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "%s: walker has %S" name s) true (contains walker s))
    row_has;
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "%s: walker lacks %S" name s) false
        (contains walker s))
    row_lacks

(* The range walker of a structured kernel: one index per layout label
   ([i_l]) computed per point from the label's row start, literal stencil
   points through one offset local per (label, point) off the centre,
   computed points through the argument's offset table ([o_k]), globals
   through locals loaded once ([u_k_c]), an Inc/Min/Max global's stored
   back after the box. *)
let test_expands () =
  (* A computed stencil point, as in advec_flux, mom_flux and van Leer:
     read through the argument's offset table; the literal centre is the
     label's index itself. *)
  expands ~name:"donor"
    {|let%kernel donor (a : Acc.t array) =
  let vf = get a.(0) 0 in
  let d = a.(1) in
  let donor = if vf > 0.0 then 0 else 1 in
  set a.(2) (vf *. get d donor)
[@@args face [(0,0)] 1 Read, cell [(-1,0); (0,0)] 1 Read, face [(0,0)] 1 Write]|}
    ~row_has:
      [
        "Stdlib.Array.get __kernel_d1 (Stdlib.(+) __kernel_i_cell (Stdlib.Array.get __kernel_o1 donor))";
        "let __kernel_o1 = (Stdlib.Array.get __kernel_p 1).Am_core.Acc.poff";
        "Stdlib.Array.get __kernel_d0 __kernel_i_face";
        "Stdlib.Array.set __kernel_d2 __kernel_i_face";
        "let __kernel_i_cell = Stdlib.(+) __kernel_r_cell __kernel_x";
        "stencil = [|((-1), 0, 0);(0, 0, 0)|]";
      ]
    ~row_lacks:[ "a.("; "get d "; "let d ="; "__kernel_o0 "; "__kernel_o_cell" ];
  (* let-aliases, in one [let ... and ...] and chained; two arguments of
     one label share one offset local per point. *)
  expands ~name:"aliases"
    {|let%kernel alias (a : Acc.t array) =
  let xv = a.(0) and yv = a.(1) in
  let y2 = yv in
  let u = get xv 1 +. get y2 3 +. get xv 3 in
  set a.(2) u
[@@args n [(0,0); (1,0); (0,1); (1,1)] 1 Read, n [(0,0); (1,0); (0,1); (1,1)] 1 Read,
  c [(0,0)] 1 Write]|}
    ~row_has:
      [
        "let __kernel_o_n_1 = 1";
        "let __kernel_o_n_1_1 = Stdlib.(+) __kernel_row_n 1";
        "Stdlib.Array.get __kernel_d1 (Stdlib.(+) __kernel_i_n __kernel_o_n_1_1)";
        "let u";
      ]
    ~row_lacks:[ "a.("; "xv"; "y2"; "__kernel_o_n_0_1" ];
  (* gbl and set_gbl on globals: a Read global's literal component is
     loaded once, a Min global's lives in a float local stored after the
     box, an Inc global named by a computed component stays in its
     buffer. *)
  expands ~name:"globals"
    {|let%kernel sums (a : Acc.t array) =
  let s = a.(1) in
  set_gbl s 0 (gbl s 0 +. get a.(0) 0);
  for c = 1 to 1 do set_gbl s c (gbl s c *. gbl a.(3) 0) done;
  set_gbl a.(2) 0 (Float.min (gbl a.(2) 0) (gbl a.(3) 0))
[@@args c [(0,0)] 1 Read, gbl 2 Inc, gbl 1 Min, gbl 1 Read]|}
    ~row_has:
      [
        "let __kernel_u3_0 = Stdlib.Array.get __kernel_z3 0";
        "let __kernel_u2_0 = Stdlib.ref (Stdlib.Array.get __kernel_z2 0)";
        "Stdlib.Array.set __kernel_z2 0 (Stdlib.(!) __kernel_u2_0)";
        "Stdlib.Array.set __kernel_z1 c";
        "Stdlib.Array.set __kernel_z1 0";
      ]
    ~row_lacks:[ "a.("; "gbl s"; "gbl a"; "__kernel_u1_"; "Stdlib.Array.set __kernel_z3" ];
  (* A binder shadowing an alias ends it; a dim-2 dataset's component is
     read at point 0 with gbl, the column stride being the dim. *)
  expands ~name:"shadowed"
    {|let%kernel shadow (a : Acc.t array) =
  let x = a.(0) in
  let f x = x +. 1.0 in
  set_gbl a.(1) 1 (f (gbl x 1))
[@@args v [(0,0)] 2 Read, w [(0,0)] 2 Write]|}
    ~row_has:
      [
        "let f x = x +. 1.0";
        "Stdlib.Array.get __kernel_d0 (Stdlib.(+) __kernel_i_v 1)";
        "Stdlib.( * ) __kernel_x 2";
      ]
    ~row_lacks:[ "a.(" ];
  (* One walker per [@@args] variant, over one body. *)
  expands ~name:"variants"
    {|let%kernel sweep (a : Acc.t array) = set a.(1) (get a.(0) 0 -. get a.(0) 1)
[@@args c [(0,0); (1,0)] 1 Read, c [(0,0)] 1 Write]
[@@args c [(0,0); (0,1)] 1 Read, c [(0,0)] 1 Write]|}
    ~row_has:[ "let __kernel_o_c_1 = 1"; "let __kernel_o_c_0_1 = __kernel_row_c" ]
    ~row_lacks:[ "a.("; "[@@args" ]

(* The element walker of an OP2 kernel: components literal or computed,
   read and written in place at [d_k.(b_k + c)], with [b_k] computed per
   element from the declared dim and the map ([m_k], declared arity and
   slot) or the element number.  An Inc used with a computed component
   goes through the worker's scratch ([z_k]), zeroed before the body and
   added back after it; one used only with literal components, and a
   global Inc, through float locals ([u_k_c]). *)
let test_elem_expands () =
  expands ~name:"flux"
    {|let%elem_kernel flux (a : Acc.t array) =
  let q = a.(0) and r = a.(1) in
  for n = 0 to 3 do
    set r n (get q n)
  done;
  set r 0 (get q 2 +. get a.(2) 0)
[@@args q 4 Read, r (m 2 1) 4 Inc, s (m 2 0) 1 Read]|}
    ~row_has:
      [
        "Stdlib.Array.get __kernel_d0 (Stdlib.(+) __kernel_b0 n)";
        "Stdlib.Array.set __kernel_z1 n";
        "Stdlib.Array.get __kernel_d0 (Stdlib.(+) __kernel_b0 2)";
        "Stdlib.Array.get __kernel_d2 (Stdlib.(+) __kernel_b2 0)";
        "Stdlib.Array.set __kernel_z1 3 0.0";
        "Stdlib.Array.get __kernel_z1 3";
        "Stdlib.Array.get __kernel_m1";
        "let __kernel_b0 = Stdlib.( * ) __kernel_e 4";
      ]
    ~row_lacks:[ "a.("; "get q"; "set r"; "let q"; "__kernel_u1"; "Acc.adim" ];
  expands ~name:"locals"
    {|let%elem_kernel locals (a : Acc.t array) =
  let r = a.(0) and g = a.(1) in
  set r 1 (get r 1 +. 2.0);
  set g 0 (get g 0 +. 1.0)
[@@args r (m 2 0) 2 Inc, gbl 1 Inc]|}
    ~row_has:
      [
        "let __kernel_u0_1 = Stdlib.ref 0.0";
        "(Stdlib.Array.get __kernel_d0 __kernel_j) 0.0";
        "(Stdlib.Array.get __kernel_d0 __kernel_j) (Stdlib.(!) __kernel_u0_1)";
        "let __kernel_j = Stdlib.(+) __kernel_b0 1";
        "let __kernel_u1_0 = Stdlib.ref (Stdlib.Array.get __kernel_z1 0)";
        "Stdlib.Array.set __kernel_z1 0 (Stdlib.(!) __kernel_u1_0)";
      ]
    ~row_lacks:[ "__kernel_z0"; "__kernel_u0_0" ]

let count s sub =
  let n = String.length s and m = String.length sub in
  let rec from i acc =
    if i + m > n then acc else from (i + 1) (if String.sub s i m = sub then acc + 1 else acc)
  in
  from 0 0

(* Airfoil's res_calc, expanded from lib/apps_airfoil/kernels.ml: the
   walker reads only arrays at run time (one dataset per label, one map
   per map label), no dim, arity or slot, and loads each of its four
   (map, slot) pairs once per element; its two Incs take float locals. *)
let test_res_calc () =
  let path =
    Filename.concat (Filename.dirname Sys.executable_name) "../lib/apps_airfoil/kernels.ml"
  in
  let src = In_channel.with_open_text path In_channel.input_all in
  let walker =
    List.find_map
      (function
        | { pstr_desc = Pstr_value (_, [ { pvb_pat; pvb_expr; _ } ]); _ } -> (
          match (pvb_pat.ppat_desc, pvb_expr.pexp_desc) with
          | Ppat_var { txt = "res_calc_acc"; _ }, Pexp_record ([ _; (_, walker) ], None) ->
            Some (Pprintast.string_of_expression walker)
          | _ -> None)
        | _ -> None)
      (expand src)
    |> Option.get
  in
  let elems =
    let rec at i = if String.sub walker i 7 = "elems =" then i + 7 else at (i + 1) in
    let i = at 0 in
    String.sub walker i (String.length walker - i)
  in
  List.iter
    (fun (what, sub, n) ->
      Alcotest.(check int) (Printf.sprintf "res_calc: %s (%S)" what sub) n (count elems sub))
    [
      ("no signature field read", "signature", 0);
      ("no dim read", "dim", 0);
      ("no arity read", "arity", 0);
      ("no slot read", "slot", 0);
      ("one map load per (map, slot)", "Stdlib.Array.get __kernel_m", 4);
      ("one map per map label", "Am_core.Acc.amap", 2);
      ("one dataset per label", "Am_core.Acc.adata", 4);
      ("no scratch", "__kernel_z", 0);
      ("constant arity", "Stdlib.( * ) __kernel_e 2", 4);
      ("the Incs' float locals", "Stdlib.ref 0.0", 8);
    ]

(* CloverLeaf's PdV, expanded from lib/apps_cloverleaf/kernels.ml: one
   index per layout label (node and cell), one local per non-centre quad
   point of the node label, shared by its four arguments, the four consts
   loaded before the loops, and no per-argument base. *)
let test_pdv () =
  let path =
    Filename.concat (Filename.dirname Sys.executable_name) "../lib/apps_cloverleaf/kernels.ml"
  in
  let src = In_channel.with_open_text path In_channel.input_all in
  let walkers =
    List.find_map
      (function
        | { pstr_desc = Pstr_value (_, [ { pvb_pat; pvb_expr; _ } ]); _ } -> (
          match (pvb_pat.ppat_desc, pvb_expr.pexp_desc) with
          | Ppat_var { txt = "pdv_acc"; _ }, Pexp_record ([ _; (_, walkers) ], None) ->
            Some (squash (Pprintast.string_of_expression walkers))
          | _ -> None)
        | _ -> None)
      (expand src)
    |> Option.get
  in
  let loops =
    let rec at i = if String.sub walkers i 4 = "for " then i else at (i + 1) in
    at 0
  in
  let before = String.sub walkers 0 loops in
  List.iter
    (fun (what, sub, n) ->
      Alcotest.(check int) (Printf.sprintf "pdv: %s (%S)" what sub) n (count walkers sub))
    [
      ("one walker", "Am_core.Acc.kname", 1);
      ("two layout indices", "let __kernel_i_", 2);
      ("three non-centre offset locals", "let __kernel_o_", 3);
      ("no offset table", "Am_core.Acc.poff", 0);
      ("one base per label", "Am_core.Acc.pbase", 2);
    ];
  Alcotest.(check int) "pdv: no per-argument base (__kernel_b<k>)" 0
    (count walkers "__kernel_b" - count walkers "__kernel_base_");
  Alcotest.(check int) "pdv: four global loads outside the loops" 4
    (count before "Stdlib.Array.get __kernel_z10");
  Alcotest.(check int) "pdv: the consts buffer is not named inside the loops"
    (count before "__kernel_z10") (count walkers "__kernel_z10")

(* PdV's native walker, compiled to C from lib/apps_cloverleaf/kernels.ml
   by the generator's own function: one index per layout label, one
   offset local per (label, literal point) off the centre, the per-call
   proof before the loops (the places' length, each label's layout, each
   dataset's reach, the consts' length), the four consts loaded once and
   never named inside the loops, and no check inside them.  calc_dt's Min
   global lives in a local folded per point and stored after the box. *)
let test_pdv_c () =
  let path =
    Filename.concat (Filename.dirname Sys.executable_name) "../lib/apps_cloverleaf/kernels.ml"
  in
  let lexbuf = Lexing.from_string (In_channel.with_open_text path In_channel.input_all) in
  Lexing.set_filename lexbuf "kernels.ml";
  let walkers = Ppx_kernel.walkers_c (Parse.implementation lexbuf) in
  let c name = List.assoc ("am_walk_kernels_" ^ name) walkers in
  let pdv = c "pdv_acc_0" in
  let at s sub =
    let n = String.length s and m = String.length sub in
    let rec from i =
      if i + m > n then Alcotest.failf "no %S" sub
      else if String.sub s i m = sub then i
      else from (i + 1)
    in
    from 0
  in
  let loops = at pdv "for (intnat kernel_z" in
  let before = String.sub pdv 0 loops
  and inside = String.sub pdv loops (String.length pdv - loops) in
  List.iter
    (fun (what, s, sub, n) ->
      Alcotest.(check int) (Printf.sprintf "pdv C: %s (%S)" what sub) n (count s sub))
    [
      ("one index per label", inside, "const intnat kernel_i_", 2);
      ("node index", inside, "const intnat kernel_i_node = kernel_r_node + kernel_x;", 1);
      ("three offset locals", before, "intnat kernel_o_node_", 3);
      ( "offset (1, 1)",
        before,
        "am_offset(kernel_plane_node, kernel_row_node, 1, 1, 1, 0, &kernel_o_node_1_1)",
        1 );
      ("the places' length", before, "if (Wosize_val(am_places) != 11) return 1;", 1);
      ("one layout per label", before, "am_layout(am_places, ", 2);
      ("each node dataset's reach", before, "am_outside(am_lo_node, am_hi_node, ", 16);
      ("each cell dataset's reach", before, "am_outside(am_lo_cell, am_hi_cell, 0, 0, kernel_n", 6);
      ( "xvel1's (1, 1) point",
        before,
        "am_outside(am_lo_node, am_hi_node, kernel_o_node_1_1, 0, kernel_n2)) return 35;",
        1 );
      ("the consts' length", before, "if (kernel_nz10 < 4) return 165;", 1);
      ("the consts loaded once", before, "const double kernel_u10_", 4);
      ("the consts not named in the loops", inside, "kernel_z10", 0);
      ("no check in the loops", inside, "AM_AT(", 0);
      ("no proof in the loops", inside, "am_outside", 0);
      ("an offset local read", inside, "kernel_d0[(kernel_i_node + kernel_o_node_1_1)]", 1);
      ( "density1 written",
        inside,
        "kernel_d8[kernel_i_cell] = (v_density0_1 * v_volume_change_14);",
        1 );
    ];
  let calc_dt = c "calc_dt_acc_0" in
  let loops = at calc_dt "for (intnat kernel_z" in
  let stored = at calc_dt "kernel_z6[0] = kernel_u6_0;" in
  Alcotest.(check bool) "calc_dt C: the Min global loaded before the box" true
    (at calc_dt "double kernel_u6_0 = kernel_z6[0];" < loops);
  Alcotest.(check bool) "calc_dt C: folded with OCaml's Float.min" true
    (at calc_dt "kernel_u6_0 = am_fmin(kernel_u6_0, " > loops);
  Alcotest.(check bool) "calc_dt C: stored after the box" true
    (stored > at calc_dt "kernel_u6_0 = am_fmin(kernel_u6_0, "
    && count (String.sub calc_dt stored (String.length calc_dt - stored)) "kernel_x" = 0)

(* Airfoil's native element walkers, compiled to C from
   lib/apps_airfoil/kernels.ml by the generator's own function.  res_calc:
   the per-call proof before the element loop (the walk's lengths, lo,
   each map table's length), each of its four (map label, slot) targets
   loaded once per element and checked once against the smallest element
   count among the datasets it reaches, no check on a component, the two
   Incs in float locals added back after the body.  update: its for loop
   over components 0 to 3 needs no check, and the rms global lives in a
   local stored after the loop.  bres_calc: the free stream [qinf] read by
   literal indices proved once per call, the boundary kind through
   [Float.to_int]. *)
let test_airfoil_c () =
  let path =
    Filename.concat (Filename.dirname Sys.executable_name) "../lib/apps_airfoil/kernels.ml"
  in
  let lexbuf = Lexing.from_string (In_channel.with_open_text path In_channel.input_all) in
  Lexing.set_filename lexbuf "kernels.ml";
  let walkers = Ppx_kernel.walkers_c (Parse.implementation lexbuf) in
  Alcotest.(check int) "five element walkers" 5 (List.length walkers);
  let split name =
    let c = List.assoc ("am_elems_kernels_" ^ name) walkers in
    let n = String.length c and m = String.length "for (intnat kernel_e" in
    let rec from i =
      if i + m > n then Alcotest.failf "%s: no element loop" name
      else if String.sub c i m = "for (intnat kernel_e" then i
      else from (i + 1)
    in
    let loop = from 0 in
    (String.sub c 0 loop, String.sub c loop (n - loop))
  in
  let checks name cases =
    let before, inside = split name in
    List.iter
      (fun (what, where, sub, n) ->
        let s = if where = `Before then before else inside in
        Alcotest.(check int) (Printf.sprintf "%s C: %s (%S)" name what sub) n (count s sub))
      cases
  in
  checks "res_calc_acc"
    [
      ( "the walk's lengths",
        `Before,
        "if (Wosize_val(am_addrs) != 8 || Wosize_val(am_bufs) != 8)",
        1 );
      ("lo", `Before, "if (am_lo < 0) return 9;", 1);
      ("one table per map label", `Before, "= am_amap(am_addrs, ", 2);
      ("each table covers the range", `Before, "if (am_short(am_amap_length(am_addrs, ", 2);
      ("one dataset per label", `Before, "= am_adata(am_addrs, ", 4);
      ("one map load per (map label, slot)", `Inside, "Long_val(kernel_m", 4);
      ("edge_nodes slot 0", `Inside, "kernel_t0 = Long_val(kernel_m0[kernel_e * 2]);", 1);
      ("edge_cells slot 1", `Inside, "kernel_t3 = Long_val(kernel_m2[kernel_e * 2 + 1]);", 1);
      ("one check per target", `Inside, "if ((uintnat) kernel_t", 4);
      ("q, adt and res reached by edge_cells slot 0", `Before, "if (kernel_n6 / 4 < am_c2)", 1);
      ("no component check", `Inside, "AM_AT(", 0);
      ("no scratch", `Inside, "kernel_z", 0);
      ("the Incs' float locals", `Inside, " = 0.0;", 8);
      ( "res added back",
        `Inside,
        "kernel_d6[kernel_b7 + 3] = kernel_d6[kernel_b7 + 3] + kernel_u7_3;",
        1 );
    ];
  checks "update_acc"
    [
      ("the rms local", `Before, "double kernel_u4_0 = kernel_z4[0];", 1);
      ("no component check", `Inside, "AM_AT(", 0);
      ("components by the loop index", `Inside, "kernel_d2[(kernel_b2 + v_n_", 2);
      ("rms stored after the loop", `Inside, "  kernel_z4[0] = kernel_u4_0;", 1);
    ];
  checks "bres_calc_acc"
    [
      ("qinf's literal indices proved", `Before, "if (k_qinf_n <= 3) return 14;", 1);
      ("qinf read by index", `Inside, "k_qinf_d[((intnat) 3L)]", 3);
      ("Float.to_int", `Inside, "AM_I63(((intnat) v_to_int_", 1);
    ]

(* [src] must fail to expand with an error on [line] naming the kernel
   and saying [what]. *)
let refuses ?(ext = "kernel") ~name ~line ~what src =
  match expand src with
  | _ -> Alcotest.failf "%s: expanded" name
  | exception exn -> (
    match Location.Error.of_exn exn with
    | None -> raise exn
    | Some err ->
      let msg = Location.Error.message err in
      let loc = Location.Error.get_location err in
      Alcotest.(check bool) (Printf.sprintf "%s: names the kernel (%s)" name msg) true
        (contains msg ("%" ^ ext ^ " " ^ name ^ ":"));
      Alcotest.(check bool) (Printf.sprintf "%s: says %S (%s)" name what msg) true
        (contains msg what);
      Alcotest.(check int) (name ^ ": located") line loc.loc_start.pos_lnum)

let test_refuses () =
  refuses ~name:"pass" ~line:3 ~what:"passed to a function"
    {|let%kernel pass (a : Acc.t array) =
  let p = a.(0) in
  set a.(1) (diff p 2.0)
[@@args c [(0,0)] 1 Read, c [(0,0)] 1 Write]|};
  refuses ~name:"partial" ~line:2 ~what:"passed to a function"
    {|let%kernel partial (a : Acc.t array) =
  let g = get a.(0) in
  set a.(1) (g 0)
[@@args c [(0,0)] 1 Read, c [(0,0)] 1 Write]|};
  refuses ~name:"index" ~line:3 ~what:"literal argument number"
    {|let%kernel index (a : Acc.t array) =
  let i = 1 in
  set a.(i) 0.0
[@@args c [(0,0)] 1 Read, c [(0,0)] 1 Write]|};
  refuses ~name:"return" ~line:3 ~what:"returned or stored"
    {|let%kernel return (a : Acc.t array) =
  let x = a.(0) in
  x
[@@args c [(0,0)] 1 Read]|};
  refuses ~name:"store" ~line:2 ~what:"returned or stored"
    {|let%kernel store (a : Acc.t array) =
  cell.contents <- a.(0)
[@@args c [(0,0)] 1 Read]|};
  refuses ~name:"pair" ~line:2 ~what:"returned or stored"
    {|let%kernel pair (a : Acc.t array) =
  let p = (a.(0), 1) in
  set a.(1) (get (fst p) 0)
[@@args c [(0,0)] 1 Read, c [(0,0)] 1 Write]|};
  List.iter
    (fun (name, src) ->
      refuses ~name ~line:1 ~what:"one parameter (a : Acc.t array)" src)
    [
      ("untyped", {|let%kernel untyped a = set a.(0) 1.0 [@@args c [(0,0)] 1 Write]|});
      ( "floats",
        {|let%kernel floats (a : float array array) = set a.(0) 1.0 [@@args c [(0,0)] 1 Write]|} );
      ( "two",
        {|let%kernel two (a : Acc.t array) (b : int) = set a.(b) 1.0 [@@args c [(0,0)] 1 Write]|} );
    ]

(* What the native walker's vocabulary leaves out: each refusal names the
   kernel and is located at the expression. *)
let test_native_refuses () =
  refuses ~name:"unknown" ~line:2 ~what:"unknown function foo"
    {|let%kernel unknown (a : Acc.t array) =
  set a.(1) (foo (get a.(0) 0))
[@@args c [(0,0)] 1 Read, c [(0,0)] 1 Write]|};
  refuses ~name:"poly" ~line:3 ~what:"Stdlib.min is polymorphic compare; use Float.min"
    {|let%kernel poly (a : Acc.t array) =
  let x = get a.(0) 0 in
  set a.(1) (Stdlib.min x 1.0)
[@@args c [(0,0)] 1 Read, c [(0,0)] 1 Write]|};
  refuses ~name:"escape" ~line:3 ~what:"the ref r escapes"
    {|let%kernel escape (a : Acc.t array) =
  let r = ref (get a.(0) 0) in
  let s = r in
  set a.(1) !s
[@@args c [(0,0)] 1 Read, c [(0,0)] 1 Write]|};
  (* A helper above the kernel is inlined; an undefined one is unknown. *)
  ignore
    (expand
       {|let twice x = x +. x
let%kernel helped (a : Acc.t array) = set a.(1) (twice (get a.(0) 0))
[@@args c [(0,0)] 1 Read, c [(0,0)] 1 Write]|});
  refuses ~name:"later" ~line:1 ~what:"unknown function twice"
    {|let%kernel later (a : Acc.t array) = set a.(1) (twice (get a.(0) 0))
[@@args c [(0,0)] 1 Read, c [(0,0)] 1 Write]
let twice x = x +. x|}

let test_elem_refuses () =
  let refuses = refuses ~ext:"elem_kernel" in
  refuses ~name:"escape" ~line:3 ~what:"returned or stored"
    {|let%elem_kernel escape (a : Acc.t array) =
  let q = a.(0) in
  q
[@@args q 1 Read]|};
  (* Airfoil's face took its nodes' accessors; a helper must take floats. *)
  refuses ~name:"adt" ~line:3 ~what:"passed to a function; only get and set"
    {|let%elem_kernel adt (a : Acc.t array) =
  let x1 = a.(0) and x2 = a.(1) in
  set a.(2) 0 (face 1.0 2.0 0.5 x2 x1)
[@@args x 2 Read, x 2 Read, adt 1 Write]|};
  refuses ~name:"loop" ~line:3 ~what:"literal argument number"
    {|let%elem_kernel loop (a : Acc.t array) =
  for k = 0 to 3 do
    set a.(k) 0 0.0
  done
[@@args p 1 Write, q 1 Write, r 1 Write, s 1 Write]|};
  (* The structured vocabulary is not the element walker's. *)
  refuses ~name:"centre" ~line:2 ~what:"only get and set"
    {|let%elem_kernel centre (a : Acc.t array) =
  set a.(0) (gbl a.(1) 0)
[@@args p 1 Write, gbl 1 Read]|};
  refuses ~name:"floats" ~line:1 ~what:"one parameter (a : Acc.t array)"
    {|let%elem_kernel floats (a : float array array) = set a.(0) 0 1.0
[@@args p 1 Write]|}

(* What the native element walker's vocabulary leaves out: each refusal
   names the kernel and is located at the expression.  A helper above the
   kernel is inlined, but an accessor passed to it is refused. *)
let test_elem_native_refuses () =
  let refuses = refuses ~ext:"elem_kernel" in
  refuses ~name:"poly" ~line:3 ~what:"min is polymorphic compare; use Float.min"
    {|let%elem_kernel poly (a : Acc.t array) =
  let x = get a.(0) 0 in
  set a.(1) 0 (min x 1.0)
[@@args p 1 Read, q 1 Write]|};
  refuses ~name:"escape" ~line:3 ~what:"the ref r escapes"
    {|let%elem_kernel escape (a : Acc.t array) =
  let r = ref (get a.(0) 0) in
  let s = r in
  set a.(1) 0 !s
[@@args p 1 Read, q 1 Write]|};
  refuses ~name:"unknown" ~line:2 ~what:"unknown function foo"
    {|let%elem_kernel unknown (a : Acc.t array) =
  set a.(1) 0 (foo (get a.(0) 0))
[@@args p 1 Read, q 1 Write]|};
  refuses ~name:"helper" ~line:2 ~what:"an accessor is passed to a function"
    {|let twice x = x +. x
let%elem_kernel helper (a : Acc.t array) = set a.(1) 0 (twice a.(0))
[@@args p 1 Read, q 1 Write]|};
  refuses ~name:"local_array" ~line:3 ~what:"reads by index only a float array defined above"
    {|let qinf = [| 1.0; 2.0 |]
let%elem_kernel local_array (a : Acc.t array) = let q = qinf in
  set a.(0) 0 q.(1)
[@@args p 1 Write]|};
  (* What the element kernels need beyond the range vocabulary. *)
  ignore
    (expand
       {|let qinf = [| 1.0; 2.0 |]
let wall = 3
let%elem_kernel needs (a : Acc.t array) =
  let n = if Float.to_int (get a.(0) 0) = wall then 1 else 0 in
  for c = 0 to (2 * n) - 1 do
    set a.(1) c (get a.(1) c +. qinf.(n))
  done
[@@args p 1 Read, q 2 Inc]|})

(* What the declared signature adds: each refusal names the kernel and is
   located where the body or the signature breaks it. *)
let test_signature_refuses () =
  let refuses = refuses ~ext:"elem_kernel" in
  refuses ~name:"component" ~line:3 ~what:"component 2 is outside [0, 2)"
    {|let%elem_kernel component (a : Acc.t array) =
  set a.(0) 1 0.0;
  set a.(0) 2 0.0
[@@args r 2 Write]|};
  refuses ~name:"global_component" ~line:2 ~what:"component 1 is outside [0, 1)"
    {|let%elem_kernel global_component (a : Acc.t array) =
  set a.(0) 1 (get a.(0) 1 +. 1.0)
[@@args gbl 1 Inc]|};
  refuses ~name:"read" ~line:3 ~what:"set on argument 0, which the signature declares Read"
    {|let%elem_kernel read (a : Acc.t array) =
  let q = a.(0) in
  set q 0 (get q 0 +. 1.0)
[@@args q 1 Read]|};
  refuses ~name:"read_global" ~line:2 ~what:"set on argument 1, which the signature declares Read"
    {|let%elem_kernel read_global (a : Acc.t array) =
  set a.(1) 0 (get a.(0) 0)
[@@args p 1 Rw, gbl 1 Read]|};
  refuses ~name:"outside" ~line:3 ~what:"argument 2 is outside the signature"
    {|let%elem_kernel outside (a : Acc.t array) =
  set a.(1) 0 1.0;
  set a.(2) 0 1.0
[@@args p 1 Write, q 1 Write]|};
  refuses ~name:"missing" ~line:1 ~what:"missing its argument signature [@@args"
    {|let%elem_kernel missing (a : Acc.t array) = set a.(0) 0 1.0|};
  refuses ~name:"arities" ~line:4 ~what:"map label m is declared with arities 2 and 4"
    {|let%elem_kernel arities (a : Acc.t array) =
  set a.(1) 0 (get a.(0) 0)
[@@args p (m 2 0) 1 Read,
  q (m 4 1) 1 Write]|};
  refuses ~name:"dims" ~line:3 ~what:"dataset label p is declared with dims 1 and 2"
    {|let%elem_kernel dims (a : Acc.t array) =
  set a.(1) 0 (get a.(0) 0)
[@@args p 1 Read, p 2 Write]|};
  refuses ~name:"slot" ~line:3 ~what:"slot 2 is outside map m's arity 2"
    {|let%elem_kernel slot (a : Acc.t array) =
  set a.(0) 0 1.0
[@@args p (m 2 2) 1 Write]|};
  refuses ~name:"mode" ~line:3 ~what:"the access mode must be one of Read, Inc, Min, Max"
    {|let%elem_kernel mode (a : Acc.t array) =
  set a.(0) 0 1.0
[@@args gbl 1 Rw]|}

(* What a structured kernel's declared signatures rule out: each refusal
   names the kernel and is located where the body or a signature breaks
   it. *)
let test_grid_signature_refuses () =
  refuses ~name:"point" ~line:2 ~what:"stencil point 2 is outside argument 0's declared stencil of 2 points"
    {|let%kernel point (a : Acc.t array) =
  set a.(1) (get a.(0) 2)
[@@args c [(0,0); (1,0)] 1 Read, c [(0,0)] 1 Write]|};
  refuses ~name:"read" ~line:3 ~what:"set on argument 0, which the signature declares Read"
    {|let%kernel read (a : Acc.t array) =
  let q = a.(0) in
  set q (get q 0 +. 1.0)
[@@args c [(0,0)] 1 Read]|};
  refuses ~name:"read_global" ~line:2 ~what:"set on argument 1, which the signature declares Read"
    {|let%kernel read_global (a : Acc.t array) =
  set_gbl a.(1) 0 (get a.(0) 0)
[@@args c [(0,0)] 1 Rw, gbl 1 Read]|};
  refuses ~name:"component" ~line:2 ~what:"component 2 is outside [0, 2)"
    {|let%kernel component (a : Acc.t array) =
  set_gbl a.(0) 2 0.0
[@@args c [(0,0)] 2 Write]|};
  refuses ~name:"global_point" ~line:2 ~what:"get on argument 1, which the signature declares a global"
    {|let%kernel global_point (a : Acc.t array) =
  set a.(0) (get a.(1) 0)
[@@args c [(0,0)] 1 Write, gbl 1 Read]|};
  refuses ~name:"outside" ~line:3 ~what:"argument 2 is outside the signature"
    {|let%kernel outside (a : Acc.t array) =
  set a.(1) 1.0;
  set a.(2) 1.0
[@@args c [(0,0)] 1 Write, c [(0,0)] 1 Write]|};
  refuses ~name:"missing" ~line:1 ~what:"missing its argument signature [@@args"
    {|let%kernel missing (a : Acc.t array) = set a.(0) 1.0|};
  refuses ~name:"dims" ~line:3 ~what:"layout label c is declared with dims 1 and 2"
    {|let%kernel dims (a : Acc.t array) =
  set a.(1) (get a.(0) 0)
[@@args c [(0,0)] 1 Read, c [(0,0)] 2 Write]|};
  refuses ~name:"inc" ~line:3 ~what:"argument 1 is an Inc dataset"
    {|let%kernel inc (a : Acc.t array) =
  set a.(1) (get a.(0) 0)
[@@args c [(0,0)] 1 Read, c [(0,0)] 1 Inc]|};
  refuses ~name:"written" ~line:3 ~what:"argument 1 is written, so its stencil must be the centre"
    {|let%kernel written (a : Acc.t array) =
  set a.(1) (get a.(0) 0)
[@@args c [(0,0)] 1 Read, c [(1,0)] 1 Write]|};
  refuses ~name:"lengths" ~line:4 ~what:"[@@args] variants declare 2 and 3 arguments"
    {|let%kernel lengths (a : Acc.t array) =
  set a.(1) (get a.(0) 0)
[@@args c [(0,0)] 1 Read, c [(0,0)] 1 Write]
[@@args c [(0,0)] 1 Read, c [(0,0)] 1 Write, gbl 1 Read]|};
  refuses ~name:"same" ~line:4 ~what:"[@@args] variants 0 and 1 declare the same stencils"
    {|let%kernel same (a : Acc.t array) =
  set a.(1) (get a.(0) 0)
[@@args c [(0,0)] 1 Read, c [(0,0)] 1 Write]
[@@args d [(0,0)] 1 Read, d [(0,0)] 1 Write]|};
  refuses ~name:"stencil" ~line:2 ~what:"a stencil is a list of literal offsets"
    {|let%kernel stencil (a : Acc.t array) = set a.(0) 1.0
[@@args c (0,0) 1 Write]|};
  refuses ~name:"entry" ~line:2 ~what:"a signature entry is label [offsets] dim Access"
    {|let%kernel entry (a : Acc.t array) = set a.(0) 1.0
[@@args c 1 Write]|}

let () =
  Alcotest.run "ppx_kernel"
    [
      ( "let%kernel",
        [
          Alcotest.test_case "expands computed points, aliases, globals and variants" `Quick
            test_expands;
          Alcotest.test_case "refuses escaping accessors and bad parameters" `Quick test_refuses;
          Alcotest.test_case "refuses what the declared signatures rule out" `Quick
            test_grid_signature_refuses;
          Alcotest.test_case "PdV: one index per layout, globals once" `Quick test_pdv;
          Alcotest.test_case "PdV's C: indices, offsets, the proof, globals once" `Quick
            test_pdv_c;
          Alcotest.test_case "refuses what the native walker cannot translate" `Quick
            test_native_refuses;
        ] );
      ( "let%elem_kernel",
        [
          Alcotest.test_case "expands literal and computed components" `Quick test_elem_expands;
          Alcotest.test_case "refuses escaping, passed and computed accessors" `Quick
            test_elem_refuses;
          Alcotest.test_case "refuses what the declared signature rules out" `Quick
            test_signature_refuses;
          Alcotest.test_case "res_calc: constants and one map load per (map, slot)" `Quick
            test_res_calc;
          Alcotest.test_case "Airfoil's C: one map load per (map, slot), the proof, checks" `Quick
            test_airfoil_c;
          Alcotest.test_case "refuses what the native walker cannot translate" `Quick
            test_elem_native_refuses;
        ] );
    ]

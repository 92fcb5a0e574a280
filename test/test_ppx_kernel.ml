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

(* The point and row forms of the one kernel [src] defines. *)
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
  let point, row = forms src in
  let row = squash row in
  Alcotest.(check string) (name ^ ": point form as written") (written src) point;
  List.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "%s: row form has %S" name s) true (contains row s))
    row_has;
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "%s: row form lacks %S" name s) false (contains row s))
    row_lacks

let test_expands () =
  (* A computed stencil point, as in advec_flux, mom_flux and van Leer:
     read through the hoisted offset table; literal points are hoisted. *)
  expands ~name:"donor"
    {|let%kernel donor (a : Acc.t array) =
  let vf = get a.(0) 0 in
  let d = a.(1) in
  let donor = if vf > 0.0 then 0 else 1 in
  set a.(2) (vf *. get d donor)|}
    ~row_has:
      [ "Stdlib.Array.get __kernel_o1 donor"; "let __kernel_o0_0 = Stdlib.Array.get __kernel_o0 0";
        "Stdlib.Array.set __kernel_d2" ]
    ~row_lacks:[ "a.("; "get d "; "let d =" ];
  (* let-aliases, in one [let ... and ...] and chained. *)
  expands ~name:"aliases"
    {|let%kernel alias (a : Acc.t array) =
  let xv = a.(0) and yv = a.(1) in
  let y2 = yv in
  let u = get xv 1 +. get y2 3 in
  set a.(2) u|}
    ~row_has:[ "__kernel_o0_1"; "__kernel_o1_3"; "let u" ]
    ~row_lacks:[ "a.("; "xv"; "y2" ];
  (* gbl and set_gbl on a global: the centre offset is hoisted. *)
  expands ~name:"globals"
    {|let%kernel sums (a : Acc.t array) =
  let s = a.(1) in
  set_gbl s 0 (gbl s 0 +. get a.(0) 0);
  set_gbl s 1 (Float.min (gbl s 1) (gbl a.(2) 0))|}
    ~row_has:[ "let __kernel_o1_0 = Stdlib.Array.get __kernel_o1 0"; "Stdlib.Array.set __kernel_d1" ]
    ~row_lacks:[ "a.("; "gbl"; "set_gbl" ];
  (* A binder shadowing an alias ends it. *)
  expands ~name:"shadowed"
    {|let%kernel shadow (a : Acc.t array) =
  let x = a.(0) in
  let f x = x +. 1.0 in
  set a.(1) (f (get x 0))|}
    ~row_has:[ "let f x = x +. 1.0" ] ~row_lacks:[ "a.(" ]

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
  set a.(1) (diff p 2.0)|};
  refuses ~name:"partial" ~line:2 ~what:"passed to a function"
    {|let%kernel partial (a : Acc.t array) =
  let g = get a.(0) in
  set a.(1) (g 0)|};
  refuses ~name:"index" ~line:3 ~what:"literal argument number"
    {|let%kernel index (a : Acc.t array) =
  let i = 1 in
  set a.(i) 0.0|};
  refuses ~name:"return" ~line:3 ~what:"returned or stored"
    {|let%kernel return (a : Acc.t array) =
  let x = a.(0) in
  x|};
  refuses ~name:"store" ~line:2 ~what:"returned or stored"
    {|let%kernel store (a : Acc.t array) =
  cell.contents <- a.(0)|};
  refuses ~name:"pair" ~line:2 ~what:"returned or stored"
    {|let%kernel pair (a : Acc.t array) =
  let p = (a.(0), 1) in
  set a.(1) (get (fst p) 0)|};
  List.iter
    (fun (name, src) ->
      refuses ~name ~line:1 ~what:"one parameter (a : Acc.t array)" src)
    [
      ("untyped", {|let%kernel untyped a = set a.(0) 1.0|});
      ("floats", {|let%kernel floats (a : float array array) = set a.(0) 1.0|});
      ("two", {|let%kernel two (a : Acc.t array) (b : int) = set a.(b) 1.0|});
    ]

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

let () =
  Alcotest.run "ppx_kernel"
    [
      ( "let%kernel",
        [
          Alcotest.test_case "expands computed points, aliases and globals" `Quick test_expands;
          Alcotest.test_case "refuses escaping accessors and bad parameters" `Quick test_refuses;
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
        ] );
    ]

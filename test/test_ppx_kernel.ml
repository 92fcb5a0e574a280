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

let expands ~name src ~row_has ~row_lacks =
  let point, row = forms src in
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
   read and written at [d_k.(b_k + c)], with [b_k] computed per element
   from the argument's map ([m_k]) or element number; the arguments the
   body writes get inline Inc staging ([n_k]), the others only the shared
   [Acc.zero_incs]/[Acc.add_incs]. *)
let test_elem_expands () =
  expands ~name:"flux"
    {|let%elem_kernel flux (a : Acc.t array) =
  let q = a.(0) and r = a.(1) in
  for n = 0 to 3 do
    set r n (get q n)
  done;
  set r 0 (get q 2 +. get a.(2) 0)|}
    ~row_has:
      [
        "Stdlib.Array.get __kernel_d0 (Stdlib.(+) __kernel_b0 n)";
        "Stdlib.Array.set __kernel_d1 (Stdlib.(+) __kernel_b1 n)";
        "Stdlib.Array.get __kernel_d0 (Stdlib.(+) __kernel_b0 2)";
        "Stdlib.Array.set __kernel_d1 (Stdlib.(+) __kernel_b1 0)";
        "Stdlib.Array.get __kernel_m2";
        "let __kernel_n1";
        "Am_core.Acc.add_incs __kernel_walk __kernel_e";
      ]
    ~row_lacks:[ "a.("; "get q"; "set r"; "let q"; "__kernel_n0"; "__kernel_n2" ]

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
  q|};
  (* Airfoil's face took its nodes' accessors; a helper must take floats. *)
  refuses ~name:"adt" ~line:3 ~what:"passed to a function; only get and set"
    {|let%elem_kernel adt (a : Acc.t array) =
  let x1 = a.(0) and x2 = a.(1) in
  set a.(2) 0 (face 1.0 2.0 0.5 x2 x1)|};
  refuses ~name:"loop" ~line:3 ~what:"literal argument number"
    {|let%elem_kernel loop (a : Acc.t array) =
  for k = 0 to 3 do
    set a.(k) 0 0.0
  done|};
  (* The structured vocabulary is not the element walker's. *)
  refuses ~name:"centre" ~line:2 ~what:"only get and set"
    {|let%elem_kernel centre (a : Acc.t array) =
  set a.(0) (gbl a.(1) 0)|};
  refuses ~name:"floats" ~line:1 ~what:"one parameter (a : Acc.t array)"
    {|let%elem_kernel floats (a : float array array) = set a.(0) 0 1.0|}

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
        ] );
    ]

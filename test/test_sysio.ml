(* Tests for the binary snapshot format and mesh I/O. *)

module Snapshot = Am_sysio.Snapshot
module Meshio = Am_sysio.Meshio
module Umesh = Am_mesh.Umesh

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("am_test_" ^ name)

let entries =
  [
    ("q", [| 1.0; -2.5; 3.25; Float.pi |]);
    ("empty", [||]);
    ("adt", [| 0.0; 1e-300; 1e300; -0.0 |]);
  ]

let test_roundtrip_memory () =
  let decoded = Snapshot.decode (Snapshot.encode entries) in
  Alcotest.(check int) "entry count" 3 (List.length decoded);
  List.iter2
    (fun (n1, v1) (n2, v2) ->
      Alcotest.(check string) "name" n1 n2;
      Alcotest.(check (array (float 0.0))) "values" v1 v2)
    entries decoded

let test_roundtrip_file () =
  let path = tmp "roundtrip.snap" in
  Snapshot.save path entries;
  let decoded = Snapshot.load path in
  Sys.remove path;
  Alcotest.(check int) "entry count" 3 (List.length decoded);
  let q = List.assoc "q" decoded in
  Alcotest.(check (array (float 0.0))) "exact doubles" (List.assoc "q" entries) q

let test_special_values () =
  let special = [ ("s", [| Float.nan; Float.infinity; Float.neg_infinity |]) ] in
  match Snapshot.decode (Snapshot.encode special) with
  | [ (_, v) ] ->
    Alcotest.(check bool) "nan preserved" true (Float.is_nan v.(0));
    Alcotest.(check (float 0.0)) "inf" Float.infinity v.(1);
    Alcotest.(check (float 0.0)) "-inf" Float.neg_infinity v.(2)
  | _ -> Alcotest.fail "wrong shape"

let test_corrupt_rejected () =
  (match Snapshot.decode "NOTMAGIC" with
  | exception Snapshot.Corrupt _ -> ()
  | _ -> Alcotest.fail "bad magic accepted");
  let good = Snapshot.encode entries in
  (* A well-formed "AMSNAP01" file: the same body with no checksum word. *)
  let unchecksummed = "AMSNAP01" ^ String.sub good 12 (String.length good - 12) in
  (match Snapshot.decode unchecksummed with
  | exception Snapshot.Corrupt _ -> ()
  | _ -> Alcotest.fail "unchecksummed AMSNAP01 accepted");
  let truncated = String.sub good 0 (String.length good - 3) in
  match Snapshot.decode truncated with
  | exception Snapshot.Corrupt _ -> ()
  | _ -> Alcotest.fail "truncation accepted"

let test_compare_files () =
  let pa = tmp "cmp_a.snap" and pb = tmp "cmp_b.snap" in
  Snapshot.save pa [ ("u", [| 1.0; 2.0 |]); ("only_a", [| 0.0 |]) ];
  Snapshot.save pb [ ("u", [| 1.0; 2.0000001 |]); ("only_b", [| 0.0 |]) ];
  let both, only_a, only_b = Snapshot.compare_files pa pb in
  Sys.remove pa;
  Sys.remove pb;
  Alcotest.(check int) "one shared" 1 (List.length both);
  Alcotest.(check bool) "small discrepancy" true (snd (List.hd both) < 1e-6);
  Alcotest.(check (list string)) "only_a" [ "only_a" ] only_a;
  Alcotest.(check (list string)) "only_b" [ "only_b" ] only_b

let test_dump_text () =
  let path = tmp "dump.txt" in
  Snapshot.dump_text path "u" [| 1.5; 2.5 |];
  let ic = open_in path in
  let header = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "header" "# u: 2 values" header

let test_mesh_roundtrip () =
  let m = Umesh.generate_airfoil ~nx:12 ~ny:8 () in
  let path = tmp "mesh.snap" in
  Meshio.save path m;
  let m2 = Meshio.load path in
  Sys.remove path;
  Alcotest.(check int) "cells" m.Umesh.n_cells m2.Umesh.n_cells;
  Alcotest.(check (array int)) "edge_cells" m.Umesh.edge_cells m2.Umesh.edge_cells;
  Alcotest.(check (array (float 0.0))) "coords" m.Umesh.node_coords m2.Umesh.node_coords

let test_mesh_load_validates () =
  let path = tmp "badmesh.snap" in
  (* A "mesh" whose maps point out of range must be rejected on load. *)
  Snapshot.save path
    [
      ("sizes", [| 4.0; 1.0; 1.0; 0.0 |]);
      ("edge_nodes", [| 0.0; 99.0 |]);
      ("edge_cells", [| 0.0; 0.0 |]);
      ("cell_nodes", [| 0.0; 1.0; 2.0; 3.0 |]);
      ("bedge_nodes", [||]);
      ("bedge_cell", [||]);
      ("bedge_bound", [||]);
      ("node_coords", Array.make 8 0.0);
    ];
  (match Meshio.load path with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "invalid mesh accepted");
  Sys.remove path

let () =
  Alcotest.run "sysio"
    [
      ( "snapshot",
        [
          Alcotest.test_case "memory roundtrip" `Quick test_roundtrip_memory;
          Alcotest.test_case "file roundtrip" `Quick test_roundtrip_file;
          Alcotest.test_case "special values" `Quick test_special_values;
          Alcotest.test_case "corrupt rejected" `Quick test_corrupt_rejected;
          Alcotest.test_case "compare files" `Quick test_compare_files;
          Alcotest.test_case "dump text" `Quick test_dump_text;
        ] );
      ( "mesh",
        [
          Alcotest.test_case "roundtrip" `Quick test_mesh_roundtrip;
          Alcotest.test_case "load validates" `Quick test_mesh_load_validates;
        ] );
    ]

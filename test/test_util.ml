(* Unit and property tests for the utility library. *)

module Prng = Am_util.Prng
module Fa = Am_util.Fa
module Stats = Am_util.Stats
module Table = Am_util.Table
module Units = Am_util.Units

let check_float = Alcotest.(check (float 1e-12))

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* ---- Prng ---- *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_split_independent () =
  let a = Prng.create 7 in
  let b = Prng.split a in
  let xa = Prng.next_int64 a and xb = Prng.next_int64 b in
  Alcotest.(check bool) "streams differ" true (xa <> xb)

let test_prng_float_range () =
  let rng = Prng.create 1 in
  for _ = 1 to 1000 do
    let x = Prng.float rng in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_prng_int_bounds () =
  let rng = Prng.create 2 in
  for _ = 1 to 1000 do
    let x = Prng.int rng 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done;
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0))

let test_prng_shuffle_permutes () =
  let rng = Prng.create 3 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_prng_gaussian_moments () =
  let rng = Prng.create 4 in
  let n = 20000 in
  let xs = Array.init n (fun _ -> Prng.gaussian rng) in
  let m = Stats.mean xs and s = Stats.stddev xs in
  Alcotest.(check bool) "mean near 0" true (Float.abs m < 0.05);
  Alcotest.(check bool) "stddev near 1" true (Float.abs (s -. 1.0) < 0.05)

(* ---- Fa ---- *)

let test_fa_axpy () =
  let x = [| 1.0; 2.0; 3.0 |] and y = [| 10.0; 20.0; 30.0 |] in
  Fa.axpy ~alpha:2.0 x y;
  Alcotest.(check (array (float 1e-12))) "axpy" [| 12.0; 24.0; 36.0 |] y

let test_fa_dot_norm () =
  let x = [| 3.0; 4.0 |] in
  check_float "dot" 25.0 (Fa.dot x x);
  check_float "norm" 5.0 (Fa.l2_norm x)

let test_fa_discrepancy () =
  let x = [| 1.0; 2.0 |] and y = [| 1.0; 2.0 |] in
  check_float "identical" 0.0 (Fa.rel_discrepancy x y);
  Alcotest.(check bool) "approx_equal" true (Fa.approx_equal x y);
  let z = [| 1.0; 2.5 |] in
  Alcotest.(check bool) "not equal" false (Fa.approx_equal x z)

let test_fa_checksum_order_sensitive () =
  let x = [| 1.0; 2.0; 3.0 |] and y = [| 3.0; 2.0; 1.0 |] in
  Alcotest.(check bool) "detects reorder" true (Fa.checksum x <> Fa.checksum y)

let test_fa_is_finite () =
  Alcotest.(check bool) "finite" true (Fa.is_finite [| 1.0; -2.0 |]);
  Alcotest.(check bool) "nan" false (Fa.is_finite [| 1.0; Float.nan |]);
  Alcotest.(check bool) "inf" false (Fa.is_finite [| Float.infinity |])

let test_fa_length_mismatch () =
  Alcotest.check_raises "axpy mismatch" (Invalid_argument "Fa.axpy: length mismatch")
    (fun () -> Fa.axpy ~alpha:1.0 [| 1.0 |] [| 1.0; 2.0 |])

(* ---- Stats ---- *)

let test_stats_summary () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  let s = Stats.summarize xs in
  check_float "mean" 3.0 s.Stats.mean;
  check_float "median" 3.0 s.Stats.median;
  check_float "min" 1.0 s.Stats.min;
  check_float "max" 5.0 s.Stats.max;
  Alcotest.(check int) "n" 5 s.Stats.n

let test_stats_percentile () =
  let xs = [| 10.0; 20.0; 30.0; 40.0 |] in
  check_float "p0" 10.0 (Stats.percentile xs 0.0);
  check_float "p100" 40.0 (Stats.percentile xs 100.0);
  check_float "p50 interp" 25.0 (Stats.percentile xs 50.0)

let test_stats_linear_fit () =
  let xs = [| 0.0; 1.0; 2.0; 3.0 |] in
  let ys = [| 1.0; 3.0; 5.0; 7.0 |] in
  let a, b = Stats.linear_fit xs ys in
  check_float "intercept" 1.0 a;
  check_float "slope" 2.0 b

let test_stats_geomean () =
  check_float "geomean" 2.0 (Stats.geomean [| 1.0; 2.0; 4.0 |])

(* ---- Table ---- *)

let test_table_render () =
  let t = Table.create ~title:"t" ~header:[ "a"; "bb" ] () in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "333"; "4" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true
    (String.length s > 0 && String.sub s 0 6 = "== t =");
  Alcotest.(check int) "rows kept" 2 (List.length (Table.rows t))

let test_table_rejects_bad_row () =
  let t = Table.create ~title:"t" ~header:[ "a"; "b" ] () in
  Alcotest.check_raises "bad arity" (Invalid_argument "Table.add_row: wrong number of cells")
    (fun () -> Table.add_row t [ "only one" ])

let test_table_csv () =
  let t = Table.create ~title:"t" ~header:[ "a"; "b" ] () in
  Table.add_row t [ "x,y"; "z" ];
  Alcotest.(check string) "csv escaping" "a,b\n\"x,y\",z\n" (Table.to_csv t)

(* ---- Units ---- *)

let test_units_seconds () =
  Alcotest.(check string) "ms" "1.50 ms" (Units.seconds 0.0015);
  Alcotest.(check string) "s" "2.00 s" (Units.seconds 2.0)

let test_units_bandwidth () =
  check_float "GB/s" 2.0 (Units.bandwidth_gbs 2_000_000_000 1.0);
  check_float "zero time" 0.0 (Units.bandwidth_gbs 100 0.0)

(* ---- Regression gate ---- *)

let summary_of samples = Am_util.Regress.summarize (Array.of_list samples)

(* A clean 2x median slowdown against a tight baseline must trip the gate;
   the same measurement within the threshold must not.  This pins the exact
   semantics the bench --compare smoke exercises end-to-end (where the
   injected handicap is larger purely to ride out machine noise). *)
let test_regress_gate_trips_on_2x () =
  let baseline = summary_of [ 0.010; 0.010; 0.011; 0.010; 0.011 ] in
  let v =
    Am_util.Regress.gate ~name:"s" ~baseline
      ~current:(summary_of [ 0.020; 0.021; 0.020; 0.022; 0.020 ])
      ()
  in
  Alcotest.(check bool) "2x regressed" true v.Am_util.Regress.v_regressed;
  Alcotest.(check bool) "ratio ~2" true
    (v.Am_util.Regress.v_ratio > 1.8 && v.Am_util.Regress.v_ratio < 2.2);
  let ok =
    Am_util.Regress.gate ~name:"s" ~baseline
      ~current:(summary_of [ 0.0105; 0.0108; 0.0102; 0.0110; 0.0101 ])
      ()
  in
  Alcotest.(check bool) "within threshold ok" false ok.Am_util.Regress.v_regressed

(* The IQR guard: a ratio past the threshold whose absolute shift is inside
   the baseline's own spread is noise, not a regression. *)
let test_regress_gate_iqr_guard () =
  let noisy_baseline = summary_of [ 0.010; 0.030; 0.011; 0.028; 0.012 ] in
  let v =
    Am_util.Regress.gate ~name:"s" ~baseline:noisy_baseline
      ~current:(summary_of [ 0.014; 0.015; 0.014; 0.016; 0.015 ])
      ()
  in
  Alcotest.(check bool) "inside baseline spread" false
    v.Am_util.Regress.v_regressed;
  (* custom threshold: 2x trips a 50% gate, not a 120% one *)
  let baseline = summary_of [ 0.010; 0.010; 0.010 ] in
  let current = summary_of [ 0.020; 0.020; 0.020 ] in
  let at t =
    (Am_util.Regress.gate ~threshold:t ~name:"s" ~baseline ~current ())
      .Am_util.Regress.v_regressed
  in
  Alcotest.(check bool) "trips 50% gate" true (at 0.5);
  Alcotest.(check bool) "not a 120% gate" false (at 1.2)

let test_regress_summary () =
  let s = summary_of [ 5.0; 1.0; 3.0; 2.0; 4.0 ] in
  Alcotest.(check int) "n" 5 s.Am_util.Regress.n;
  check_float "median" 3.0 s.Am_util.Regress.median;
  check_float "min" 1.0 s.Am_util.Regress.min;
  check_float "max" 5.0 s.Am_util.Regress.max;
  Alcotest.(check bool) "iqr positive" true (Am_util.Regress.iqr s > 0.0);
  Alcotest.check_raises "empty rejected"
    (Invalid_argument "Regress.summarize: empty") (fun () ->
      ignore (summary_of []))

(* A row the gate cannot judge is an error that names it, never a pass: a
   baseline median of 0 or NaN, a NaN current median, a row with no
   baseline entry, a dump row that lacks a field. *)
let test_regress_refuses_ungateable () =
  let ok = summary_of [ 0.010; 0.011; 0.012 ] in
  let names_row what f =
    match f () with
    | exception Invalid_argument msg ->
      Alcotest.(check bool) (what ^ ": " ^ msg) true (contains msg "row/x")
    | (_ : Am_util.Regress.verdict list) -> Alcotest.failf "%s: gated" what
  in
  let gate ~baseline ~current () =
    [ Am_util.Regress.gate ~name:"row/x" ~baseline ~current () ]
  in
  names_row "zero baseline" (gate ~baseline:{ ok with median = 0.0 } ~current:ok);
  names_row "NaN baseline" (gate ~baseline:{ ok with median = Float.nan } ~current:ok);
  names_row "NaN current" (gate ~baseline:ok ~current:{ ok with median = Float.nan });
  names_row "no baseline entry" (fun () ->
      Am_util.Regress.gate_all ~baseline:[ ("row/a", ok) ]
        [ ("row/a", ok); ("row/x", ok) ]);
  let dump fields =
    Printf.sprintf
      {|{ "timings": {
            "row/a": { "n": 3, "median": 1, "p25": 1, "p75": 1, "min": 1, "max": 1 },
            "row/x": { %s } } }|}
      fields
  in
  let read src = Am_util.Regress.of_json (Result.get_ok (Am_util.Json.parse src)) in
  (match read (dump {|"n": 3, "median": 2, "p75": 2, "min": 2, "max": 2|}) with
  | Ok _ -> Alcotest.fail "a row without p25 was read"
  | Error msg -> Alcotest.(check bool) ("no p25: " ^ msg) true (contains msg "row/x"));
  (match read {|{ "series": {} }|} with
  | Ok _ -> Alcotest.fail "a dump without timings was read"
  | Error _ -> ());
  match read (dump {|"n": 3, "median": 2, "p25": 1, "p75": 3, "min": 1, "max": 3|}) with
  | Error msg -> Alcotest.fail msg
  | Ok rows ->
    Alcotest.(check (list string)) "rows in order" [ "row/a"; "row/x" ]
      (List.map fst rows);
    check_float "median" 2.0 (List.assoc "row/x" rows).Am_util.Regress.median

let test_regress_json_round_trip () =
  let s = summary_of [ 0.010; 0.011; 0.012; 0.020 ] in
  let dump =
    Am_util.Json.Obj
      [ ("timings", Am_util.Json.Obj [ ("row/x", Am_util.Regress.to_json ~unit_:"s" s) ]) ]
  in
  match Am_util.Regress.of_json dump with
  | Error msg -> Alcotest.fail msg
  | Ok rows -> Alcotest.(check bool) "same summary" true (rows = [ ("row/x", s) ])

(* ---- JSON reader ---- *)

let test_json_parse_bench_shape () =
  let src =
    {|{ "schema": "bench-series/1", "repeat": 10,
       "series": { "a": { "median": 1.5e-3, "n": 10 },
                   "b": { "median": 2.0, "n": 4 } },
       "tags": [1, 2, true, null, "x"] }|}
  in
  match Am_util.Json.parse src with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok json ->
    let open Am_util.Json in
    Alcotest.(check (option string)) "schema" (Some "bench-series/1")
      (Option.bind (member "schema" json) to_string);
    Alcotest.(check (option (float 1e-12))) "repeat" (Some 10.0)
      (Option.bind (member "repeat" json) to_num);
    let median name =
      Option.bind (member "series" json) (member name)
      |> Fun.flip Option.bind (member "median")
      |> Fun.flip Option.bind to_num
    in
    Alcotest.(check (option (float 1e-12))) "nested median" (Some 0.0015)
      (median "a");
    Alcotest.(check (option (float 1e-12))) "missing member" None (median "zz");
    (match Option.bind (member "tags" json) to_list with
    | Some [ Num 1.0; Num 2.0; Bool true; Null; Str "x" ] -> ()
    | _ -> Alcotest.fail "list shape");
    (* shape mismatches are total *)
    Alcotest.(check (option string)) "num is not a string" None
      (Option.bind (member "repeat" json) to_string)

let test_json_parse_errors () =
  List.iter
    (fun src ->
      match Am_util.Json.parse src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed %S" src)
    [ ""; "{"; "{\"a\": }"; "[1,]"; "{\"a\": 1} trailing"; "nul" ]

(* ---- Properties ---- *)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile is monotone in p" ~count:200
    QCheck.(pair (array_of_size Gen.(int_range 1 40) (float_range (-100.) 100.))
              (pair (float_range 0.0 100.0) (float_range 0.0 100.0)))
    (fun (xs, (p1, p2)) ->
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Stats.percentile xs lo <= Stats.percentile xs hi +. 1e-9)

let prop_shuffle_preserves_multiset =
  QCheck.Test.make ~name:"shuffle preserves contents" ~count:200
    QCheck.(pair small_int (array small_int))
    (fun (seed, arr) ->
      let rng = Prng.create seed in
      let copy = Array.copy arr in
      Prng.shuffle rng copy;
      let a = Array.copy arr and b = Array.copy copy in
      Array.sort compare a;
      Array.sort compare b;
      a = b)

let prop_geomean_of_constant =
  QCheck.Test.make ~name:"geomean of constant array is the constant" ~count:100
    QCheck.(pair (float_range 0.1 1000.0) (int_range 1 20))
    (fun (c, n) ->
      let g = Stats.geomean (Array.make n c) in
      Float.abs (g -. c) /. c < 1e-9)

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
          Alcotest.test_case "gaussian moments" `Slow test_prng_gaussian_moments;
        ] );
      ( "fa",
        [
          Alcotest.test_case "axpy" `Quick test_fa_axpy;
          Alcotest.test_case "dot/norm" `Quick test_fa_dot_norm;
          Alcotest.test_case "discrepancy" `Quick test_fa_discrepancy;
          Alcotest.test_case "checksum order-sensitive" `Quick
            test_fa_checksum_order_sensitive;
          Alcotest.test_case "is_finite" `Quick test_fa_is_finite;
          Alcotest.test_case "length mismatch" `Quick test_fa_length_mismatch;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "linear fit" `Quick test_stats_linear_fit;
          Alcotest.test_case "geomean" `Quick test_stats_geomean;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "bad row" `Quick test_table_rejects_bad_row;
          Alcotest.test_case "csv" `Quick test_table_csv;
        ] );
      ( "units",
        [
          Alcotest.test_case "seconds" `Quick test_units_seconds;
          Alcotest.test_case "bandwidth" `Quick test_units_bandwidth;
        ] );
      ( "regress",
        [
          Alcotest.test_case "gate trips on 2x" `Quick test_regress_gate_trips_on_2x;
          Alcotest.test_case "iqr guard and thresholds" `Quick
            test_regress_gate_iqr_guard;
          Alcotest.test_case "summary" `Quick test_regress_summary;
          Alcotest.test_case "refuses what it cannot gate" `Quick
            test_regress_refuses_ungateable;
          Alcotest.test_case "dump row round trip" `Quick test_regress_json_round_trip;
        ] );
      ( "json",
        [
          Alcotest.test_case "bench dump shape" `Quick test_json_parse_bench_shape;
          Alcotest.test_case "malformed rejected" `Quick test_json_parse_errors;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_percentile_monotone;
          QCheck_alcotest.to_alcotest prop_shuffle_preserves_multiset;
          QCheck_alcotest.to_alcotest prop_geomean_of_constant;
        ] );
    ]

(* Unit tests for the observability layer: span-tracer well-formedness and
   Chrome-trace export, the zero-cost disabled path, and the counter
   registry's JSON round-trip.

   The tracer takes an injectable clock, so every timing-sensitive case
   below runs against a deterministic stepping clock (1 us per reading) and
   checks exact timestamps. *)

module Tracer = Am_obs.Tracer
module Counters = Am_obs.Counters
module Histogram = Am_obs.Histogram
module Obs = Am_obs.Obs
module Profile = Am_core.Profile

(* A clock that advances one microsecond per reading, starting at 0. *)
let stepping_clock () =
  let now = ref 0.0 in
  fun () ->
    let v = !now in
    now := v +. 1e-6;
    v

(* ---- Span nesting ----------------------------------------------------- *)

(* Spans recorded through begin/end must come back properly nested: on any
   one lane, two span intervals are either disjoint or one contains the
   other. *)
let test_nesting_well_formed () =
  let t = Tracer.create ~clock:(stepping_clock ()) () in
  Tracer.set_enabled t true;
  (* lane 0: outer containing two sequential children; lane 1 interleaved *)
  Tracer.begin_span t ~cat:Tracer.Loop "outer";
  Tracer.begin_span t ~cat:Tracer.Plan "child_a";
  Tracer.begin_span t ~lane:1 ~cat:Tracer.Halo_pack "other_lane";
  Tracer.end_span t ();
  Tracer.begin_span t ~cat:Tracer.Reduce "child_b";
  Tracer.end_span t ~lane:1 ();
  Tracer.end_span t ();
  Tracer.end_span t ();
  let evs = Tracer.events t in
  Alcotest.(check int) "all spans recorded" 4 (List.length evs);
  Alcotest.(check int) "no unmatched ends" 0 (Tracer.unmatched t);
  let spans = List.filter (fun e -> not e.Tracer.ev_instant) evs in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a != b && a.Tracer.ev_lane = b.Tracer.ev_lane then begin
            let a0 = a.Tracer.ev_ts and a1 = a.Tracer.ev_ts +. a.Tracer.ev_dur in
            let b0 = b.Tracer.ev_ts and b1 = b.Tracer.ev_ts +. b.Tracer.ev_dur in
            let disjoint = a1 <= b0 || b1 <= a0 in
            let a_in_b = b0 <= a0 && a1 <= b1 in
            let b_in_a = a0 <= b0 && b1 <= a1 in
            if not (disjoint || a_in_b || b_in_a) then
              Alcotest.failf "spans %s and %s overlap without nesting"
                a.Tracer.ev_name b.Tracer.ev_name
          end)
        spans)
    spans;
  (* events come back sorted by start time *)
  let rec monotonic = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "ts ascending" true (a.Tracer.ev_ts <= b.Tracer.ev_ts);
      monotonic rest
    | _ -> ()
  in
  monotonic evs

let test_unmatched_end_counted () =
  let t = Tracer.create ~clock:(stepping_clock ()) () in
  Tracer.set_enabled t true;
  Tracer.end_span t ();
  Tracer.begin_span t ~cat:Tracer.Loop "a";
  Tracer.end_span t ();
  Tracer.end_span t ();
  Alcotest.(check int) "unmatched ends" 2 (Tracer.unmatched t);
  Alcotest.(check int) "matched span kept" 1 (List.length (Tracer.events t))

let test_ring_wraparound () =
  let t = Tracer.create ~capacity:16 ~clock:(stepping_clock ()) () in
  Tracer.set_enabled t true;
  for i = 1 to 20 do
    Tracer.instant t ~cat:Tracer.Loop (Printf.sprintf "i%d" i)
  done;
  Alcotest.(check int) "recorded counts everything" 20 (Tracer.recorded t);
  Alcotest.(check int) "dropped = overflow" 4 (Tracer.dropped t);
  let evs = Tracer.events t in
  Alcotest.(check int) "capacity retained" 16 (List.length evs);
  (* the oldest four were overwritten: the survivors start at i5 *)
  Alcotest.(check string) "oldest survivor" "i5" (List.hd evs).Tracer.ev_name

let test_with_span_closes_on_raise () =
  let t = Tracer.create ~clock:(stepping_clock ()) () in
  Tracer.set_enabled t true;
  (try Tracer.with_span t ~cat:Tracer.Loop "body" (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "span recorded despite raise" 1
    (List.length (Tracer.events t));
  Tracer.end_span t ();
  Alcotest.(check int) "stack empty after raise" 1 (Tracer.unmatched t)

(* ---- Chrome export ---------------------------------------------------- *)

(* Exact golden output under the stepping clock: schema fields, "X" vs "i"
   phases, microsecond timestamps, per-lane tids, args object. *)
let test_chrome_json_golden () =
  let t = Tracer.create ~clock:(stepping_clock ()) () in
  Tracer.set_enabled t true;
  Tracer.begin_span t ~cat:Tracer.Loop "outer";
  Tracer.begin_span t ~cat:Tracer.Plan ~args:[ ("bytes", 64.0) ] "inner";
  Tracer.end_span t ();
  Tracer.instant t ~lane:1 ~cat:Tracer.Halo_post "isend";
  Tracer.end_span t ();
  let expected =
    "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
    ^ "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"active_mesh\"}},\n"
    ^ "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"rank 0\"}},\n"
    ^ "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":1,\"args\":{\"name\":\"rank 1\"}},\n"
    ^ "{\"name\":\"outer\",\"cat\":\"loop\",\"ph\":\"X\",\"ts\":1.000,\"dur\":4.000,\"pid\":0,\"tid\":0},\n"
    ^ "{\"name\":\"inner\",\"cat\":\"plan\",\"ph\":\"X\",\"ts\":2.000,\"dur\":1.000,\"pid\":0,\"tid\":0,\"args\":{\"bytes\":64.000}},\n"
    ^ "{\"name\":\"isend\",\"cat\":\"halo_post\",\"ph\":\"i\",\"ts\":4.000,\"dur\":0.000,\"pid\":0,\"tid\":1,\"s\":\"t\"}\n"
    ^ "]}\n"
  in
  Alcotest.(check string) "chrome trace golden" expected (Tracer.to_chrome_json t)

(* Explicit lane names land in the thread_name metadata events, and survive
   [clear] (lane identity outlives the ring contents). *)
let test_chrome_lane_names () =
  let t = Tracer.create ~clock:(stepping_clock ()) () in
  Tracer.set_enabled t true;
  Tracer.set_process_name t "bench";
  Tracer.set_lane_name t ~lane:64 "worker 0";
  Tracer.instant t ~lane:64 ~cat:Tracer.Worker "busy";
  let json = Tracer.to_chrome_json t in
  Alcotest.(check bool) "process named" true
    (Str_contains.contains json "{\"name\":\"bench\"}");
  Alcotest.(check bool) "lane named" true
    (Str_contains.contains json
       "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":64,\"args\":{\"name\":\"worker 0\"}}");
  Tracer.clear t;
  Alcotest.(check (option string)) "lane name survives clear" (Some "worker 0")
    (Tracer.lane_name t 64)

let test_chrome_json_escaping () =
  let t = Tracer.create ~clock:(stepping_clock ()) () in
  Tracer.set_enabled t true;
  Tracer.instant t ~cat:Tracer.Loop "quote\"back\\slash\nnewline";
  let json = Tracer.to_chrome_json t in
  Alcotest.(check bool) "escaped" true
    (Str_contains.contains json "quote\\\"back\\\\slash\\nnewline")

(* ---- Disabled path ---------------------------------------------------- *)

(* With the tracer disabled, span entry points must allocate nothing: the
   instrumentation is compiled into every hot loop permanently. *)
let test_disabled_no_allocation () =
  let t = Tracer.create () in
  Alcotest.(check bool) "starts disabled" false (Tracer.enabled t);
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Tracer.begin_span t ~cat:Tracer.Loop "hot";
    Tracer.instant t ~cat:Tracer.Halo_post "isend";
    Tracer.end_span t ()
  done;
  let w1 = Gc.minor_words () in
  (* slack covers the boxed floats of the two Gc.minor_words calls *)
  Alcotest.(check bool) "no per-call allocation" true (w1 -. w0 < 64.0);
  Alcotest.(check int) "nothing recorded" 0 (Tracer.recorded t)

(* ---- Histogram cells --------------------------------------------------- *)

(* The fixed log-bucketed layout: boundaries grow by exactly 2^(1/4), a
   value sitting on a boundary is inclusive (lands below), a value just
   above it moves one bucket up, and the pathological inputs the record
   path must absorb (zero, negatives, NaN, huge) land in the edge
   buckets. *)
let test_hist_boundaries () =
  (* geometric layout *)
  for i = 1 to Histogram.n_buckets - 2 do
    let ratio = Histogram.bucket_upper i /. Histogram.bucket_upper (i - 1) in
    Alcotest.(check (float 1e-9)) "boundary ratio" Histogram.bucket_ratio ratio
  done;
  (* inclusive upper bounds: the boundary value itself stays in bucket i *)
  for i = 0 to Histogram.n_buckets - 2 do
    let b = Histogram.bucket_upper i in
    Alcotest.(check int) "boundary inclusive" i (Histogram.bucket_index b);
    Alcotest.(check int) "just above moves up" (i + 1)
      (Histogram.bucket_index (b *. 1.0000001));
    Alcotest.(check bool) "lower < upper" true
      (Histogram.bucket_lower i < Histogram.bucket_upper i)
  done;
  (* edge inputs never raise and land in the edge buckets *)
  List.iter
    (fun v -> Alcotest.(check int) "degenerate to bucket 0" 0 (Histogram.bucket_index v))
    [ 0.0; -1.0; Float.nan; 1e-12; Float.neg_infinity ];
  Alcotest.(check int) "huge to overflow"
    (Histogram.n_buckets - 1)
    (Histogram.bucket_index 1e9);
  Alcotest.(check int) "inf to overflow"
    (Histogram.n_buckets - 1)
    (Histogram.bucket_index Float.infinity);
  Alcotest.(check (float 0.0)) "overflow open-ended" Float.infinity
    (Histogram.bucket_upper (Histogram.n_buckets - 1))

(* Quantiles on a known distribution: 100 samples of 1ms and one outlier
   of 1s.  The median must sit within one bucket ratio of 1ms, p99 too
   (rank 100 of 101 is still a 1ms sample), and max is exact. *)
let test_hist_quantiles () =
  let h = Histogram.create "t" in
  Alcotest.(check (float 0.0)) "empty quantile" 0.0 (Histogram.p50 h);
  for _ = 1 to 100 do
    Histogram.record h 1e-3
  done;
  Histogram.record h 1.0;
  Alcotest.(check int) "count" 101 (Histogram.count h);
  Alcotest.(check (float 1e-12)) "min exact" 1e-3 (Histogram.min_value h);
  Alcotest.(check (float 1e-12)) "max exact" 1.0 (Histogram.max_value h);
  let within_bucket got truth =
    got >= truth -. 1e-12 && got <= truth *. Histogram.bucket_ratio +. 1e-12
  in
  Alcotest.(check bool) "p50 ~ 1ms" true (within_bucket (Histogram.p50 h) 1e-3);
  Alcotest.(check bool) "p99 ~ 1ms" true (within_bucket (Histogram.p99 h) 1e-3);
  Alcotest.(check (float 1e-12)) "q=1 is max" 1.0 (Histogram.quantile h 1.0);
  Alcotest.(check (float 1e-12)) "sum" (0.1 +. 1.0) (Histogram.sum h);
  Alcotest.(check (float 1e-9)) "mean" (1.1 /. 101.0) (Histogram.mean h)

(* The record path is always-on in every par_loop, so it must not allocate.
   Samples are literal constants: a float computed at the call site is
   boxed by the caller, which would charge the measurement for an
   allocation that is not the record path's. *)
let test_hist_no_allocation () =
  let h = Histogram.create "hot" in
  let w0 = Gc.minor_words () in
  for _ = 1 to 2_500 do
    Histogram.record h 1e-6;
    Histogram.record h 5e-4;
    Histogram.record h 0.2;
    Histogram.record h 1e3
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check bool) "no per-record allocation" true (w1 -. w0 < 64.0);
  Alcotest.(check int) "all recorded" 10_000 (Histogram.count h)

let test_hist_reset () =
  let h = Histogram.create "r" in
  Histogram.record h 0.5;
  Histogram.record h 2.0;
  Histogram.reset h;
  Alcotest.(check int) "count zero" 0 (Histogram.count h);
  Alcotest.(check (float 0.0)) "sum zero" 0.0 (Histogram.sum h);
  Alcotest.(check (float 0.0)) "min zero when empty" 0.0 (Histogram.min_value h);
  Alcotest.(check (float 0.0)) "max zero when empty" 0.0 (Histogram.max_value h);
  Alcotest.(check (float 0.0)) "quantile zero" 0.0 (Histogram.p90 h);
  Alcotest.(check bool) "no live buckets" true
    ((Histogram.snapshot h).Histogram.s_buckets = []);
  (* reusable after reset *)
  Histogram.record h 3.0;
  Alcotest.(check (float 1e-12)) "records again" 3.0 (Histogram.max_value h);
  (* registry reset covers histogram cells too *)
  let reg = Counters.create () in
  let rh = Counters.histogram reg "lat" in
  Counters.observe rh 1.0;
  Counters.reset reg;
  Alcotest.(check int) "registry reset clears hist" 0 (Histogram.count rh)

(* A registry holding a histogram next to plain cells must survive the
   to_json/parse_json round trip structurally, and kind clashes between
   histograms and counters/gauges are rejected both ways. *)
let test_hist_json_round_trip () =
  let reg = Counters.create () in
  let c = Counters.counter reg "plain.counter" in
  let h = Counters.histogram reg ~unit_:"s" "loop.seconds" in
  let empty = Counters.histogram reg "empty.hist" in
  ignore empty;
  Counters.add c 7;
  List.iter (Counters.observe h) [ 1e-6; 1e-6; 5e-4; 0.2; 1e3 ];
  let parsed = Counters.parse_json (Counters.to_json reg) in
  Alcotest.(check bool) "round trip equals snapshot" true
    (parsed = Counters.snapshot reg);
  (match List.assoc "loop.seconds" parsed with
  | Counters.Hist s ->
    let h' = Histogram.create "restored" in
    Histogram.restore h' s;
    Alcotest.(check int) "restored count" (Histogram.count h) (Histogram.count h');
    Alcotest.(check (float 1e-12)) "restored p50" (Histogram.p50 h) (Histogram.p50 h');
    Alcotest.(check (float 1e-12)) "restored max" (Histogram.max_value h)
      (Histogram.max_value h')
  | _ -> Alcotest.fail "loop.seconds did not parse as a histogram");
  Alcotest.check_raises "histogram/counter clash"
    (Invalid_argument "Counters: loop.seconds already registered as a histogram")
    (fun () -> ignore (Counters.counter reg "loop.seconds"));
  Alcotest.check_raises "counter/histogram clash"
    (Invalid_argument "Counters: plain.counter already registered as a counter")
    (fun () -> ignore (Counters.histogram reg "plain.counter"))

(* Property: against a sorted-array nearest-rank oracle, the histogram
   quantile is never below the true quantile and at most one bucket ratio
   above it (that is the documented resolution guarantee). *)
let prop_hist_quantile_vs_oracle =
  let open QCheck in
  let sample = map (fun x -> Float.pow 10.0 ((x *. 10.0) -. 8.0)) (float_bound_inclusive 1.0) in
  let gen = pair (list_of_size Gen.(1 -- 200) sample) (float_bound_inclusive 1.0) in
  Test.make ~name:"histogram quantile vs sorted-array oracle" ~count:300 gen
    (fun (samples, q) ->
      let h = Histogram.create "prop" in
      List.iter (Histogram.record h) samples;
      let sorted = Array.of_list samples in
      Array.sort compare sorted;
      let n = Array.length sorted in
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
      let oracle = sorted.(rank - 1) in
      let est = Histogram.quantile h q in
      est >= oracle *. (1.0 -. 1e-9)
      && est <= oracle *. Histogram.bucket_ratio *. (1.0 +. 1e-9))

(* ---- Counter registry ------------------------------------------------- *)

let test_counters_basic () =
  let reg = Counters.create () in
  let c = Counters.counter reg ~unit_:"bytes" "comm.bytes" in
  let g = Counters.gauge reg "halo.seconds" in
  Counters.add c 100;
  Counters.incr c;
  Counters.addf g 0.5;
  Counters.addf g 0.25;
  Alcotest.(check int) "counter value" 101 (Counters.value c);
  Alcotest.(check (float 1e-12)) "gauge value" 0.75 (Counters.valuef g);
  (* re-registering the same name returns the same cell *)
  let c' = Counters.counter reg "comm.bytes" in
  Counters.incr c';
  Alcotest.(check int) "same cell" 102 (Counters.value c);
  Counters.reset reg;
  Alcotest.(check int) "reset zeroes" 0 (Counters.value c);
  Alcotest.check_raises "counter/gauge kind clash"
    (Invalid_argument "Counters: comm.bytes already registered as a counter")
    (fun () -> ignore (Counters.gauge reg "comm.bytes"))

let test_counters_json_round_trip () =
  let reg = Counters.create () in
  let a = Counters.counter reg "zz.last" in
  let b = Counters.counter reg "aa.first" in
  let g = Counters.gauge reg "mid.gauge" in
  let gi = Counters.gauge reg "mid.integral" in
  Counters.add a 12345678;
  Counters.add b 0;
  Counters.set g 1.5;
  Counters.set gi 3.0;
  let parsed = Counters.parse_json (Counters.to_json reg) in
  Alcotest.(check bool) "round trip equals snapshot" true
    (parsed = Counters.snapshot reg);
  (* sorted by name, integral floats keep a decimal point *)
  Alcotest.(check string) "first key" "aa.first" (fst (List.hd parsed));
  Alcotest.(check bool) "integral gauge stays float" true
    (List.assoc "mid.integral" parsed = Counters.Float 3.0)

let test_counters_json_malformed () =
  Alcotest.(check bool) "malformed rejected" true
    (try
       ignore (Counters.parse_json "{\"a\": }");
       false
     with Failure _ -> true)

(* ---- Profile-on-registry regression ----------------------------------- *)

(* A loop that only ever records halo time (no bytes, no compute seconds)
   must render "-" for bandwidth, not inf or nan. *)
let test_report_halo_only_dash () =
  let p = Profile.create () in
  Profile.record_halo p ~name:"halo_only" ~seconds:0.01;
  let report = Profile.report p in
  Alcotest.(check bool) "no inf" false (Str_contains.contains report "inf");
  Alcotest.(check bool) "no nan" false (Str_contains.contains report "nan");
  Alcotest.(check bool) "dash rendered" true (Str_contains.contains report "-")

let test_obs_report_smoke () =
  Obs.reset ();
  Counters.add Obs.exec_hits 9;
  Counters.add Obs.exec_misses 1;
  let loops =
    [
      {
        Obs.lr_name = "flux";
        lr_calls = 10;
        lr_seconds = 0.1;
        lr_bytes = 100_000_000;
        lr_halo_seconds = 0.01;
      };
      {
        Obs.lr_name = "halo_only";
        lr_calls = 0;
        lr_seconds = 0.0;
        lr_bytes = 0;
        lr_halo_seconds = 0.01;
      };
    ]
  in
  let report = Obs.report ~roofline_gbs:100.0 ~loops () in
  Alcotest.(check bool) "loop named" true (Str_contains.contains report "flux");
  Alcotest.(check bool) "hit rate shown" true
    (Str_contains.contains report "90.0%");
  Alcotest.(check bool) "no inf in report" false (Str_contains.contains report "inf");
  Obs.reset ()

let () =
  Alcotest.run "obs"
    [
      ( "tracer",
        [
          Alcotest.test_case "nesting well-formed" `Quick test_nesting_well_formed;
          Alcotest.test_case "unmatched ends counted" `Quick test_unmatched_end_counted;
          Alcotest.test_case "ring wrap-around" `Quick test_ring_wraparound;
          Alcotest.test_case "with_span closes on raise" `Quick
            test_with_span_closes_on_raise;
        ] );
      ( "chrome",
        [
          Alcotest.test_case "golden export" `Quick test_chrome_json_golden;
          Alcotest.test_case "name escaping" `Quick test_chrome_json_escaping;
          Alcotest.test_case "lane names" `Quick test_chrome_lane_names;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_hist_boundaries;
          Alcotest.test_case "quantiles on known data" `Quick test_hist_quantiles;
          Alcotest.test_case "record allocates nothing" `Quick
            test_hist_no_allocation;
          Alcotest.test_case "reset semantics" `Quick test_hist_reset;
          Alcotest.test_case "registry json round trip" `Quick
            test_hist_json_round_trip;
          QCheck_alcotest.to_alcotest prop_hist_quantile_vs_oracle;
        ] );
      ( "disabled",
        [ Alcotest.test_case "zero allocation" `Quick test_disabled_no_allocation ] );
      ( "counters",
        [
          Alcotest.test_case "basic ops" `Quick test_counters_basic;
          Alcotest.test_case "json round trip" `Quick test_counters_json_round_trip;
          Alcotest.test_case "malformed json" `Quick test_counters_json_malformed;
        ] );
      ( "report",
        [
          Alcotest.test_case "halo-only loop renders dash" `Quick
            test_report_halo_only_dash;
          Alcotest.test_case "obs report smoke" `Quick test_obs_report_smoke;
        ] );
    ]

(* Tests for the domain pool: the shared-memory substrate under the OP2/OPS
   OpenMP-class backends. *)

module Pool = Am_taskpool.Pool

let test_parallel_for_covers_range () =
  Pool.with_pool ~size:4 (fun pool ->
      let n = 10_000 in
      let hits = Array.make n 0 in
      Pool.parallel_for pool ~lo:0 ~hi:n (fun lo hi ->
          for i = lo to hi - 1 do
            (* Disjoint chunks: plain increments are race-free. *)
            hits.(i) <- hits.(i) + 1
          done);
      Alcotest.(check bool) "each index exactly once" true
        (Array.for_all (fun h -> h = 1) hits))

let test_parallel_for_empty_range () =
  Pool.with_pool ~size:2 (fun pool ->
      let touched = ref false in
      Pool.parallel_for pool ~lo:5 ~hi:5 (fun _ _ -> touched := true);
      Pool.parallel_for pool ~lo:7 ~hi:3 (fun _ _ -> touched := true);
      Alcotest.(check bool) "no work dispatched" false !touched)

let test_parallel_for_chunk_one () =
  Pool.with_pool ~size:3 (fun pool ->
      let n = 100 in
      let sum = Atomic.make 0 in
      Pool.parallel_for ~chunk:1 pool ~lo:0 ~hi:n (fun lo hi ->
          for i = lo to hi - 1 do
            ignore (Atomic.fetch_and_add sum i)
          done);
      Alcotest.(check int) "sum of 0..99" (n * (n - 1) / 2) (Atomic.get sum))

(* A reduction the way the executors do it: one accumulator per worker,
   merged by the caller from the returned states. *)
let test_parallel_fold () =
  Pool.with_pool ~size:4 (fun pool ->
      let n = 5000 in
      let states =
        Pool.parallel_for_local ~chunk:16 pool ~lo:0 ~hi:n
          ~local:(fun () -> ref 0)
          ~body:(fun s lo hi ->
            for i = lo to hi - 1 do
              s := !s + i
            done)
      in
      Alcotest.(check bool) "at most one state per worker" true
        (List.length states >= 1 && List.length states <= Pool.size pool);
      let total = List.fold_left (fun acc s -> acc + !s) 0 states in
      Alcotest.(check int) "fold sum" (n * (n - 1) / 2) total)

let test_parallel_fold_empty () =
  Pool.with_pool ~size:2 (fun pool ->
      let created = ref false in
      let states =
        Pool.parallel_for_local pool ~lo:0 ~hi:0
          ~local:(fun () ->
            created := true;
            ref 0)
          ~body:(fun _ _ _ -> ())
      in
      Alcotest.(check int) "no states" 0 (List.length states);
      Alcotest.(check bool) "no local state created" false !created;
      let v = List.fold_left (fun acc s -> acc + !s) 42 states in
      Alcotest.(check int) "init returned" 42 v)

let test_parallel_iter_indices () =
  Pool.with_pool ~size:4 (fun pool ->
      let blocks = Array.init 257 (fun i -> i * 3) in
      let seen = Array.make (257 * 3) 0 in
      let states =
        Pool.parallel_iter_indices_local pool blocks
          ~local:(fun () -> ref 0)
          ~body:(fun s b ->
            seen.(b) <- seen.(b) + 1;
            incr s)
      in
      Array.iter
        (fun b -> Alcotest.(check int) "block visited once" 1 seen.(b))
        blocks;
      Alcotest.(check int) "states count every block" (Array.length blocks)
        (List.fold_left (fun acc s -> acc + !s) 0 states))

let test_exception_propagates () =
  Pool.with_pool ~size:4 (fun pool ->
      match
        Pool.parallel_for pool ~lo:0 ~hi:1000 (fun lo _ ->
            if lo >= 0 then failwith "boom")
      with
      | exception Failure msg -> Alcotest.(check string) "message" "boom" msg
      | () -> Alcotest.fail "expected the worker exception to propagate");
  (* The pool must still be usable for the next job... but with_pool closed
     it; check reusability explicitly on a fresh pool. *)
  Pool.with_pool ~size:4 (fun pool ->
      (match Pool.parallel_for pool ~lo:0 ~hi:10 (fun _ _ -> failwith "x") with
      | exception Failure _ -> ()
      | () -> Alcotest.fail "expected failure");
      let ok = ref false in
      Pool.parallel_for pool ~lo:0 ~hi:1 (fun _ _ -> ok := true);
      Alcotest.(check bool) "pool survives a failed job" true !ok)

let test_size_one_inline () =
  Pool.with_pool ~size:1 (fun pool ->
      Alcotest.(check int) "size" 1 (Pool.size pool);
      let acc = ref 0 in
      Pool.parallel_for pool ~lo:0 ~hi:100 (fun lo hi -> acc := !acc + hi - lo);
      Alcotest.(check int) "all iterations" 100 !acc)

let test_nested_jobs_sequentially () =
  (* Consecutive jobs on one pool: results must not leak between jobs. *)
  Pool.with_pool ~size:3 (fun pool ->
      for round = 1 to 20 do
        let count = Atomic.make 0 in
        Pool.parallel_for ~chunk:7 pool ~lo:0 ~hi:(round * 13) (fun lo hi ->
            ignore (Atomic.fetch_and_add count (hi - lo)));
        Alcotest.(check int)
          (Printf.sprintf "round %d" round)
          (round * 13) (Atomic.get count)
      done)

let test_shared_pool_singleton () =
  let a = Pool.shared () and b = Pool.shared () in
  Alcotest.(check bool) "same pool" true (a == b)

let () =
  Alcotest.run "taskpool"
    [
      ( "parallel_for",
        [
          Alcotest.test_case "covers range" `Quick test_parallel_for_covers_range;
          Alcotest.test_case "empty range" `Quick test_parallel_for_empty_range;
          Alcotest.test_case "chunk=1" `Quick test_parallel_for_chunk_one;
          Alcotest.test_case "size-1 inline" `Quick test_size_one_inline;
          Alcotest.test_case "repeated jobs" `Quick test_nested_jobs_sequentially;
        ] );
      ( "fold/blocks",
        [
          Alcotest.test_case "fold" `Quick test_parallel_fold;
          Alcotest.test_case "fold empty" `Quick test_parallel_fold_empty;
          Alcotest.test_case "iter indices" `Quick test_parallel_iter_indices;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "exceptions propagate" `Quick test_exception_propagates;
          Alcotest.test_case "shared singleton" `Quick test_shared_pool_singleton;
        ] );
    ]

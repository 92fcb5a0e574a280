(* Tests for the in-process message-passing simulator and halo engine. *)

module Comm = Am_simmpi.Comm
module Halo = Am_simmpi.Halo

let test_comm_fifo () =
  let c = Comm.create ~n_ranks:2 in
  Comm.send c ~src:0 ~dst:1 [| 1.0 |];
  Comm.send c ~src:0 ~dst:1 [| 2.0 |];
  Alcotest.(check (float 0.0)) "first" 1.0 (Comm.recv c ~src:0 ~dst:1).(0);
  Alcotest.(check (float 0.0)) "second" 2.0 (Comm.recv c ~src:0 ~dst:1).(0)

let test_comm_stats () =
  let c = Comm.create ~n_ranks:2 in
  Comm.send c ~src:0 ~dst:1 [| 1.0; 2.0; 3.0 |];
  let s = Comm.stats c in
  Alcotest.(check int) "messages" 1 s.Comm.messages;
  Alcotest.(check int) "bytes" 24 s.Comm.bytes;
  Comm.reset_stats c;
  Alcotest.(check int) "reset" 0 (Comm.stats c).Comm.messages

let test_comm_recv_empty_fails () =
  let c = Comm.create ~n_ranks:2 in
  Alcotest.check_raises "deadlock detected"
    (Failure "Comm.recv: no message pending from rank 1 to rank 0") (fun () ->
      ignore (Comm.recv c ~src:1 ~dst:0))

let test_comm_drained () =
  let c = Comm.create ~n_ranks:2 in
  Alcotest.(check bool) "initially drained" true (Comm.all_drained c);
  Comm.send c ~src:0 ~dst:1 [| 0.0 |];
  Alcotest.(check bool) "pending" false (Comm.all_drained c);
  ignore (Comm.recv c ~src:0 ~dst:1);
  Alcotest.(check bool) "drained again" true (Comm.all_drained c)

(* ---- Non-blocking requests ---- *)

let test_isend_stays_in_flight () =
  let c = Comm.create ~n_ranks:2 in
  let sreq = Comm.isend c ~src:0 ~dst:1 [| 1.0; 2.0 |] in
  (* Staged, not delivered — but already counted and visible as pending. *)
  Alcotest.(check int) "in flight" 1 (Comm.in_flight c ~src:0 ~dst:1);
  Alcotest.(check int) "pending counts staged" 1 (Comm.pending c ~src:0 ~dst:1);
  Alcotest.(check bool) "not drained" false (Comm.all_drained c);
  Alcotest.(check int) "bytes at post time" 16 (Comm.stats c).Comm.bytes;
  Alcotest.(check int) "request bytes" 16 (Comm.request_bytes sreq);
  let rreq = Comm.irecv c ~src:0 ~dst:1 in
  Alcotest.(check (option reject)) "no payload before wait" None
    (Comm.request_payload rreq);
  let payload = Comm.wait c rreq in
  Alcotest.(check (float 0.0)) "payload" 2.0 payload.(1);
  Alcotest.(check (float 0.0)) "payload cached" 2.0
    (Comm.wait c rreq).(1);
  ignore (Comm.wait c sreq);
  Alcotest.(check bool) "drained after waits" true (Comm.all_drained c)

let test_wait_never_posted_deadlocks () =
  let c = Comm.create ~n_ranks:2 in
  let req = Comm.irecv c ~src:1 ~dst:0 in
  Alcotest.check_raises "deadlock detected"
    (Failure "Comm.wait: deadlock: no message in flight from rank 1 to rank 0")
    (fun () -> ignore (Comm.wait c req))

let test_recv_sees_staged_messages () =
  (* A blocking [recv] must find messages that were only isend-staged. *)
  let c = Comm.create ~n_ranks:2 in
  ignore (Comm.isend c ~src:0 ~dst:1 [| 7.0 |]);
  Alcotest.(check (float 0.0)) "recv delivers staged" 7.0
    (Comm.recv c ~src:0 ~dst:1).(0)

let test_channel_fifo_with_mixed_sends () =
  (* FIFO holds within a channel whatever the delivery schedule. *)
  let c = Comm.create ~n_ranks:2 in
  ignore (Comm.isend c ~src:0 ~dst:1 [| 1.0 |]);
  ignore (Comm.isend c ~src:0 ~dst:1 [| 2.0 |]);
  ignore (Comm.deliver_one c ~src:0 ~dst:1);
  ignore (Comm.isend c ~src:0 ~dst:1 [| 3.0 |]);
  Alcotest.(check (float 0.0)) "first" 1.0 (Comm.recv c ~src:0 ~dst:1).(0);
  Alcotest.(check (float 0.0)) "second" 2.0 (Comm.recv c ~src:0 ~dst:1).(0);
  Alcotest.(check (float 0.0)) "third" 3.0 (Comm.recv c ~src:0 ~dst:1).(0)

let test_waitall_and_channels () =
  let c = Comm.create ~n_ranks:3 in
  ignore (Comm.isend c ~src:2 ~dst:0 [| 3.0 |]);
  ignore (Comm.isend c ~src:0 ~dst:1 [| 1.0 |]);
  Alcotest.(check (list (pair int int))) "channels in (src, dst) order"
    [ (0, 1); (2, 0) ]
    (Comm.in_flight_channels c);
  let r1 = Comm.irecv c ~src:0 ~dst:1 in
  let r2 = Comm.irecv c ~src:2 ~dst:0 in
  Comm.waitall c [ r1; r2 ];
  Alcotest.(check (option (float 0.0))) "r1 payload" (Some 1.0)
    (Option.map (fun p -> p.(0)) (Comm.request_payload r1));
  Alcotest.(check (option (float 0.0))) "r2 payload" (Some 3.0)
    (Option.map (fun p -> p.(0)) (Comm.request_payload r2));
  Alcotest.(check bool) "drained" true (Comm.all_drained c)

(* Two ranks, each owning 2 elements plus 1 halo slot mirroring the peer's
   first element:
     rank 0 local: [o0; o1; h(=peer slot 0)]
     rank 1 local: [o0; o1; h(=peer slot 0)] *)
let two_rank_plan () =
  Halo.create ~n_ranks:2
    ~exports:[| [| [||]; [| 0 |] |]; [| [| 0 |]; [||] |] |]
    ~imports:[| [| [||]; [| 2 |] |]; [| [| 2 |]; [||] |] |]

let test_halo_exchange () =
  let plan = two_rank_plan () in
  let data = [| [| 10.0; 11.0; 0.0 |]; [| 20.0; 21.0; 0.0 |] |] in
  let c = Comm.create ~n_ranks:2 in
  Halo.exchange c plan ~dim:1 data;
  Alcotest.(check (float 0.0)) "rank0 halo" 20.0 data.(0).(2);
  Alcotest.(check (float 0.0)) "rank1 halo" 10.0 data.(1).(2);
  Alcotest.(check bool) "all delivered" true (Comm.all_drained c)

let test_halo_reduce () =
  let plan = two_rank_plan () in
  (* Halo slots hold partial contributions for the peer's element 0. *)
  let data = [| [| 1.0; 0.0; 5.0 |]; [| 2.0; 0.0; 7.0 |] |] in
  let c = Comm.create ~n_ranks:2 in
  Halo.reduce c plan ~dim:1 data;
  Alcotest.(check (float 0.0)) "rank0 owner accumulated" (1.0 +. 7.0) data.(0).(0);
  Alcotest.(check (float 0.0)) "rank1 owner accumulated" (2.0 +. 5.0) data.(1).(0)

let test_halo_exchange_dim2 () =
  let plan = two_rank_plan () in
  let data =
    [| [| 1.0; 2.0; 3.0; 4.0; 0.0; 0.0 |]; [| 5.0; 6.0; 7.0; 8.0; 0.0; 0.0 |] |]
  in
  let c = Comm.create ~n_ranks:2 in
  Halo.exchange c plan ~dim:2 data;
  Alcotest.(check (float 0.0)) "component 0" 5.0 data.(0).(4);
  Alcotest.(check (float 0.0)) "component 1" 6.0 data.(0).(5)

let test_halo_volume_and_peers () =
  let plan = two_rank_plan () in
  Alcotest.(check int) "volume" 2 (Halo.volume plan);
  Alcotest.(check int) "peers" 1 (Halo.max_peers plan)

let test_halo_shape_mismatch_rejected () =
  Alcotest.check_raises "export/import mismatch"
    (Invalid_argument "Halo.create: export 0->1 does not match import") (fun () ->
      ignore
        (Halo.create ~n_ranks:2
           ~exports:[| [| [||]; [| 0; 1 |] |]; [| [||]; [||] |] |]
           ~imports:[| [| [||]; [||] |]; [| [| 2 |]; [||] |] |]))

let test_exchange_then_reduce_roundtrip () =
  (* Property-style check on a ring of 4 ranks, each owning 3 elements and
     importing the "previous" rank's last element. *)
  let n_ranks = 4 in
  let exports = Array.init n_ranks (fun _ -> Array.make n_ranks [||]) in
  let imports = Array.init n_ranks (fun _ -> Array.make n_ranks [||]) in
  for r = 0 to n_ranks - 1 do
    let next = (r + 1) mod n_ranks in
    exports.(r).(next) <- [| 2 |];
    imports.(next).(r) <- [| 3 |]
  done;
  let plan = Halo.create ~n_ranks ~exports ~imports in
  let data = Array.init n_ranks (fun r -> [| Float.of_int r; 0.0; 10.0 *. Float.of_int r; 0.0 |]) in
  let c = Comm.create ~n_ranks in
  Halo.exchange c plan ~dim:1 data;
  for r = 0 to n_ranks - 1 do
    let prev = (r + n_ranks - 1) mod n_ranks in
    Alcotest.(check (float 0.0)) "halo holds prev rank's value"
      (10.0 *. Float.of_int prev) data.(r).(3)
  done;
  (* Now accumulate 1.0 in every halo slot and reduce: every owner's slot 2
     gains exactly 1.0. *)
  let before = Array.map (fun d -> d.(2)) data in
  Array.iter (fun d -> d.(3) <- 1.0) data;
  Halo.reduce c plan ~dim:1 data;
  for r = 0 to n_ranks - 1 do
    Alcotest.(check (float 0.0)) "owner gained contribution" (before.(r) +. 1.0)
      data.(r).(2)
  done

let () =
  Alcotest.run "simmpi"
    [
      ( "comm",
        [
          Alcotest.test_case "fifo" `Quick test_comm_fifo;
          Alcotest.test_case "stats" `Quick test_comm_stats;
          Alcotest.test_case "recv empty fails" `Quick test_comm_recv_empty_fails;
          Alcotest.test_case "drained" `Quick test_comm_drained;
          Alcotest.test_case "isend stays in flight" `Quick test_isend_stays_in_flight;
          Alcotest.test_case "wait never-posted deadlocks" `Quick
            test_wait_never_posted_deadlocks;
          Alcotest.test_case "recv sees staged" `Quick test_recv_sees_staged_messages;
          Alcotest.test_case "channel fifo mixed" `Quick
            test_channel_fifo_with_mixed_sends;
          Alcotest.test_case "waitall and channels" `Quick test_waitall_and_channels;
        ] );
      ( "halo",
        [
          Alcotest.test_case "exchange" `Quick test_halo_exchange;
          Alcotest.test_case "reduce" `Quick test_halo_reduce;
          Alcotest.test_case "exchange dim=2" `Quick test_halo_exchange_dim2;
          Alcotest.test_case "volume/peers" `Quick test_halo_volume_and_peers;
          Alcotest.test_case "shape mismatch" `Quick test_halo_shape_mismatch_rejected;
          Alcotest.test_case "ring roundtrip" `Quick test_exchange_then_reduce_roundtrip;
        ] );
    ]

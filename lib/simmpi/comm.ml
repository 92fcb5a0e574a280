(* In-process message-passing simulator.

   The distributed-memory backends of OP2/OPS run on this instead of real
   MPI: ranks are slots of one process, executed in a BSP style (compute
   phase over all ranks, then exchange phase).  Messages are FIFO per
   (src, dst) channel.  Every transfer is recorded so the performance model
   can translate observed communication volumes into cluster-scale timings,
   and so tests can assert that e.g. a loop with only direct arguments sends
   nothing.

   Two API levels coexist:

   - blocking [send]/[recv]: a send is delivered immediately; a recv pops the
     oldest delivered message or fails (a deadlock in the simulated program);
   - non-blocking [isend]/[irecv]/[wait]/[waitall]: an isend *stages* its
     payload in flight without delivering it, and the matching payload only
     becomes receivable after delivery.  Delivery normally happens inside
     [wait]/[recv], but tests can drive it one message at a time with
     [deliver_one] to enumerate delivery schedules (dejafu-style): FIFO order
     is preserved within a channel, while the interleaving *across* channels
     is up to the driver. *)

module Obs = Am_obs.Obs
module Counters = Am_obs.Counters
module Cat = Am_obs.Tracer

type stats = {
  mutable messages : int;
  mutable bytes : int;
  mutable exchanges : int; (* collective halo-exchange rounds *)
  mutable reductions : int;
}

(* Reliable-transport state, allocated only when a fault injector is
   attached.  Every message then travels inside a sequence-numbered,
   CRC-verified envelope; the receiver discards corrupt and stale copies,
   stashes early ones, and drives capped retransmission with backoff from
   the sender-side buffer when the expected sequence number times out (in
   simulated deliver-steps).  All fields are per (src, dst) channel. *)
type reliable = {
  fault : Fault.t;
  send_seq : int array; (* next sequence number to assign *)
  recv_seq : int array; (* next sequence number to accept *)
  sent : (int, float array) Hashtbl.t array; (* clean payloads, for retransmit *)
  stash : (int, float array) Hashtbl.t array; (* early out-of-order payloads *)
  delayed : (int ref * float array) Queue.t array; (* maturing envelopes *)
}

type t = {
  n_ranks : int;
  channels : float array Queue.t array; (* delivered; indexed src * n_ranks + dst *)
  staged : float array Queue.t array; (* isend'd, still in flight *)
  stats : stats;
  mutable reliable : reliable option;
}

(* A request handle carries its own byte accounting so callers can attribute
   traffic per exchange phase, not just per communicator. *)
type request =
  | Send_req of { src : int; dst : int; bytes : int; mutable completed : bool }
  | Recv_req of { src : int; dst : int; mutable payload : float array option }

let create ~n_ranks =
  if n_ranks <= 0 then invalid_arg "Comm.create: n_ranks must be positive";
  {
    n_ranks;
    channels = Array.init (n_ranks * n_ranks) (fun _ -> Queue.create ());
    staged = Array.init (n_ranks * n_ranks) (fun _ -> Queue.create ());
    stats = { messages = 0; bytes = 0; exchanges = 0; reductions = 0 };
    reliable = None;
  }

let n_ranks t = t.n_ranks

let stats t = t.stats

(* Collective-round accounting shared by the halo layers: bump the
   communicator's stats and the global observability counters together so
   the two views cannot drift. *)
let count_exchange t =
  t.stats.exchanges <- t.stats.exchanges + 1;
  Counters.incr Obs.comm_exchanges

let count_reduction t =
  t.stats.reductions <- t.stats.reductions + 1;
  Counters.incr Obs.comm_reductions

let reset_stats t =
  t.stats.messages <- 0;
  t.stats.bytes <- 0;
  t.stats.exchanges <- 0;
  t.stats.reductions <- 0

let check_rank t r name =
  if r < 0 || r >= t.n_ranks then invalid_arg ("Comm." ^ name ^ ": rank out of range")

let chan t ~src ~dst = (src * t.n_ranks) + dst

(* ---- Controlled delivery scheduling ----------------------------------- *)

(* A chooser intercepts every implicit delivery a wait/recv would perform
   and picks which in-flight channel delivers next.  It is process-global
   (like the Obs singletons) because communicators are constructed deep
   inside the facades, far from the test harness that wants to steer them;
   schedule explorers install one around each run and must remove it again
   (the Schedcheck library wraps runs in [Fun.protect]).  With no chooser
   installed every path below is byte-for-byte the historical behaviour. *)
type chooser = needed:int * int -> enabled:(int * int) list -> int * int

let chooser_ref : chooser option ref = ref None

let set_chooser c = chooser_ref := c
let current_chooser () = !chooser_ref

(* Move one in-flight message of a channel into the receivable queue. *)
let deliver_one t ~src ~dst =
  check_rank t src "deliver_one";
  check_rank t dst "deliver_one";
  let c = chan t ~src ~dst in
  if Queue.is_empty t.staged.(c) then false
  else begin
    Queue.push (Queue.pop t.staged.(c)) t.channels.(c);
    true
  end

(* Deliver everything in flight on one channel (FIFO preserved). *)
let deliver_channel t ~src ~dst =
  while deliver_one t ~src ~dst do
    ()
  done

let in_flight t ~src ~dst =
  check_rank t src "in_flight";
  check_rank t dst "in_flight";
  Queue.length t.staged.(chan t ~src ~dst)

(* Channels with staged messages, in deterministic (src, dst) order. *)
let in_flight_channels t =
  let acc = ref [] in
  for src = t.n_ranks - 1 downto 0 do
    for dst = t.n_ranks - 1 downto 0 do
      if not (Queue.is_empty t.staged.(chan t ~src ~dst)) then
        acc := (src, dst) :: !acc
    done
  done;
  !acc

(* Deliver until the (src, dst) channel has a receivable message or nothing
   staged remains on it.  Without a chooser this is [deliver_channel]; with
   one, every delivery is a scheduling decision: the chooser may interleave
   deliveries of *other* channels before the needed one.  Termination: each
   choice removes one staged message somewhere, and the needed channel stays
   enabled until the chooser finally picks it. *)
let drive t ~src ~dst =
  match !chooser_ref with
  | None -> deliver_channel t ~src ~dst
  | Some choose ->
    let c = chan t ~src ~dst in
    while Queue.is_empty t.channels.(c) && not (Queue.is_empty t.staged.(c)) do
      let enabled = in_flight_channels t in
      let s, d = choose ~needed:(src, dst) ~enabled in
      if not (deliver_one t ~src:s ~dst:d) then
        invalid_arg "Comm: schedule chooser picked a channel with nothing staged"
    done

(* Deliver everything staged on the (src, dst) channel — the reliable
   transport drains its channel once per simulated deliver-step — again
   giving an installed chooser the cross-channel interleaving decisions. *)
let drain t ~src ~dst =
  match !chooser_ref with
  | None -> deliver_channel t ~src ~dst
  | Some choose ->
    let c = chan t ~src ~dst in
    while not (Queue.is_empty t.staged.(c)) do
      let enabled = in_flight_channels t in
      let s, d = choose ~needed:(src, dst) ~enabled in
      if not (deliver_one t ~src:s ~dst:d) then
        invalid_arg "Comm: schedule chooser picked a channel with nothing staged"
    done

(* ---- Reliable transport (fault injection attached) -------------------- *)

let attach_fault t fault =
  let n = t.n_ranks * t.n_ranks in
  t.reliable <-
    Some
      {
        fault;
        send_seq = Array.make n 0;
        recv_seq = Array.make n 0;
        sent = Array.init n (fun _ -> Hashtbl.create 8);
        stash = Array.init n (fun _ -> Hashtbl.create 8);
        delayed = Array.init n (fun _ -> Queue.create ());
      }

let fault t = Option.map (fun r -> r.fault) t.reliable

(* Envelope layout: [| magic; seq; crc; payload... |].  The CRC covers the
   sequence number and the payload, so a bit flip anywhere in the envelope
   (header included) is detected; the magic word guards against the header
   itself being flipped into a plausible CRC. *)
let env_magic = Int64.float_of_bits 0x414D_4641_554C_5431L (* "AMFAULT1" *)

let env_crc ~seq payload =
  let acc = Am_util.Crc.add_float Am_util.Crc.start (float_of_int seq) in
  float_of_int (Am_util.Crc.finish (Array.fold_left Am_util.Crc.add_float acc payload))

let make_envelope ~seq payload =
  let n = Array.length payload in
  let env = Array.make (3 + n) 0.0 in
  env.(0) <- env_magic;
  env.(1) <- float_of_int seq;
  env.(2) <- env_crc ~seq payload;
  Array.blit payload 0 env 3 n;
  env

(* (seq, payload) of a verified envelope; [None] when the magic or the CRC
   does not check out (injected corruption, detected). *)
let parse_envelope env =
  if Array.length env < 3 then None
  else if Int64.bits_of_float env.(0) <> Int64.bits_of_float env_magic then None
  else begin
    let seq = int_of_float env.(1) in
    let payload = Array.sub env 3 (Array.length env - 3) in
    if Int64.bits_of_float (env_crc ~seq payload) <> Int64.bits_of_float env.(2) then
      None
    else Some (seq, payload)
  end

(* Stage one envelope through the injector: deliver, drop, duplicate, or
   park it in the delayed queue for a few deliver-steps (later messages of
   the channel then overtake it — the reorder fault). *)
let inject t rel ~src ~dst env =
  let c = chan t ~src ~dst in
  let env =
    match Fault.corrupted rel.fault env with
    | Some flipped ->
      Counters.incr Obs.fault_corruptions;
      flipped
    | None -> env
  in
  match Fault.classify rel.fault with
  | Fault.Deliver -> Queue.push env t.staged.(c)
  | Fault.Drop ->
    Counters.incr Obs.fault_drops;
    if Obs.tracing () then Obs.instant ~lane:src ~cat:Cat.Fault "drop"
  | Fault.Duplicate ->
    Counters.incr Obs.fault_dups;
    Queue.push env t.staged.(c);
    Queue.push (Array.copy env) t.staged.(c)
  | Fault.Delay steps ->
    Counters.incr Obs.fault_delays;
    Queue.push (ref steps, env) rel.delayed.(c)

(* One simulated deliver-step of a channel's delayed queue: matured
   envelopes move (in parked order) into the in-flight queue. *)
let tick_delayed t rel c =
  let q = rel.delayed.(c) in
  for _ = 1 to Queue.length q do
    let (left, env) = Queue.pop q in
    decr left;
    if !left <= 0 then Queue.push env t.staged.(c) else Queue.push (left, env) q
  done

let reliable_isend t rel ~src ~dst payload =
  let c = chan t ~src ~dst in
  let seq = rel.send_seq.(c) in
  rel.send_seq.(c) <- seq + 1;
  Hashtbl.replace rel.sent.(c) seq payload;
  let env = make_envelope ~seq payload in
  let bytes = 8 * Array.length env in
  t.stats.messages <- t.stats.messages + 1;
  t.stats.bytes <- t.stats.bytes + bytes;
  Counters.incr Obs.comm_messages;
  Counters.add Obs.comm_bytes bytes;
  inject t rel ~src ~dst env;
  bytes

(* Timeout/backoff policy, in simulated deliver-steps: retry [r] waits
   [timeout_steps lsl r] steps before retransmitting. *)
let timeout_steps = 4
let max_retries = 6

(* Blocking receive of the channel's next in-order message.  Drives the
   deliver-step clock (maturing delayed messages), discards corrupt and
   stale envelopes, stashes early ones, and retransmits from the sender
   buffer on timeout.  Raises [Fault.Unrecoverable] — never the plain
   deadlock [Failure] — when the message cannot be obtained. *)
let reliable_receive t rel ~src ~dst =
  let c = chan t ~src ~dst in
  let expected = rel.recv_seq.(c) in
  let accept payload =
    rel.recv_seq.(c) <- expected + 1;
    Hashtbl.remove rel.sent.(c) expected;
    Hashtbl.remove rel.stash.(c) expected;
    payload
  in
  match Hashtbl.find_opt rel.stash.(c) expected with
  | Some payload -> accept payload
  | None ->
    let result = ref None in
    (try
       for retry = 0 to max_retries do
         let steps = timeout_steps lsl retry in
         let step = ref 0 in
         while !result = None && !step < steps do
           incr step;
           tick_delayed t rel c;
           drain t ~src ~dst;
           let q = t.channels.(c) in
           while !result = None && not (Queue.is_empty q) do
             match parse_envelope (Queue.pop q) with
             | None ->
               Counters.incr Obs.fault_crc_failures;
               if Obs.tracing () then
                 Obs.instant ~lane:dst ~cat:Cat.Fault "crc_failure"
             | Some (seq, payload) ->
               if seq < expected then Counters.incr Obs.fault_stale
               else if seq > expected then Hashtbl.replace rel.stash.(c) seq payload
               else result := Some payload
           done;
           (* Nothing in flight and nothing maturing: further steps of this
              window cannot help, jump straight to the timeout. *)
           if
             !result = None
             && Queue.is_empty t.staged.(c)
             && Queue.is_empty rel.delayed.(c)
           then step := steps
         done;
         if !result <> None then raise Exit;
         if retry < max_retries then begin
           Counters.incr Obs.fault_timeouts;
           match Hashtbl.find_opt rel.sent.(c) expected with
           | Some payload ->
             Counters.incr Obs.fault_retransmits;
             if Obs.tracing () then
               Obs.instant ~lane:src ~cat:Cat.Fault
                 ~args:[ ("seq", float_of_int expected); ("retry", float_of_int retry) ]
                 "retransmit";
             inject t rel ~src ~dst (make_envelope ~seq:expected payload)
           | None ->
             raise
               (Fault.Unrecoverable
                  (Printf.sprintf
                     "message %d->%d seq %d: nothing in flight and no retransmit \
                      source (simulated deadlock)"
                     src dst expected))
         end
       done;
       raise
         (Fault.Unrecoverable
            (Printf.sprintf "message %d->%d seq %d lost after %d retransmits" src dst
               expected max_retries))
     with Exit -> ());
    accept (Option.get !result)

let isend t ~src ~dst payload =
  check_rank t src "isend";
  check_rank t dst "isend";
  match t.reliable with
  | Some rel ->
    let bytes = reliable_isend t rel ~src ~dst payload in
    Send_req { src; dst; bytes; completed = false }
  | None ->
    let bytes = 8 * Array.length payload in
    let traced = Obs.tracing () in
    if traced then
      Obs.begin_span ~lane:src ~cat:Cat.Halo_post
        ~args:[ ("dst", float_of_int dst); ("bytes", float_of_int bytes) ]
        "isend";
    Queue.push payload t.staged.(chan t ~src ~dst);
    t.stats.messages <- t.stats.messages + 1;
    t.stats.bytes <- t.stats.bytes + bytes;
    Counters.incr Obs.comm_messages;
    Counters.add Obs.comm_bytes bytes;
    if traced then Obs.end_span ~lane:src ();
    Send_req { src; dst; bytes; completed = false }

let irecv t ~src ~dst =
  check_rank t src "irecv";
  check_rank t dst "irecv";
  Recv_req { src; dst; payload = None }

(* Completing a send needs nothing: the payload is already buffered in
   flight.  Completing a recv forces delivery of its channel, then pops;
   with nothing staged or delivered, the simulated program has deadlocked.
   Returns the received payload ([||] for sends). *)
let wait t req =
  match req with
  | Send_req r ->
    r.completed <- true;
    [||]
  | Recv_req r -> (
    match r.payload with
    | Some p -> p
    | None ->
      let traced = Obs.tracing () in
      if traced then
        Obs.begin_span ~lane:r.dst ~cat:Cat.Halo_wait
          ~args:[ ("src", float_of_int r.src) ]
          "wait";
      let p =
        match t.reliable with
        | Some rel -> reliable_receive t rel ~src:r.src ~dst:r.dst
        | None ->
          drive t ~src:r.src ~dst:r.dst;
          let q = t.channels.(chan t ~src:r.src ~dst:r.dst) in
          if Queue.is_empty q then
            failwith
              (Printf.sprintf
                 "Comm.wait: deadlock: no message in flight from rank %d to rank %d"
                 r.src r.dst);
          Queue.pop q
      in
      r.payload <- Some p;
      if traced then
        Obs.end_span ~lane:r.dst ();
      p)

let waitall t reqs = List.iter (fun r -> ignore (wait t r)) reqs

let request_bytes = function
  | Send_req r -> r.bytes
  | Recv_req r -> ( match r.payload with Some p -> 8 * Array.length p | None -> 0)

let request_payload = function
  | Send_req _ -> None
  | Recv_req r -> r.payload

(* Blocking send: delivered immediately (an isend followed by a full channel
   delivery observes exactly the same state).  Under fault injection the
   message instead goes through the reliable transport — staged, enveloped
   and injected — which [recv] forces delivery of anyway. *)
let send t ~src ~dst payload =
  check_rank t src "send";
  check_rank t dst "send";
  match t.reliable with
  | Some rel -> ignore (reliable_isend t rel ~src ~dst payload)
  | None ->
    let bytes = 8 * Array.length payload in
    if Obs.tracing () then
      Obs.instant ~lane:src ~cat:Cat.Halo_post
        ~args:[ ("dst", float_of_int dst); ("bytes", float_of_int bytes) ]
        "send";
    Queue.push payload t.channels.(chan t ~src ~dst);
    t.stats.messages <- t.stats.messages + 1;
    t.stats.bytes <- t.stats.bytes + bytes;
    Counters.incr Obs.comm_messages;
    Counters.add Obs.comm_bytes bytes

let recv t ~src ~dst =
  check_rank t src "recv";
  check_rank t dst "recv";
  if Obs.tracing () then
    Obs.instant ~lane:dst ~cat:Cat.Halo_wait ~args:[ ("src", float_of_int src) ] "recv";
  match t.reliable with
  | Some rel -> reliable_receive t rel ~src ~dst
  | None ->
    drive t ~src ~dst;
    let q = t.channels.(chan t ~src ~dst) in
    if Queue.is_empty q then
      failwith
        (Printf.sprintf "Comm.recv: no message pending from rank %d to rank %d" src dst);
    Queue.pop q

let pending t ~src ~dst =
  check_rank t src "pending";
  check_rank t dst "pending";
  let c = chan t ~src ~dst in
  Queue.length t.channels.(c) + Queue.length t.staged.(c)
  + match t.reliable with
    | Some rel -> Queue.length rel.delayed.(c) + Hashtbl.length rel.stash.(c)
    | None -> 0

let all_drained t =
  Array.for_all Queue.is_empty t.channels
  && Array.for_all Queue.is_empty t.staged
  &&
  match t.reliable with
  | Some rel ->
    Array.for_all Queue.is_empty rel.delayed
    && Array.for_all (fun h -> Hashtbl.length h = 0) rel.stash
  | None -> true

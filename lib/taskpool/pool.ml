(* A small fork-join pool over OCaml 5 domains.

   This is the shared-memory substrate the paper's OpenMP backends map onto:
   the pool executes colour-by-colour block schedules produced by the OP2/OPS
   planners.  We keep [size - 1] persistent worker domains parked on a
   condition variable; the caller participates in every job, so [size = 1]
   degenerates to plain sequential execution with no synchronisation.

   Protocol: each job bumps [epoch]; workers run the shared [job] thunk when
   they observe a new epoch and decrement [active] when done.  The caller
   waits until [active] reaches zero.  The thunks are data-races-free by
   construction upstream (colouring), so the pool itself needs no knowledge
   of the iteration space: jobs self-schedule via an atomic cursor. *)

type t = {
  size : int;
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable job : (unit -> unit) option;
  mutable epoch : int;
  mutable active : int;
  mutable shutdown : bool;
  mutable failure : exn option;
  mutable domains : unit Domain.t list;
  (* Occupancy telemetry, live only while span tracing is on (checked once
     per job by the caller): per-member busy microseconds for the current
     job and the end timestamp of each member's previous job (for idle
     spans).  Members write their own slot; the caller reads after the
     job's completion barrier. *)
  mutable telemetry : bool;
  busy_us : float array;
  last_done_us : float array;
}

(* Worker timelines sit on their own lane block in the tracer so they never
   collide with the per-rank lanes of the distributed backends; the caller
   participates as member 0. *)
let worker_lane_base = 64

(* Time one job body on member [wid]'s lane: an idle span covering the gap
   since the member's previous job, then a busy span for the body itself. *)
let run_timed t wid body =
  let tracer = Am_obs.Obs.tracer in
  let lane = worker_lane_base + wid in
  let t0 = Am_obs.Tracer.now_us tracer in
  let prev = t.last_done_us.(wid) in
  if prev > 0.0 && prev < t0 then
    Am_obs.Tracer.complete_span tracer ~lane ~cat:Am_obs.Tracer.Worker ~ts:prev
      ~dur:(t0 -. prev) "idle";
  Fun.protect body ~finally:(fun () ->
      let t1 = Am_obs.Tracer.now_us tracer in
      Am_obs.Tracer.complete_span tracer ~lane ~cat:Am_obs.Tracer.Worker ~ts:t0
        ~dur:(t1 -. t0) "busy";
      t.busy_us.(wid) <- t.busy_us.(wid) +. (t1 -. t0);
      t.last_done_us.(wid) <- t1)

let worker_loop t wid () =
  let last_epoch = ref 0 in
  Mutex.lock t.mutex;
  let rec loop () =
    while (not t.shutdown) && t.epoch = !last_epoch do
      Condition.wait t.work_ready t.mutex
    done;
    if t.shutdown then Mutex.unlock t.mutex
    else begin
      last_epoch := t.epoch;
      let job = t.job in
      let timed = t.telemetry in
      Mutex.unlock t.mutex;
      let failed =
        match job with
        | None -> None
        | Some body -> (
          try
            (if timed then run_timed t wid body else body ());
            None
          with e -> Some e)
      in
      Mutex.lock t.mutex;
      (match failed with
      | Some e when t.failure = None -> t.failure <- Some e
      | Some _ | None -> ());
      t.active <- t.active - 1;
      if t.active = 0 then Condition.broadcast t.work_done;
      loop ()
    end
  in
  loop ()

let create ?size () =
  let default = Domain.recommended_domain_count () in
  let size = match size with Some s -> max 1 s | None -> default in
  let t =
    {
      size;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      job = None;
      epoch = 0;
      active = 0;
      shutdown = false;
      failure = None;
      domains = [];
      telemetry = false;
      busy_us = Array.make size 0.0;
      last_done_us = Array.make size 0.0;
    }
  in
  t.domains <- List.init (size - 1) (fun i -> Domain.spawn (worker_loop t (i + 1)));
  t

let size t = t.size

let shutdown t =
  Mutex.lock t.mutex;
  if not t.shutdown then begin
    t.shutdown <- true;
    Condition.broadcast t.work_ready
  end;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains;
  t.domains <- []

(* Run [body] on every member of the pool (including the caller) and wait for
   all of them.  [body] must be safe to run concurrently with itself. *)
let run_on_all t body =
  if t.size = 1 then body ()
  else if (Mutex.lock t.mutex;
           let dead = t.shutdown in
           Mutex.unlock t.mutex;
           dead)
  then
    (* A job submitted after [shutdown] runs caller-only: the worker
       domains are gone, so queueing it would wait on [work_done] forever. *)
    body ()
  else begin
    let telemetry = Am_obs.Obs.tracing () in
    let wall_t0 =
      if telemetry then begin
        let tracer = Am_obs.Obs.tracer in
        (* Lane growth and naming are not domain-safe, so settle both
           before the broadcast wakes any worker. *)
        Am_obs.Tracer.reserve_lanes tracer (worker_lane_base + t.size);
        for i = 0 to t.size - 1 do
          if Am_obs.Tracer.lane_name tracer (worker_lane_base + i) = None then
            Am_obs.Tracer.set_lane_name tracer ~lane:(worker_lane_base + i)
              ("worker " ^ string_of_int i)
        done;
        Array.fill t.busy_us 0 t.size 0.0;
        Am_obs.Tracer.now_us tracer
      end
      else 0.0
    in
    Mutex.lock t.mutex;
    t.job <- Some body;
    t.failure <- None;
    t.telemetry <- telemetry;
    t.active <- t.size - 1;
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.mutex;
    let caller_exn =
      try
        (if telemetry then run_timed t 0 body else body ());
        None
      with e -> Some e
    in
    Mutex.lock t.mutex;
    while t.active > 0 do
      Condition.wait t.work_done t.mutex
    done;
    t.job <- None;
    let worker_exn = t.failure in
    Mutex.unlock t.mutex;
    if telemetry then begin
      (* Capacity = wall time x pool size; occupancy is the process-lifetime
         ratio so repeated jobs converge on a stable utilisation figure. *)
      let wall_s = (Am_obs.Tracer.now_us Am_obs.Obs.tracer -. wall_t0) /. 1e6 in
      let busy_s = Array.fold_left ( +. ) 0.0 t.busy_us /. 1e6 in
      Am_obs.Counters.addf Am_obs.Obs.pool_busy_seconds busy_s;
      Am_obs.Counters.addf Am_obs.Obs.pool_wall_seconds (wall_s *. float_of_int t.size);
      let cap = Am_obs.Counters.valuef Am_obs.Obs.pool_wall_seconds in
      if cap > 0.0 then
        Am_obs.Counters.set Am_obs.Obs.pool_occupancy
          (Am_obs.Counters.valuef Am_obs.Obs.pool_busy_seconds /. cap)
    end;
    match (caller_exn, worker_exn) with
    | Some e, _ -> raise e
    | None, Some e -> raise e
    | None, None -> ()
  end

let default_chunk t n = max 1 (n / (t.size * 8))

let parallel_for ?chunk t ~lo ~hi f =
  let n = hi - lo in
  if n > 0 then begin
    let chunk = match chunk with Some c -> max 1 c | None -> default_chunk t n in
    if t.size = 1 || n <= chunk then f lo hi
    else begin
      let cursor = Atomic.make lo in
      let body () =
        let rec grab () =
          let start = Atomic.fetch_and_add cursor chunk in
          if start < hi then begin
            f start (min hi (start + chunk));
            grab ()
          end
        in
        grab ()
      in
      run_on_all t body
    end
  end

(* Variant of [parallel_for] with worker-local state: each participating
   member creates its state lazily on its first chunk and reuses it for every
   further chunk it grabs — the pooled-buffer pattern the OP2/OPS reduction
   backends use to avoid per-chunk allocation and a serialising merge mutex.
   Returns the states actually created (at most [size t]) for a caller-side
   tree merge. *)
let parallel_for_local ?chunk t ~lo ~hi ~local ~body =
  let n = hi - lo in
  if n <= 0 then []
  else begin
    let chunk = match chunk with Some c -> max 1 c | None -> default_chunk t n in
    if t.size = 1 || n <= chunk then begin
      let st = local () in
      body st lo hi;
      [ st ]
    end
    else begin
      let cursor = Atomic.make lo in
      let states = ref [] in
      let states_mutex = Mutex.create () in
      let work () =
        let st = ref None in
        let rec grab () =
          let start = Atomic.fetch_and_add cursor chunk in
          if start < hi then begin
            let s =
              match !st with
              | Some s -> s
              | None ->
                let s = local () in
                st := Some s;
                s
            in
            body s start (min hi (start + chunk));
            grab ()
          end
        in
        grab ();
        match !st with
        | None -> ()
        | Some s ->
          Mutex.lock states_mutex;
          states := s :: !states;
          Mutex.unlock states_mutex
      in
      run_on_all t work;
      !states
    end
  end

(* Execute the blocks listed in [blocks] (indices into some block table)
   with dynamic self-scheduling and worker-local state: the unit of work is
   one block, matching OP2's "blocks of one colour run concurrently"
   execution model; same state contract as [parallel_for_local]. *)
let parallel_iter_indices_local t blocks ~local ~body =
  let n = Array.length blocks in
  if n = 0 then []
  else if t.size = 1 then begin
    let st = local () in
    Array.iter (body st) blocks;
    [ st ]
  end
  else begin
    let cursor = Atomic.make 0 in
    let states = ref [] in
    let states_mutex = Mutex.create () in
    let work () =
      let st = ref None in
      let rec grab () =
        let i = Atomic.fetch_and_add cursor 1 in
        if i < n then begin
          let s =
            match !st with
            | Some s -> s
            | None ->
              let s = local () in
              st := Some s;
              s
          in
          body s blocks.(i);
          grab ()
        end
      in
      grab ();
      match !st with
      | None -> ()
      | Some s ->
        Mutex.lock states_mutex;
        states := s :: !states;
        Mutex.unlock states_mutex
    in
    run_on_all t work;
    !states
  end

(* A lazily created process-wide pool, shared by backends that are not handed
   an explicit one. *)
let shared_pool = ref None

let shared () =
  match !shared_pool with
  | Some p -> p
  | None ->
    let p = create () in
    shared_pool := Some p;
    p

let with_pool ?size f =
  let p = create ?size () in
  Fun.protect ~finally:(fun () -> shutdown p) (fun () -> f p)

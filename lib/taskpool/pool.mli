(** Fork-join pool over OCaml 5 domains.

    This is the shared-memory execution substrate for the OP2/OPS "OpenMP"
    backends: colour-by-colour block schedules are dispatched here.  The
    calling domain always participates, so a pool of size 1 runs jobs inline
    with no synchronisation. *)

type t

(** [create ?size ()] spawns [size - 1] worker domains (default:
    [Domain.recommended_domain_count ()]). *)
val create : ?size:int -> unit -> t

(** First tracer lane used for worker occupancy timelines.  While span
    tracing is enabled, every pool job records a busy span per member (and
    an idle span covering the gap since that member's previous job) on lane
    [worker_lane_base + member], labelled "worker N", and updates the
    [pool.busy_seconds] / [pool.wall_seconds] / [pool.occupancy] cells in
    [Am_obs.Obs].  With tracing off the dispatch path is unchanged. *)
val worker_lane_base : int

(** Number of workers including the caller. *)
val size : t -> int

(** Join all worker domains. Jobs submitted afterwards run caller-only
    instead of deadlocking on the departed workers. *)
val shutdown : t -> unit

(** [parallel_for ?chunk t ~lo ~hi f] calls [f sub_lo sub_hi] over disjoint
    chunks covering [lo, hi), self-scheduled across the pool. [f] must be
    safe to run concurrently on disjoint ranges. *)
val parallel_for : ?chunk:int -> t -> lo:int -> hi:int -> (int -> int -> unit) -> unit

(** [parallel_fold ?chunk t ~lo ~hi ~init ~chunk_fold ~combine] folds each
    chunk with [chunk_fold] and combines partial results with [combine].
    [combine] must be associative; the combination order is unspecified. *)
val parallel_fold :
  ?chunk:int ->
  t ->
  lo:int ->
  hi:int ->
  init:'a ->
  chunk_fold:(int -> int -> 'a) ->
  combine:('a -> 'a -> 'a) ->
  'a

(** [parallel_iter_indices t blocks f] applies [f] to every element of
    [blocks], one block per unit of work (OP2's same-colour block schedule). *)
val parallel_iter_indices : t -> int array -> (int -> unit) -> unit

(** [parallel_for_local ?chunk t ~lo ~hi ~local ~body] is [parallel_for]
    with worker-local state: each participating member calls [local ()]
    lazily on its first chunk and passes that state to [body] for every
    chunk it self-schedules, so staging buffers and reduction accumulators
    are allocated once per worker rather than once per chunk. Returns the
    states that were created (at most [size t]) for a caller-side merge. *)
val parallel_for_local :
  ?chunk:int ->
  t ->
  lo:int ->
  hi:int ->
  local:(unit -> 'a) ->
  body:('a -> int -> int -> unit) ->
  'a list

(** Worker-local-state variant of [parallel_iter_indices]; one block per
    unit of work, same state contract as {!parallel_for_local}. *)
val parallel_iter_indices_local :
  t -> int array -> local:(unit -> 'a) -> body:('a -> int -> unit) -> 'a list

(** Process-wide shared pool, created on first use at the recommended domain
    count. Never shut down. *)
val shared : unit -> t

(** [with_pool ?size f] runs [f] with a fresh pool and always shuts it down. *)
val with_pool : ?size:int -> (t -> 'a) -> 'a

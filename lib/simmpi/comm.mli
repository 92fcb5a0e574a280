(** In-process message-passing simulator (MPI stand-in).

    Ranks are executed BSP-style within one process; messages are FIFO per
    (src, dst) channel and all traffic is recorded for the performance
    model.

    Besides the blocking [send]/[recv] pair, the simulator offers
    non-blocking [isend]/[irecv]/[wait]/[waitall] request handles: an
    [isend] stages its payload {e in flight} without delivering it, so a
    halo layer posts every message of an exchange round before it waits on
    any.  Delivery happens implicitly inside [wait]/[recv], or one message
    at a time via [deliver_one] so tests can enumerate delivery schedules
    (FIFO within a channel; interleaving across channels is the driver's
    choice). *)

type stats = {
  mutable messages : int;
  mutable bytes : int;
  mutable exchanges : int;  (** collective halo-exchange rounds *)
  mutable reductions : int;
}

type t

(** Opaque request handle returned by [isend]/[irecv]. *)
type request

val create : n_ranks:int -> t
val n_ranks : t -> int

(** Live view of the traffic counters. *)
val stats : t -> stats

val reset_stats : t -> unit

(** Count one collective halo-exchange round, in [stats] and in the global
    observability counters.  Called by the halo layers once per round. *)
val count_exchange : t -> unit

(** Count one global reduction, in [stats] and in the global observability
    counters.  The partitioned runtimes fold each rank's partials in
    process and call this once per reduced global. *)
val count_reduction : t -> unit

(** Enqueue a message. The payload is transferred by reference; senders must
    not mutate it afterwards. *)
val send : t -> src:int -> dst:int -> float array -> unit

(** Dequeue the oldest message on the (src, dst) channel (delivering any
    staged ones first); [Failure] if none is pending (a deadlock in the
    simulated program). *)
val recv : t -> src:int -> dst:int -> float array

(** Stage a message in flight on the (src, dst) channel. Counted in [stats]
    at post time; the payload is transferred by reference. *)
val isend : t -> src:int -> dst:int -> float array -> request

(** Post a receive for the oldest undelivered message on (src, dst). The
    payload materialises at [wait]. *)
val irecv : t -> src:int -> dst:int -> request

(** Complete a request. For a receive, delivers the channel's staged
    messages and returns the matched payload — raising a deadlock [Failure]
    when nothing is or ever will be available. For a send, returns [[||]].
    Waiting twice on the same receive returns the same payload. *)
val wait : t -> request -> float array

val waitall : t -> request list -> unit

(** Bytes attributed to a request: the posted size for a send, the matched
    payload size for a completed receive (0 before completion). *)
val request_bytes : request -> int

(** The payload matched to a completed receive; [None] for sends or
    incomplete receives. *)
val request_payload : request -> float array option

(** Deliver the single oldest in-flight message on a channel; false when the
    channel has nothing staged. Drives schedule-exploration tests. *)
val deliver_one : t -> src:int -> dst:int -> bool

(** Deliver everything in flight on one channel, preserving FIFO order. *)
val deliver_channel : t -> src:int -> dst:int -> unit

(** In-flight (staged, undelivered) messages on a channel. *)
val in_flight : t -> src:int -> dst:int -> int

(** Channels holding in-flight messages, in (src, dst) order. *)
val in_flight_channels : t -> (int * int) list

(** Messages currently queued on a channel (delivered plus in flight). *)
val pending : t -> src:int -> dst:int -> int

(** True when no channel holds an undelivered or in-flight message. *)
val all_drained : t -> bool

(** {1 Controlled delivery scheduling}

    Schedule explorers (the [Am_schedcheck] library) install a {e chooser}
    that intercepts every delivery a [wait]/[recv] would perform implicitly:
    whenever a receive needs its channel driven, the chooser is offered the
    set of channels with staged messages ([enabled], in (src, dst) order)
    together with the channel the receive is blocked on ([needed]), and
    returns the channel to deliver next — so the interleaving of deliveries
    across channels becomes an explicit, replayable decision sequence.  The
    chooser must return a member of [enabled] ([Invalid_argument]
    otherwise); it keeps being consulted until the needed channel can make
    the receive progress.

    The hook is process-global, like the observability singletons, because
    communicators are built deep inside the facades; installers must remove
    it when done.  With no chooser installed (the default) delivery
    behaviour is unchanged. *)

type chooser = needed:int * int -> enabled:(int * int) list -> int * int

val set_chooser : chooser option -> unit
val current_chooser : unit -> chooser option

(** {1 Fault injection and reliable transport}

    With a {!Fault} injector attached, every message travels inside a
    sequence-numbered, CRC-verified envelope and passes through the
    injector when staged (drop / duplicate / delay / bit-flip corruption).
    Receives then discard corrupt and stale copies, stash early
    out-of-order ones, and retransmit from a sender-side buffer with
    exponential backoff when the expected sequence number times out (in
    simulated deliver-steps).  An exhausted retry budget — or a receive
    with nothing in flight and no retransmit source — raises
    [Fault.Unrecoverable] instead of the deadlock [Failure].

    Without an attached injector every path is byte-for-byte the plain
    transport above: no envelopes, no sequence state, no overhead beyond
    one field test per call. *)

(** Route all subsequent traffic through the reliable enveloped transport,
    injecting faults per [fault]'s specification.  Attach before the first
    message: sequence numbering starts at the attach point. *)
val attach_fault : t -> Fault.t -> unit

val fault : t -> Fault.t option

(** Span tracer: nestable begin/end spans recorded into a preallocated ring
    buffer, exportable as Chrome trace-event JSON ([chrome://tracing] /
    Perfetto) and as a plain-text flame summary.

    Spans carry a {!category} (rendered as the Chrome [cat] field) and a
    {e lane} — the Chrome [tid]; distributed backends use one lane per
    simulated rank so the trace shows rank timelines side by side.

    When the tracer is disabled every entry point returns after one mutable
    field check and allocates nothing, so instrumentation can stay compiled
    in permanently. *)

type category =
  | Loop  (** a [par_loop] invocation *)
  | Plan  (** execution-plan construction / kernel compilation *)
  | Colour_round  (** one conflict-free colour round of an executor *)
  | Halo_pack  (** gathering export elements into a message payload *)
  | Halo_post  (** posting a non-blocking send *)
  | Halo_wait  (** waiting for a message to arrive *)
  | Halo_unpack  (** scattering a received payload into halo slots *)
  | Reduce  (** global reductions and worker-state merges *)
  | Checkpoint  (** checkpoint snapshot / restore activity *)
  | Fault  (** fault injection, detection and retransmission activity *)
  | Worker  (** taskpool worker busy/idle occupancy spans *)

val category_to_string : category -> string
(** Lower-case name used as the Chrome [cat] field ("loop", "halo_post", ...). *)

type event = {
  ev_name : string;
  ev_cat : category;
  ev_instant : bool;  (** instants have [ev_dur = 0.] *)
  ev_ts : float;  (** microseconds since the tracer epoch *)
  ev_dur : float;  (** microseconds *)
  ev_lane : int;
  ev_args : (string * float) list;
}

type t

val create : ?capacity:int -> ?clock:(unit -> float) -> unit -> t
(** [capacity] is the ring-buffer size in events (default 65536): the most
    recent [capacity] events are kept, older ones are dropped and counted.
    [clock] (default [Unix.gettimeofday]) is injectable for deterministic
    tests.  Tracers start disabled. *)

val set_enabled : t -> bool -> unit
val enabled : t -> bool

val now_us : t -> float
(** Microseconds since the tracer epoch, for callers timing their own
    spans (see {!complete_span}). *)

val set_process_name : t -> string -> unit
(** Process label for the Chrome export (default ["active_mesh"]). *)

val set_lane_name : t -> lane:int -> string -> unit
(** Label a lane's Chrome timeline ("worker 3"); unnamed lanes render as
    ["rank N"].  Names survive {!clear}. *)

val lane_name : t -> int -> string option

val reserve_lanes : t -> int -> unit
(** Pre-grow per-lane state for lanes [0..n-1].  Lane growth is not
    domain-safe, so concurrent recorders (taskpool workers) need their
    lanes reserved before they start. *)

val begin_span : t -> ?lane:int -> ?args:(string * float) list -> cat:category -> string -> unit
(** Open a span on [lane]'s stack.  [args] become Chrome [args] entries
    (ranks, byte counts).  No-op when disabled. *)

val end_span : t -> ?lane:int -> unit -> unit
(** Close the innermost open span on [lane] and record it.  An end with no
    open span only bumps {!unmatched}. *)

val with_span : t -> ?lane:int -> ?args:(string * float) list -> cat:category -> string -> (unit -> 'a) -> 'a
(** [with_span t ~cat name f] runs [f] inside a span; the span is closed
    even if [f] raises.  Calls [f] directly when disabled. *)

val instant : t -> ?lane:int -> ?args:(string * float) list -> cat:category -> string -> unit
(** Record a zero-duration marker event. *)

val complete_span :
  t -> ?lane:int -> ?args:(string * float) list -> cat:category -> ts:float -> dur:float -> string -> unit
(** Record a span whose [ts]/[dur] (microseconds, see {!now_us}) the caller
    measured itself.  Safe to call from multiple domains concurrently
    (slot allocation is atomic); no per-lane stack state is involved. *)

val clear : t -> unit
(** Drop all recorded events and open spans, and restart the epoch. *)

val events : t -> event list
(** Retained events sorted by ascending [ev_ts]. *)

val recorded : t -> int
(** Events recorded since the last {!clear} (including dropped ones). *)

val dropped : t -> int
(** Events lost to ring-buffer wrap-around. *)

val unmatched : t -> int
(** [end_span] calls that found no open span. *)

val to_chrome_json : t -> string
(** Chrome trace-event JSON: leading ["M"] metadata events name the
    process and each lane, then ["X"] (complete) events for spans, ["i"]
    for instants; [pid] 0, [tid] = lane, [ts]/[dur] in microseconds.  Load
    via [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}. *)

val write_chrome : t -> path:string -> unit

val flame_summary : t -> string
(** Plain-text flame view: spans aggregated by call path (lanes merged),
    with inclusive/self time and counts, indented by nesting depth. *)

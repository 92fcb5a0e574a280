(** Per-loop execution profile (the source of Table-I-style breakdowns). *)

type entry = {
  mutable count : int;
  mutable seconds : float;
  mutable bytes : int;  (** estimated useful bytes moved *)
  mutable elements : int;  (** iteration elements processed *)
  mutable halo_seconds : float;
      (** communication time attributed to the loop *)
  mutable gc_minor : int;
      (** minor collections during the loop (sampled only on traced runs) *)
  mutable gc_major : int;
  mutable gc_promoted_words : float;
}

type t

val create : unit -> t

val record : t -> name:string -> seconds:float -> bytes:int -> elements:int -> unit
(** Accumulates totals and feeds the per-call wall time into both the
    loop's own histogram cell and the global [Obs.loop_seconds]. *)

val record_halo : t -> name:string -> seconds:float -> unit
(** [seconds] is the time the loop spent exchanging and reducing halos;
    non-zero values also feed [Obs.halo_seconds]. *)

val record_gc : t -> name:string -> minor:int -> major:int -> promoted_words:float -> unit
(** Accumulate [Gc.quick_stat] deltas for one loop execution.  Facades call
    this only while span tracing is enabled, so untraced runs pay nothing. *)

val find : t -> string -> entry option
(** A snapshot of the loop's accumulated totals (mutating it has no effect
    on the profile). *)

val seconds_hist : t -> string -> Am_obs.Counters.histogram option
(** The loop's per-call wall-time distribution, if it has run. *)

val counters : t -> Am_obs.Counters.t
(** The registry backing this profile (keyed [loop.<name>.<field>]). *)

val obs_rows : t -> Am_obs.Obs.loop_row list
(** Per-loop rows for [Am_obs.Obs.report], sorted by descending time. *)

val reset : t -> unit
val total_seconds : t -> float
val total_halo_seconds : t -> float

(** Entries by descending total time. *)
val to_list : t -> (string * entry) list

(** Rendered table (loop, calls, time, GB, GB/s, halo time). *)
val report : t -> string

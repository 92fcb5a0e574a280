(** Halo-exchange plans over a {!Comm.t}.

    A plan pairs export slot lists with matching import slot lists for every
    ordered rank pair; one plan serves both the owner->halo push
    ([exchange]) and the halo->owner accumulation ([reduce]); both post
    every message before waiting on any. *)

type t

(** [create ~n_ranks ~exports ~imports]: [exports.(r).(p)] lists local slots
    of rank [r] sent to [p]; [imports.(p).(r)] the matching destination
    slots on [p] (equal length, same order). Raises [Invalid_argument] on
    shape mismatches. *)
val create :
  n_ranks:int -> exports:int array array array -> imports:int array array array -> t

val n_ranks : t -> int

(** Element copies moved per exchange round. *)
val volume : t -> int

(** Push owner values into halo copies: [data.(r)] is rank [r]'s local array
    with [dim] floats per element slot. *)
val exchange : Comm.t -> t -> dim:int -> float array array -> unit

(** Accumulate halo contributions back onto owners (elementwise add). The
    caller must have zeroed halo slots before the contributing loop. *)
val reduce : Comm.t -> t -> dim:int -> float array array -> unit

(** Largest peer count of any rank (network-model input). *)
val max_peers : t -> int

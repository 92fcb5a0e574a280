(** Cluster-scale execution model (the paper's Figs 4 and 6).

    Per-step node time is the device time of the rank-local share of a
    traced loop sequence; communication adds per-exchange latency, a
    bandwidth term for the halo volume (surface law, sqrt(n) in 2D, with a
    coefficient calibrated from traffic the real distributed runtime sent),
    and log-depth latency per global reduction. *)

module Descr = Am_core.Descr

type workload = {
  workload_name : string;
  step_loops : Descr.loop list;  (** one step, traced at [ref_elements] *)
  ref_elements : int;
  halo_bytes_coeff : float;
      (** bytes sent per rank per step = coeff * sqrt(n_local) *)
  exchanges_per_step : int;
  reductions_per_step : int;
  neighbours : int;
}

val messages_per_step : workload -> int

(** Surface coefficient from an observed run: total [bytes_per_step] sent by
    [ranks] ranks at local size [n_local]. *)
val calibrate_halo_coeff : bytes_per_step:float -> ranks:int -> n_local:int -> float

(** Communication seconds per step (0 on a single node): per-message
    latency and the surface-law bandwidth term of the halo exchanges, plus
    log-depth latency per global reduction. *)
val comm_time : Machines.network -> workload -> nodes:int -> n_local:int -> float

(** Seconds per step at [nodes] nodes for a [global_elements] problem: the
    rank-local compute plus {!comm_time}. *)
val step_time :
  Machines.cluster -> Model.style -> workload -> nodes:int -> global_elements:int ->
  float

type scaling_point = {
  nodes : int;
  seconds : float;
  efficiency : float;  (** vs ideal scaling from the first node count *)
}

val strong_scaling :
  Machines.cluster -> Model.style -> workload -> global_elements:int ->
  node_counts:int list -> steps:int -> scaling_point list

val weak_scaling :
  Machines.cluster -> Model.style -> workload -> elements_per_node:int ->
  node_counts:int list -> steps:int -> scaling_point list

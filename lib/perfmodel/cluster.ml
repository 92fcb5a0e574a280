(* Cluster-scale execution model (Figs 4 and 6).

   Per-step node time is the device time of the rank-local share of the
   traced loop sequence; communication adds a latency term per halo
   exchange, a bandwidth term for the halo volume (which scales with the
   local subdomain surface, sqrt(n) in 2D), and a log-depth latency term per
   global reduction.  The halo-volume coefficient is *calibrated from the
   real distributed runtime*: applications run their actual partitioned code
   on the rank simulator at a small size, measure the per-rank import volume
   recorded by [Am_simmpi.Comm], and hand the resulting surface coefficient
   to this model — the extrapolation is analytic, but its inputs come from
   executed halo plans, not guesses. *)

module Descr = Am_core.Descr

type workload = {
  workload_name : string;
  step_loops : Descr.loop list; (* one time step, traced at [ref_elements] *)
  ref_elements : int; (* global iteration elements of the traced mesh *)
  halo_bytes_coeff : float;
    (* bytes sent per rank per step = coeff * sqrt(n_local); calibrated from
       the traffic the real distributed runtime recorded at small scale *)
  exchanges_per_step : int;
  reductions_per_step : int;
  neighbours : int; (* peer ranks a rank exchanges with *)
}

let messages_per_step w = w.exchanges_per_step * w.neighbours * 2

(* Calibrate the surface coefficient from an observed run: [bytes_per_step]
   sent by all [ranks] together at local size [n_local]. *)
let calibrate_halo_coeff ~bytes_per_step ~ranks ~n_local =
  bytes_per_step /. Float.of_int ranks /. sqrt (Float.of_int (max 1 n_local))

(* Halo-exchange seconds per step on [net] for a rank holding [n_local]
   elements among [nodes]: per-message latency plus the surface-law
   bandwidth term. *)
let halo_time (net : Machines.network) w ~nodes ~n_local =
  if nodes <= 1 then 0.0
  else begin
    let halo_bytes = w.halo_bytes_coeff *. sqrt (Float.of_int n_local) in
    let latency = Float.of_int (messages_per_step w) *. net.Machines.latency in
    let bandwidth = halo_bytes /. (net.Machines.bandwidth *. 1e9) in
    latency +. bandwidth
  end

(* Global reductions are synchronisation points: log-depth latency. *)
let reduction_time (net : Machines.network) w ~nodes =
  if nodes <= 1 then 0.0
  else
    Float.of_int w.reductions_per_step
    *. 2.0 *. net.Machines.latency
    *. (log (Float.of_int nodes) /. log 2.0)

(* Communication seconds per step on [net] for a rank holding [n_local]
   elements among [nodes]. *)
let comm_time (net : Machines.network) w ~nodes ~n_local =
  halo_time net w ~nodes ~n_local +. reduction_time net w ~nodes

(* Per-step time at [nodes] nodes with [global_elements] in total: the
   rank-local compute, then its communication. *)
let step_time (cluster : Machines.cluster) style w ~nodes ~global_elements =
  let n_local = max 1 (global_elements / nodes) in
  let factor = Float.of_int n_local /. Float.of_int w.ref_elements in
  let local_loops = Model.scale_sequence factor w.step_loops in
  Model.sequence_time cluster.Machines.node style local_loops
  +. comm_time cluster.Machines.net w ~nodes ~n_local

type scaling_point = { nodes : int; seconds : float; efficiency : float }

let strong_scaling cluster style w ~global_elements ~node_counts ~steps =
  let base_nodes = List.hd node_counts in
  let base =
    step_time cluster style w ~nodes:base_nodes ~global_elements *. Float.of_int steps
  in
  List.map
    (fun nodes ->
      let seconds = step_time cluster style w ~nodes ~global_elements *. Float.of_int steps in
      let ideal = base *. Float.of_int base_nodes /. Float.of_int nodes in
      { nodes; seconds; efficiency = ideal /. seconds })
    node_counts

let weak_scaling cluster style w ~elements_per_node ~node_counts ~steps =
  let base_nodes = List.hd node_counts in
  let base =
    step_time cluster style w ~nodes:base_nodes
      ~global_elements:(elements_per_node * base_nodes)
    *. Float.of_int steps
  in
  List.map
    (fun nodes ->
      let seconds =
        step_time cluster style w ~nodes ~global_elements:(elements_per_node * nodes)
        *. Float.of_int steps
      in
      { nodes; seconds; efficiency = base /. seconds })
    node_counts

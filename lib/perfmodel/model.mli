(** Roofline-style loop cost model.

    Prices the backend-independent loop descriptors the runtimes produce:
    memory time (streamed vs gathered traffic, with read-for-ownership on
    write-allocate CPUs and amortised indirect volumes) against compute
    time (flops and transcendentals, with a scalar penalty when not
    vectorised), plus dispatch latency and the GPU small-workload ramp.
    Device constants live in {!Machines} and were calibrated once against
    the paper's Table I. *)

module Descr = Am_core.Descr

(** Execution-style modifiers; encode mesh ordering quality, NUMA placement,
    runtime/driver overheads and GPU occupancy. *)
type style = {
  vectorized : bool;
  locality : float;  (** 1.0 = renumbered mesh; lower degrades gathers *)
  numa_efficiency : float;  (** < 1.0 models NUMA-blind first touch *)
  runtime_overhead : float;  (** multiplicative runtime/driver overhead *)
  gpu_occupancy : float;  (** < 1.0 for register/branch-heavy kernels *)
}

val default_style : style
val unvectorized : style

(** Per-element traffic, split streamed/gathered and read/write, plus map
    index bytes. Indirect volumes are grouped per dataset (amortised by the
    target/iteration set ratio, capped by the reference count) and index
    bytes per distinct (map, index). *)
type traffic = {
  streamed_read : float;
  streamed_write : float;
  gathered_read : float;
  gathered_write : float;
  index_bytes : float;
}

val traffic_of_loop : Descr.loop -> traffic

val useful_bytes_per_element : Descr.loop -> float

(** Achieved-bandwidth loss factor of scalar (non-vectorised) CPU code. *)
val novec_bandwidth_factor : float

(** Seconds for one execution of the loop on the device. *)
val loop_time : Machines.device -> style -> Descr.loop -> float

(** Useful bandwidth implied by {!loop_time} (Table I's GB/s). *)
val loop_bandwidth_gbs : Machines.device -> style -> Descr.loop -> float

(** Sum of {!loop_time} over a sequence. *)
val sequence_time : Machines.device -> style -> Descr.loop list -> float

(** Re-price a traced loop at a scaled set size. *)
val scale_loop : float -> Descr.loop -> Descr.loop

val scale_sequence : float -> Descr.loop list -> Descr.loop list

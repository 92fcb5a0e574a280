(* Roofline-style loop cost model.

   A parallel loop's time on a device is the larger of its memory time and
   its compute time, plus a dispatch latency:

   - memory time distinguishes streamed (direct/stencil) bytes from
     gathered (indirect) bytes; gathers run at a device-specific fraction
     of stream bandwidth, further degraded by poor mesh ordering
     ([locality] < 1) and by NUMA-blind allocation ([numa_efficiency] < 1);
   - compute time distinguishes ordinary flops from transcendentals
     (sqrt/exp class), and multiplies both by the device's scalar penalty
     when the code is not vectorised — this is what sinks adt_calc on the
     Xeon Phi without vectorisation (Table I / Fig 2);
   - GPUs lose efficiency when the workload is small:
     eff = n / (n + half_work), the strong-scaling tail-off of Figs 4/6.

   The inputs are the backend-independent loop descriptors the runtimes
   already produce, so the model prices exactly the program that ran. *)

module Descr = Am_core.Descr

type style = {
  vectorized : bool;
  locality : float; (* 1.0 = renumbered mesh; lower degrades gathers *)
  numa_efficiency : float; (* < 1.0 models NUMA-blind first touch *)
  runtime_overhead : float; (* multiplicative runtime/driver overhead *)
  gpu_occupancy : float;
    (* < 1.0 for register/branch-heavy kernels (Hydra on the K40, Section
       IV: "lower occupancy and higher branch divergence") *)
}

let default_style =
  { vectorized = true; locality = 1.0; numa_efficiency = 1.0; runtime_overhead = 1.0;
    gpu_occupancy = 1.0 }

let unvectorized = { default_style with vectorized = false }

(* Per-element traffic split four ways: streamed vs gathered, reads vs
   writes.  Reads and writes are separated because write-allocate caches
   (CPUs) move every written line twice (read-for-ownership then write-back),
   while GPUs write-combine; "useful" bandwidth figures like Table I's count
   the data once. Inc counts on both sides (hardware read-modify-write).
   Indirect traffic is amortised by the target/iteration set ratio — each
   referenced element moves once per loop under perfect reuse — plus a
   4-byte map index per reference, which always gathers. *)
type traffic = {
  streamed_read : float;
  streamed_write : float;
  gathered_read : float;
  gathered_write : float;
  index_bytes : float;
}

let traffic_of_loop (loop : Descr.loop) =
  let t =
    ref
      {
        streamed_read = 0.0;
        streamed_write = 0.0;
        gathered_read = 0.0;
        gathered_write = 0.0;
        index_bytes = 0.0;
      }
  in
  (* Indirect arguments are grouped: several arguments reaching the same
     dataset (e.g. both cells of an edge) together move each referenced
     element once, and the map row they share is loaded once — so data
     bytes are counted per distinct dataset and index bytes per distinct
     (map, index) pair.  This matches OP2's own useful-bandwidth accounting
     (Table I). *)
  let indirect_dats = Hashtbl.create 4 in
  let map_indices : (string * int, unit) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun (a : Descr.arg) ->
      let reads =
        Am_core.Access.reads a.Descr.access || a.Descr.access = Am_core.Access.Inc
      in
      let writes = Am_core.Access.writes a.Descr.access in
      let bytes = Float.of_int (a.Descr.dim * 8) in
      match a.Descr.kind with
      | Descr.Global -> ()
      | Descr.Direct | Descr.Stencil _ ->
        t :=
          {
            !t with
            streamed_read = (!t.streamed_read +. if reads then bytes else 0.0);
            streamed_write = (!t.streamed_write +. if writes then bytes else 0.0);
          }
      | Descr.Indirect { map_name; map_index; ratio } ->
        Hashtbl.replace map_indices (map_name, map_index) ();
        let entry =
          match Hashtbl.find_opt indirect_dats a.Descr.dat_id with
          | Some entry -> entry
          | None ->
            let entry = (bytes, ref ratio, ref 0, ref false, ref false) in
            Hashtbl.add indirect_dats a.Descr.dat_id entry;
            entry
        in
        let _, _, refs, r, w = entry in
        incr refs;
        if reads then r := true;
        if writes then w := true)
    loop.Descr.args;
  Hashtbl.iter
    (fun _ (bytes, ratio, refs, r, w) ->
      (* An element referencing a dataset [refs] times touches at most
         [refs] distinct elements of it, however large the target set. *)
      let amortised = bytes *. Float.min !ratio (Float.of_int !refs) in
      t :=
        {
          !t with
          gathered_read = (!t.gathered_read +. if !r then amortised else 0.0);
          gathered_write = (!t.gathered_write +. if !w then amortised else 0.0);
        })
    indirect_dats;
  t := { !t with index_bytes = 4.0 *. Float.of_int (Hashtbl.length map_indices) };
  !t

(* Back-compat summary used by tests: (streamed, gathered) useful bytes. *)
let traffic_per_element (loop : Descr.loop) =
  let t = traffic_of_loop loop in
  ( Float.to_int (t.streamed_read +. t.streamed_write),
    Float.to_int (t.gathered_read +. t.gathered_write +. t.index_bytes) )

let useful_bytes_per_element loop =
  let t = traffic_of_loop loop in
  t.streamed_read +. t.streamed_write +. t.gathered_read +. t.gathered_write
  +. t.index_bytes

(* Scalar (non-vectorised) code cannot keep the memory system saturated on
   wide-SIMD machines: achieved bandwidth drops as well as compute rate. *)
let novec_bandwidth_factor = 0.85

let loop_time (device : Machines.device) (style : style) (loop : Descr.loop) =
  let n = Float.of_int loop.Descr.set_size in
  let t = traffic_of_loop loop in
  let write_factor = if device.Machines.rfo then 2.0 else 1.0 in
  let vec_bw =
    if style.vectorized || device.Machines.is_gpu then 1.0 else novec_bandwidth_factor
  in
  let bw = device.Machines.stream_bw *. style.numa_efficiency *. vec_bw *. 1e9 in
  let gather_bw =
    bw *. device.Machines.gather_efficiency *. Float.min 1.0 style.locality
  in
  let mem_time =
    n
    *. (((t.streamed_read +. (t.streamed_write *. write_factor)) /. bw)
        +. ((t.gathered_read +. (t.gathered_write *. write_factor) +. t.index_bytes)
            /. gather_bw))
  in
  let compute_penalty =
    if style.vectorized || device.Machines.is_gpu then 1.0
    else device.Machines.scalar_penalty
  in
  let info = loop.Descr.info in
  let comp_time =
    n
    *. ((info.Descr.flops /. (device.Machines.flops *. 1e9)
         +. (info.Descr.transcendentals /. (device.Machines.transcendental_rate *. 1e9)))
        *. compute_penalty)
  in
  let t = Float.max mem_time comp_time in
  let t = if device.Machines.is_gpu then t /. Float.max 0.05 style.gpu_occupancy else t in
  let t =
    if device.Machines.is_gpu && device.Machines.half_work > 0.0 then begin
      let eff = n /. (n +. device.Machines.half_work) in
      t /. Float.max 1e-3 eff
    end
    else t
  in
  (t +. device.Machines.loop_latency) *. style.runtime_overhead

(* Achieved *useful* bandwidth implied by the model (Table I's GB/s): data
   counted once regardless of RFO or repeated references. *)
let loop_bandwidth_gbs device style loop =
  let t = loop_time device style loop in
  useful_bytes_per_element loop *. Float.of_int loop.Descr.set_size /. t /. 1e9

let sequence_time device style loops =
  List.fold_left (fun acc l -> acc +. loop_time device style l) 0.0 loops

(* Scale a traced loop to a different mesh size: descriptors traced on a
   laptop-sized mesh are re-priced at the paper's sizes. *)
let scale_loop factor (loop : Descr.loop) =
  {
    loop with
    Descr.set_size =
      Float.to_int (Float.round (Float.of_int loop.Descr.set_size *. factor));
  }

let scale_sequence factor loops = List.map (scale_loop factor) loops

(* Tests for the analytic performance model: not absolute numbers, but the
   orderings and shapes the paper's evaluation rests on. *)

module Machines = Am_perfmodel.Machines
module Model = Am_perfmodel.Model
module Cluster = Am_perfmodel.Cluster
module Descr = Am_core.Descr
module Access = Am_core.Access

let arg ?(kind = Descr.Direct) name dim access =
  (* Distinct datasets must get distinct ids: the traffic model groups
     indirect arguments by dataset. *)
  { Descr.dat_name = name; dat_id = Hashtbl.hash name; dim; access; kind }

let indirect name dim access =
  arg ~kind:(Descr.Indirect { map_name = "m"; map_index = 0; ratio = 0.5 }) name dim access

let mk ?(flops = 0.0) ?(trans = 0.0) name size args =
  { Descr.loop_name = name; set_name = "s"; set_size = size; args;
    info = { Descr.flops; transcendentals = trans } }

(* Airfoil-shaped loops at a nominal 1M cells / 2M edges. *)
let save_soln =
  mk "save_soln" 1_000_000 [ arg "q" 4 Access.Read; arg "q_old" 4 Access.Write ]

let adt_calc =
  mk ~flops:30.0 ~trans:4.0 "adt_calc" 1_000_000
    [ indirect "x" 2 Access.Read; arg "q" 4 Access.Read; arg "adt" 1 Access.Write ]

let res_calc =
  mk ~flops:80.0 "res_calc" 2_000_000
    [
      indirect "x" 2 Access.Read;
      indirect "q" 4 Access.Read;
      indirect "adt" 1 Access.Read;
      indirect "res" 4 Access.Inc;
    ]

let update =
  mk ~flops:12.0 "update" 1_000_000
    [ arg "q_old" 4 Access.Read; arg "q" 4 Access.Write; arg "res" 4 Access.Rw ]

let step = [ save_soln; adt_calc; res_calc; update ]

let cpu = Machines.xeon_e5_2697v2
let phi = Machines.xeon_phi_5110p
let k40 = Machines.nvidia_k40
let vec = Model.default_style
let novec = Model.unvectorized

(* ---- Device-level orderings (Table I / Fig 2) ---- *)

let test_direct_loops_near_stream_bw () =
  (* save_soln is a pure copy: its modelled *useful* bandwidth sits near the
     device's stream bandwidth — a factor ~2/3 on write-allocate CPUs (the
     store's read-for-ownership moves the written line twice) and >0.85 on
     write-combining GPUs. This is why Table I's CPU numbers sit below the
     nominal stream figure while the K40's sit close to it. *)
  List.iter
    (fun dev ->
      let bw = Model.loop_bandwidth_gbs dev vec save_soln in
      let frac = bw /. dev.Machines.stream_bw in
      let lo = if dev.Machines.rfo then 0.6 else 0.85 in
      let hi = if dev.Machines.rfo then 0.8 else 1.01 in
      if frac < lo || frac > hi then
        Alcotest.failf "%s: direct-loop bw fraction %.2f" dev.Machines.name frac)
    [ cpu; phi; k40 ]

let test_res_calc_is_bottleneck () =
  (* The indirect loop dominates the step on gather-weak devices (Table I:
     by 3x on the Phi and K40); on the Xeon it ties with update (paper:
     9.9s vs 9.8s), so there we only require it within 20% of the max. *)
  List.iter
    (fun (dev, slack) ->
      let t_res = Model.loop_time dev vec res_calc in
      List.iter
        (fun l ->
          if Model.loop_time dev vec l > t_res *. slack then
            Alcotest.failf "%s: %s outweighs res_calc" dev.Machines.name
              l.Descr.loop_name)
        [ save_soln; adt_calc; update ])
    [ (cpu, 1.2); (phi, 1.0); (k40, 1.0) ]

let test_vectorisation_matters_for_adt_calc () =
  (* adt_calc (sqrt-heavy) slows substantially without vectorisation on
     every CPU-class device; without vectorisation the wide-vector Phi
     loses its advantage over the Xeon entirely. *)
  let slowdown dev = Model.loop_time dev novec adt_calc /. Model.loop_time dev vec adt_calc in
  Alcotest.(check bool) "cpu slowdown > 1.3" true (slowdown cpu > 1.3);
  Alcotest.(check bool) "phi slowdown > 1.3" true (slowdown phi > 1.3);
  Alcotest.(check bool) "unvectorised phi no faster than unvectorised xeon" true
    (Model.loop_time phi novec adt_calc >= Model.loop_time cpu novec adt_calc *. 0.95);
  (* ...but pure-copy loops only pay the scalar-bandwidth factor, not the
     compute penalty. *)
  let copy_ratio = Model.loop_time cpu novec save_soln /. Model.loop_time cpu vec save_soln in
  Alcotest.(check bool) "copy pays only the bandwidth factor" true
    (copy_ratio < 1.0 /. Model.novec_bandwidth_factor +. 0.01)

let test_fig2_device_ordering () =
  (* Overall step: K40 fastest; the Phi loses to the Xeon because res_calc's
     gathers collapse its bandwidth (the paper's central Fig 2 insight). *)
  let t_cpu = Model.sequence_time cpu vec step in
  let t_phi = Model.sequence_time phi vec step in
  let t_k40 = Model.sequence_time k40 vec step in
  Alcotest.(check bool) "k40 < cpu" true (t_k40 < t_cpu);
  Alcotest.(check bool) "cpu < phi" true (t_cpu < t_phi)

let test_locality_degrades_gathers () =
  (* A scrambled mesh (locality 0.5) slows indirect loops but not direct
     ones — the renumbering effect of Fig 3. *)
  let bad = { vec with Model.locality = 0.5 } in
  let r = Model.loop_time cpu bad res_calc /. Model.loop_time cpu vec res_calc in
  Alcotest.(check bool) "res_calc slows" true (r > 1.2);
  let s = Model.loop_time cpu bad save_soln /. Model.loop_time cpu vec save_soln in
  Alcotest.(check bool) "save_soln unaffected" true (s < 1.001)

let test_numa_penalty () =
  let blind = { vec with Model.numa_efficiency = 0.8 } in
  let r = Model.loop_time cpu blind save_soln /. Model.loop_time cpu vec save_soln in
  Alcotest.(check bool) "~25% slower" true (r > 1.2 && r < 1.3)

let test_gpu_small_problem_penalty () =
  (* Shrinking the per-GPU workload must hurt efficiency (Fig 4/6 GPU
     strong-scaling tail-off); CPUs are unaffected. *)
  let small = Model.scale_loop 0.01 res_calc in
  (* 100 small launches vs one big one: the GPU pays heavily, the CPU does
     not. *)
  let gpu_overhead =
    100.0 *. Model.loop_time k40 vec small /. Model.loop_time k40 vec res_calc
  in
  Alcotest.(check bool) "gpu loses efficiency" true (gpu_overhead > 1.5);
  let cpu_overhead =
    100.0 *. Model.loop_time cpu vec small /. Model.loop_time cpu vec res_calc
  in
  (* The CPU only pays per-launch latency (visible at 20k-element loops),
     never an occupancy collapse. *)
  Alcotest.(check bool) "cpu stays near-linear" true (cpu_overhead < 1.4)

let test_traffic_split () =
  let t = Model.traffic_of_loop res_calc in
  let streamed = Float.to_int (t.Model.streamed_read +. t.Model.streamed_write) in
  let gathered =
    Float.to_int (t.Model.gathered_read +. t.Model.gathered_write +. t.Model.index_bytes)
  in
  Alcotest.(check int) "no direct bytes" 0 streamed;
  (* Amortised by ratio 0.5: x(2)R 8 + q(4)R 16 + adt(1)R 4 +
     res(4)Inc(read+write) 32, plus one 4-byte index for the single
     (map, index) pair these synthetic args share. *)
  Alcotest.(check int) "gathered bytes" (8 + 16 + 4 + 32 + 4) gathered

(* ---- Cluster-level shapes (Figs 4/6) ---- *)

let airfoil_workload =
  {
    Cluster.workload_name = "airfoil";
    step_loops = step;
    ref_elements = 1_000_000;
    halo_bytes_coeff = 512.0; (* ~ 64 B/element * 4 elements per sqrt(n) unit *)
    exchanges_per_step = 2;
    reductions_per_step = 1;
    neighbours = 4;
  }

let nodes = [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ]

let test_strong_scaling_monotone_then_tails () =
  let pts =
    Cluster.strong_scaling Machines.hector vec airfoil_workload
      ~global_elements:8_000_000 ~node_counts:nodes ~steps:100
  in
  (* Time decreases with node count... *)
  let rec decreasing = function
    | (a : Cluster.scaling_point) :: (b :: _ as rest) ->
      a.Cluster.seconds > b.Cluster.seconds && decreasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "times decrease" true (decreasing pts);
  (* ...but efficiency erodes at scale. *)
  let last = List.nth pts (List.length pts - 1) in
  Alcotest.(check bool) "efficiency < 1 at 256 nodes" true (last.Cluster.efficiency < 0.95)

let test_gpu_strong_scaling_tails_earlier () =
  let cpu_pts =
    Cluster.strong_scaling Machines.hector vec airfoil_workload
      ~global_elements:8_000_000 ~node_counts:nodes ~steps:100
  in
  let gpu_pts =
    Cluster.strong_scaling Machines.emerald vec airfoil_workload
      ~global_elements:8_000_000 ~node_counts:nodes ~steps:100
  in
  let eff pts = (List.nth pts (List.length pts - 1)).Cluster.efficiency in
  Alcotest.(check bool) "gpu efficiency < cpu efficiency at scale" true
    (eff gpu_pts < eff cpu_pts)

let test_weak_scaling_near_flat () =
  let pts =
    Cluster.weak_scaling Machines.hector vec airfoil_workload
      ~elements_per_node:1_000_000 ~node_counts:nodes ~steps:100
  in
  let last = List.nth pts (List.length pts - 1) in
  (* Paper: <5% degradation for Airfoil CPU weak scaling. *)
  Alcotest.(check bool) "within 10% of flat" true (last.Cluster.efficiency > 0.9);
  Alcotest.(check bool) "never super-linear" true
    (List.for_all (fun p -> p.Cluster.efficiency <= 1.0 +. 1e-9) pts)

let test_comm_time_zero_on_one_node () =
  Alcotest.(check (float 0.0)) "no comm alone" 0.0
    (Cluster.comm_time Machines.gemini airfoil_workload ~nodes:1 ~n_local:1_000_000)

let () =
  Alcotest.run "perfmodel"
    [
      ( "device",
        [
          Alcotest.test_case "direct loops near stream bw" `Quick
            test_direct_loops_near_stream_bw;
          Alcotest.test_case "res_calc bottleneck" `Quick test_res_calc_is_bottleneck;
          Alcotest.test_case "vectorisation and adt_calc" `Quick
            test_vectorisation_matters_for_adt_calc;
          Alcotest.test_case "fig2 device ordering" `Quick test_fig2_device_ordering;
          Alcotest.test_case "locality degrades gathers" `Quick
            test_locality_degrades_gathers;
          Alcotest.test_case "numa penalty" `Quick test_numa_penalty;
          Alcotest.test_case "gpu small-problem penalty" `Quick
            test_gpu_small_problem_penalty;
          Alcotest.test_case "traffic split" `Quick test_traffic_split;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "strong scaling shape" `Quick
            test_strong_scaling_monotone_then_tails;
          Alcotest.test_case "gpu tails earlier" `Quick
            test_gpu_strong_scaling_tails_earlier;
          Alcotest.test_case "weak scaling near-flat" `Quick test_weak_scaling_near_flat;
          Alcotest.test_case "no comm on one node" `Quick test_comm_time_zero_on_one_node;
        ] );
    ]

(* The one timer of the bench and the experiments: the monotonic clock
   perfbench's [Measure] reads, and one statistic, the median with its
   quartiles ([Am_util.Regress.summary]).

   [sample ~repeat f] calls [f] once to warm it up, then times [repeat]
   calls.  [pairs ~repeat a b] warms up [a] then [b], then times [repeat]
   pairs, a b, b a, a b, ..., and summarises the per-pair ratios a ÷ b:
   alternating the order puts a drift of the host (a slow phase, a
   frequency change) on both sides of the comparison. *)

let time f =
  let t0 = Monotonic_clock.now () in
  f ();
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9

let sample ~repeat f =
  f ();
  Am_util.Regress.summarize (Array.init repeat (fun _ -> time f))

let pairs ~repeat a b =
  a ();
  b ();
  Am_util.Regress.summarize
    (Array.init repeat (fun i ->
         if i land 1 = 0 then
           let ta = time a in
           ta /. time b
         else
           let tb = time b in
           time a /. tb))

(* A ratio summary as "median [p25, p75] n=N". *)
let ratio (s : Am_util.Regress.summary) =
  Printf.sprintf "%.3fx [%.3f, %.3f] n=%d" s.median s.p25 s.p75 s.n

(* Generated element walkers ([let%elem_kernel]) against the point walker.

   A seeded corpus of OP2 loops draws each loop's shape from a set of
   declared corpus kernels: every access mode on direct, indirect and
   global arguments, dims 1, 2 and 4, map arities 1, 2 and 4, [Inc]s and
   globals on both generated routes (float locals for literal components,
   the worker's buffer for computed ones).  Around the shape it draws the
   data: sets of 0, 1 and n elements, the map tables, which datasets the
   labels name (two labels may name one dataset: aliasing, or an in-place
   [Read] of a dataset another argument increments), a SoA dataset, and
   values with -0.0 among them.  Each loop runs twice from the same data:
   through [Op2.par_loop_acc] on Seq, where the kernel's generated element
   walker runs whenever every dataset argument is in place or a staged AoS
   Inc, and through the point walker ([Exec_common.run_element] per
   element).  Every dataset and global must agree to the bit, and the
   element walker must have run exactly when the dispatch rule allows it.
   A failure prints the case and its replay seed (AM_SEED).

   Two fixed cases pin the Inc staging: a staged Inc the body never
   writes, or never names, still adds its zero, so a -0.0 target comes out
   +0.0 under both walkers.  Global [Inc]/[Min]/[Max] reductions on both
   routes run on Shared, conflict-free and coloured, against Seq.  A call
   whose arguments differ from the kernel's declared signature in one fact
   is refused, by name, before any element runs, on every backend. *)

module Op2 = Am_op2.Op2
module Acc = Op2.Acc
module Access = Am_core.Access
module Exec_common = Am_op2.Exec_common
module Pool = Am_taskpool.Pool

let[@inline] get (a : Acc.t) i = a.Acc.data.(a.Acc.base + i)
let[@inline] set (a : Acc.t) i v = a.Acc.data.(a.Acc.base + i) <- v

(* ---- The corpus kernels ---------------------------------------------------- *)

(* Each kernel folds the components it reads into a running value [s] in
   argument order, then writes each writable argument from it: a Write
   assigns, an Rw blends, an Inc adds, a global Min/Max lowers/raises. *)
let[@inline] mix s v = (s *. 0.5) +. v
let[@inline] next s = (s *. 1.5) -. 0.125
let[@inline] blend o v = (o *. 0.5) -. v
let[@inline] at s c = s +. Float.of_int c

(* Direct arguments, every dataset mode, computed components. *)
let%elem_kernel direct (a : Acc.t array) =
  let p = a.(0) and w = a.(1) and r = a.(2) and i = a.(3) in
  let s = ref 0.25 in
  s := mix !s (get p 0);
  for c = 0 to 3 do
    s := mix !s (get r c)
  done;
  for c = 0 to 1 do
    set w c (at !s c)
  done;
  s := next !s;
  for c = 0 to 3 do
    set r c (blend (get r c) (at !s c))
  done;
  s := next !s;
  for c = 0 to 1 do
    set i c (get i c +. at !s c)
  done
[@@args p 1 Read, w 2 Write, r 4 Rw, i 2 Inc]

(* Indirect arguments through an arity-2 map, every dataset mode. *)
let%elem_kernel indirect (a : Acc.t array) =
  let p = a.(0) and w = a.(1) and r = a.(2) and i = a.(3) in
  let s = ref 0.25 in
  for c = 0 to 3 do
    s := mix !s (get p c)
  done;
  s := mix !s (get r 0);
  s := mix !s (get r 1);
  set w 0 (at !s 0);
  s := next !s;
  for c = 0 to 1 do
    set r c (blend (get r c) (at !s c))
  done;
  s := next !s;
  for c = 0 to 3 do
    set i c (get i c +. at !s c)
  done
[@@args p (m 2 1) 4 Read, w (m 2 0) 1 Write, r (m 2 1) 2 Rw, i (m 2 0) 4 Inc]

(* An arity-1 map beside a direct read. *)
let%elem_kernel arity1 (a : Acc.t array) =
  let p = a.(0) and r = a.(1) and i = a.(2) and q = a.(3) in
  let s = ref 0.25 in
  for c = 0 to 1 do
    s := mix !s (get p c)
  done;
  s := mix !s (get r 0);
  for c = 0 to 3 do
    s := mix !s (get q c)
  done;
  set r 0 (blend (get r 0) (at !s 0));
  s := next !s;
  set i 0 (get i 0 +. at !s 0);
  set i 1 (get i 1 +. at !s 1)
[@@args p (n 1 0) 2 Read, r (n 1 0) 1 Rw, i (n 1 0) 2 Inc, q 4 Read]

(* An arity-4 map: two Incs of one dataset, as Airfoil's res_calc. *)
let%elem_kernel arity4 (a : Acc.t array) =
  let p = a.(0) and i0 = a.(1) and i2 = a.(2) and w = a.(3) in
  let s = ref (mix 0.25 (get p 0)) in
  for c = 0 to 3 do
    set w c (at !s c)
  done;
  s := next !s;
  set i0 0 (get i0 0 +. !s);
  set i2 0 (get i2 0 -. !s)
[@@args p (m 4 3) 1 Read, i (m 4 0) 1 Inc, i (m 4 2) 1 Inc, w (m 4 1) 4 Write]

(* Every global mode, computed components: the worker's buffer. *)
let%elem_kernel globals (a : Acc.t array) =
  let p = a.(0) and g = a.(1) and sum = a.(2) and lo = a.(3) and hi = a.(4) in
  let s = ref 0.25 in
  for c = 0 to 1 do
    s := mix !s (get p c);
    s := mix !s (get g c)
  done;
  for c = 0 to 0 do
    set sum c (get sum c +. at !s c)
  done;
  s := next !s;
  for c = 0 to 3 do
    set lo c (Float.min (get lo c) (at !s c))
  done;
  s := next !s;
  for c = 0 to 1 do
    set hi c (Float.max (get hi c) (at !s c))
  done
[@@args p 2 Read, gbl 2 Read, gbl 1 Inc, gbl 4 Min, gbl 2 Max]

(* Global reductions on literal components: float locals, stored once per
   range.  Component 1 of the sum is never named. *)
let%elem_kernel literal_globals (a : Acc.t array) =
  let p = a.(0) and sum = a.(1) and lo = a.(2) and hi = a.(3) in
  let s = ref 0.25 in
  s := mix !s (get p 0);
  s := mix !s (get p 1);
  set sum 0 (get sum 0 +. !s);
  set lo 0 (Float.min (get lo 0) (next !s));
  set hi 0 (Float.max (get hi 0) (blend !s 1.0))
[@@args p (m 2 0) 2 Read, gbl 2 Inc, gbl 1 Min, gbl 1 Max]

(* Both Inc routes in one kernel: argument 1 on literal components (float
   locals; component 0 never named), argument 2 on computed ones (the
   scratch; component 3 never written).  Argument 0 reads in place the
   dataset argument 1 increments. *)
let%elem_kernel inc_routes (a : Acc.t array) =
  let r = a.(0) and i = a.(1) and j = a.(2) and d = a.(3) in
  let s = ref (mix (mix 0.25 (get r 0)) (get r 1)) in
  s := mix !s (get d 0);
  set i 1 (get i 1 +. !s);
  s := next !s;
  set i 1 (get i 1 -. (!s *. 0.5));
  for c = 0 to 2 do
    set j c (get j c +. at !s c)
  done;
  set d 0 (blend (get d 0) !s)
[@@args i (m 2 1) 2 Read, i (m 2 0) 2 Inc, j (m 2 1) 4 Inc, d 1 Rw]

(* Staged Incs the body reads but never writes (argument 1) or never
   names (argument 2): each still adds its zero. *)
let%elem_kernel untouched (a : Acc.t array) =
  let o = a.(0) and i = a.(1) and p = a.(3) in
  set o 0 (mix (get i 0) (get p 0 +. get p 1))
[@@args o 1 Write, i 1 Inc, j (m 2 0) 2 Inc, p (m 2 1) 2 Read]

(* Globals on both routes beside an indirect Inc, so Shared colours it. *)
let%elem_kernel coloured_globals (a : Acc.t array) =
  let p = a.(0) and i = a.(1) and sum = a.(2) and lo = a.(3) and hi = a.(4) in
  let s = ref (mix (mix 0.25 (get p 0)) (get p 1)) in
  set i 0 (get i 0 +. !s);
  set i 1 (get i 1 -. !s);
  set sum 0 (get sum 0 +. !s);
  set sum 1 (get sum 1 +. (!s *. !s));
  for c = 0 to 1 do
    set lo c (Float.min (get lo c) (at !s c))
  done;
  set hi 0 (Float.max (get hi 0) (next !s))
[@@args p (m 2 0) 2 Read, i (m 2 1) 2 Inc, gbl 2 Inc, gbl 2 Min, gbl 1 Max]

let corpus =
  [ direct; indirect; arity1; arity4; globals; literal_globals; inc_routes; untouched;
    coloured_globals ]

let walker (k : Acc.kernel) = Option.get k.Acc.walker
let signature k = (walker k).Acc.signature

(* A signature's dataset labels, and its map labels with their arities,
   in first-use order. *)
let dataset_labels sg =
  Array.fold_left
    (fun acc a ->
      match a with
      | Acc.Dat { label; _ } when not (List.mem label acc) -> acc @ [ label ]
      | Acc.Dat _ | Acc.Gbl _ -> acc)
    [] sg

let map_labels sg =
  Array.fold_left
    (fun acc a ->
      match a with
      | Acc.Dat { via = Some { Acc.map; arity; _ }; _ } when not (List.mem_assoc map acc) ->
        acc @ [ (map, arity) ]
      | Acc.Dat _ | Acc.Gbl _ -> acc)
    [] sg

(* ---- Cases ------------------------------------------------------------------ *)

type case = {
  kernel : Acc.kernel;
  n : int; (* iteration set size *)
  m : int; (* target set size *)
  maps : (string * int * int array) list; (* per map label: arity, table *)
  picks : (string * int) list; (* per dataset label: which of two datasets *)
  soa : string option; (* a dataset label whose dataset is converted to SoA *)
  seed : int; (* data *)
}

let show c =
  Printf.sprintf "%s n=%d m=%d picks [%s]%s seed=%d" (walker c.kernel).Acc.kname c.n c.m
    (String.concat "; " (List.map (fun (l, p) -> Printf.sprintf "%s#%d" l p) c.picks))
    (match c.soa with None -> "" | Some l -> " soa " ^ l)
    c.seed

let gen_case =
  QCheck.Gen.(
    let* kernel = oneofl corpus in
    let sg = signature kernel in
    let* n = frequency [ (1, return 0); (1, return 1); (4, int_range 2 40) ] in
    let* m = int_range 1 12 in
    let* maps =
      flatten_l
        (List.map
           (fun (map, arity) ->
             let+ values = array_size (return (n * arity)) (int_bound (m - 1)) in
             (map, arity, values))
           (map_labels sg))
    in
    let labels = dataset_labels sg in
    let* picks = flatten_l (List.map (fun l -> map (fun p -> (l, p)) (int_bound 1)) labels) in
    let* soa = frequency [ (6, return None); (1, map Option.some (oneofl labels)) ] in
    let* seed = int_bound 1_000_000 in
    return { kernel; n; m; maps; picks; soa; seed })

(* Initial values, -0.0 among them so Inc's +0.0 rule is exercised. *)
let value seed i =
  match (seed + (i * 7919)) mod 9 with
  | 0 -> -0.0
  | 1 -> 0.0
  | 2 -> 1.0
  | 3 -> -2.5
  | 4 -> 0.375
  | j -> Float.of_int ((seed mod 97) - 48) /. Float.of_int (j + 3)

(* The case's context: sets, maps, datasets (keyed by set, dim and pick,
   so two labels with one key name one dataset), global buffers and the
   argument list the kernel's signature describes. *)
let build c =
  let ctx = Op2.create () in
  let iter = Op2.decl_set ctx ~name:"iter" ~size:c.n in
  let target = Op2.decl_set ctx ~name:"target" ~size:c.m in
  let maps =
    List.map
      (fun (name, arity, values) ->
        (name, Op2.decl_map ctx ~name ~from_set:iter ~to_set:target ~arity ~values))
      c.maps
  in
  let dats = Hashtbl.create 8 in
  let dat ~on_iter ~dim ~pick =
    let key = ((if on_iter then 0 else 1), dim, pick) in
    match Hashtbl.find_opt dats key with
    | Some d -> d
    | None ->
      let set = if on_iter then iter else target in
      let size = if on_iter then c.n else c.m in
      let name = Printf.sprintf "d%d_%d_%d" (if on_iter then 0 else 1) dim pick in
      let d =
        Op2.decl_dat ctx ~name ~set ~dim
          ~data:(Array.init (size * dim) (value (c.seed + (Hashtbl.length dats * 131))))
      in
      Hashtbl.add dats key d;
      d
  in
  let by_label = Hashtbl.create 8 and gbls = ref [] in
  let args =
    Array.to_list
      (Array.mapi
         (fun k a ->
           match a with
           | Acc.Gbl { len; access } ->
             let buf = Array.init len (value (c.seed + (1000 * k))) in
             gbls := buf :: !gbls;
             Op2.arg_gbl ~name:(Printf.sprintf "g%d" k) buf access
           | Acc.Dat { label; dim; access; via } -> (
             let d =
               match Hashtbl.find_opt by_label label with
               | Some d -> d
               | None ->
                 let d = dat ~on_iter:(via = None) ~dim ~pick:(List.assoc label c.picks) in
                 Hashtbl.add by_label label d;
                 d
             in
             match via with
             | None -> Op2.arg_dat d access
             | Some v -> Op2.arg_dat_indirect d (List.assoc v.Acc.map maps) v.Acc.slot access))
         (signature c.kernel))
  in
  (match c.soa with
  | Some l -> Op2.convert_layout ctx (Hashtbl.find by_label l) Op2.Soa
  | None -> ());
  (ctx, iter, args, Op2.dats ctx, List.rev !gbls)

let bits a = Array.map Int64.bits_of_float a

(* The point walker over every element, as Seq ran before element walkers. *)
let point_walker ~set_size args kernel =
  let compiled = Exec_common.compile args in
  let frame = Exec_common.make_frame compiled (Exec_common.Accessor kernel) args in
  for e = 0 to set_size - 1 do
    Exec_common.run_element frame e
  done;
  if Exec_common.has_globals compiled then Exec_common.merge_globals args frame.Exec_common.bufs

let state ctx dats gbls = List.map (fun d -> bits (Op2.fetch ctx d)) dats @ List.map bits gbls

(* [k] with its element walker counting its calls in [calls]. *)
let counted calls (k : Acc.kernel) =
  let g = walker k in
  {
    k with
    Acc.walker =
      Some
        {
          g with
          Acc.elems =
            (fun w lo hi ->
              Atomic.incr calls;
              g.Acc.elems w lo hi);
        };
  }

(* Run [c] both ways; returns whether the element walker ran over a
   non-empty set. *)
let run_case c =
  let calls = Atomic.make 0 in
  let ctx, iter, args, dats, gbls = build c in
  let elementwise = (Exec_common.compile args).Exec_common.elementwise in
  Op2.par_loop_acc ctx ~name:"corpus" iter args (counted calls c.kernel);
  let ctx', _, args', dats', gbls' = build c in
  point_walker ~set_size:c.n args' c.kernel;
  if state ctx dats gbls <> state ctx' dats' gbls' then
    Qcheck_util.failf_seed Qcheck_util.base_seed "element walker differs from the point walker: %s"
      (show c);
  let ran = Atomic.get calls > 0 in
  if ran <> elementwise then
    Qcheck_util.failf_seed Qcheck_util.base_seed "element walker %s where the rule says %s: %s"
      (if ran then "ran" else "did not run")
      (if elementwise then "it runs" else "it does not")
      (show c);
  ran && c.n > 0

(* Does some argument of [args] read, in place, a dataset another
   argument increments? *)
let reads_an_increment args =
  let open Am_op2.Types in
  let incremented id =
    List.exists
      (function
        | Arg_dat { dat; access = Access.Inc; _ } -> dat.dat_id = id
        | Arg_dat _ | Arg_gbl _ -> false)
      args
  in
  List.exists
    (function
      | Arg_dat { dat; access = Access.Read; _ } -> incremented dat.dat_id
      | Arg_dat _ | Arg_gbl _ -> false)
    args

(* Do two dataset labels of [c] name one dataset? *)
let aliased c =
  let sg = signature c.kernel in
  let key l =
    let rec find k =
      match sg.(k) with
      | Acc.Dat { label; dim; via; _ } when label = l -> (via = None, dim, List.assoc l c.picks)
      | _ -> find (k + 1)
    in
    find 0
  in
  let keys = List.map key (dataset_labels sg) in
  List.length (List.sort_uniq compare keys) < List.length keys

let test_corpus () =
  let cases =
    QCheck.Gen.generate ~rand:(Random.State.make [| Qcheck_util.base_seed |]) ~n:400 gen_case
  in
  let ran = List.length (List.filter run_case cases) in
  (* The rule admits most generated loops; each shape must be reached. *)
  if ran < 100 then
    Qcheck_util.failf_seed Qcheck_util.base_seed "the element walker ran on only %d of 400 cases"
      ran;
  List.iter
    (fun (what, pred) ->
      if not (List.exists pred cases) then
        Qcheck_util.failf_seed Qcheck_util.base_seed "no generated case has %s" what)
    ([
       ("an empty set", fun c -> c.n = 0);
       ("a one-element set", fun c -> c.n = 1);
       ("a SoA dataset", fun c -> c.soa <> None);
       ("two labels naming one dataset", aliased);
       ( "an in-place Read of a dataset another argument increments",
         fun c ->
           let _, _, args, _, _ = build c in
           c.n > 0 && reads_an_increment args && (Exec_common.compile args).Exec_common.elementwise
       );
     ]
    @ List.map (fun k -> ("kernel " ^ (walker k).Acc.kname, fun c -> c.kernel == k)) corpus);
  (* The corpus kernels' signatures cover every mode on every place, and
     dims and arities 1, 2 and 4. *)
  let sigs = List.concat_map (fun k -> Array.to_list (signature k)) corpus in
  let has what pred =
    if not (List.exists pred sigs) then Alcotest.failf "no corpus kernel declares %s" what
  in
  List.iter
    (fun mode ->
      let name = Access.to_string mode in
      has ("direct " ^ name) (function
        | Acc.Dat { access; via = None; _ } -> access = mode
        | _ -> false);
      has ("indirect " ^ name) (function
        | Acc.Dat { access; via = Some _; _ } -> access = mode
        | _ -> false))
    [ Access.Read; Access.Write; Access.Rw; Access.Inc ];
  List.iter
    (fun mode ->
      has ("global " ^ Access.to_string mode) (function
        | Acc.Gbl { access; _ } -> access = mode
        | _ -> false))
    [ Access.Read; Access.Inc; Access.Min; Access.Max ];
  List.iter
    (fun d ->
      has (Printf.sprintf "dim %d" d) (function Acc.Dat { dim; _ } -> dim = d | _ -> false);
      has (Printf.sprintf "arity %d" d) (function
        | Acc.Dat { via = Some { Acc.arity; _ }; _ } -> arity = d
        | _ -> false))
    [ 1; 2; 4 ]

(* ---- -0.0 under a staged Inc the body never writes ------------------------- *)

(* Argument 1 is read (an Inc starts from 0.0) but never written,
   argument 2 never named: both are staged Incs that add zero. *)
let%elem_kernel reads_scratch (a : Acc.t array) = set a.(0) 0 (get a.(1) 0 +. 1.0)
[@@args out 1 Write, named 1 Inc, touched (map 1 0) 2 Inc]

let test_negative_zero () =
  let run walker =
    let ctx = Op2.create () in
    let iter = Op2.decl_set ctx ~name:"iter" ~size:5 in
    let cells = Op2.decl_set ctx ~name:"cells" ~size:3 in
    let map =
      Op2.decl_map ctx ~name:"map" ~from_set:iter ~to_set:cells ~arity:1
        ~values:[| 0; 2; 1; 2; 0 |]
    in
    let out = Op2.decl_dat_zero ctx ~name:"out" ~set:iter ~dim:1 in
    let touched = Op2.decl_dat ctx ~name:"touched" ~set:cells ~dim:2 ~data:(Array.make 6 (-0.0)) in
    let named = Op2.decl_dat ctx ~name:"named" ~set:iter ~dim:1 ~data:(Array.make 5 (-0.0)) in
    let args =
      [
        Op2.arg_dat out Access.Write;
        Op2.arg_dat named Access.Inc;
        Op2.arg_dat_indirect touched map 0 Access.Inc;
      ]
    in
    let calls = Atomic.make 0 in
    (match walker with
    | `Element -> Op2.par_loop_acc ctx ~name:"neg0" iter args (counted calls reads_scratch)
    | `Point -> point_walker ~set_size:5 args reads_scratch);
    (Atomic.get calls, List.map (fun d -> bits (Op2.fetch ctx d)) [ out; named; touched ])
  in
  let calls, element = run `Element and _, point = run `Point in
  Alcotest.(check int) "the element walker runs" 1 calls;
  Alcotest.(check bool) "element walker = point walker, bitwise" true (element = point);
  let plus_zero = Int64.bits_of_float 0.0 in
  List.iter2
    (fun name b ->
      Alcotest.(check bool)
        (name ^ ": -0.0 comes out +0.0")
        true
        (Array.for_all (Int64.equal plus_zero) b))
    [ "named, never written"; "never named" ]
    (List.tl element);
  Alcotest.(check bool) "out = 0.0 + 1.0" true
    (Array.for_all (Int64.equal (Int64.bits_of_float 1.0)) (List.hd element))

(* ---- Global reductions on Shared ------------------------------------------- *)

(* The Inc reassociation tolerance of the backend comparisons. *)
let eps = 1e-10
let close a b = Float.abs (a -. b) <= eps *. (1.0 +. Float.abs b)

(* [globals] and [literal_globals] (conflict-free) and [coloured_globals]
   (an indirect Inc, so coloured blocks) over 2,000 elements, on Seq and
   on Shared (pool 2, blocks of 64), from the same data: Min and Max agree
   to the bit, Inc sums and datasets within [eps], and on Shared the
   element walker runs over several ranges. *)
let test_shared_globals () =
  let case kernel =
    let sg = signature kernel in
    let n = 2000 and m = 300 in
    let maps =
      List.map
        (fun (map, arity) ->
          (map, arity, Array.init (n * arity) (fun i -> ((i * 7919) + (i / arity * 31)) mod m)))
        (map_labels sg)
    in
    (* One dataset per label: a Read of a dataset the loop increments
       would see the increments in a backend-dependent order. *)
    let picks = List.mapi (fun j l -> (l, j)) (dataset_labels sg) in
    { kernel; n; m; maps; picks; soa = None; seed = 4242 }
  in
  Pool.with_pool ~size:2 (fun pool ->
      List.iter
        (fun kernel ->
          let c = case kernel in
          let name = (walker kernel).Acc.kname in
          let run backend =
            let calls = Atomic.make 0 in
            let ctx, iter, args, dats, gbls = build c in
            Op2.set_backend ctx backend;
            Op2.par_loop_acc ctx ~name iter args (counted calls kernel);
            (Atomic.get calls, List.map (Op2.fetch ctx) dats, gbls)
          in
          let _, dats, gbls = run Op2.Seq in
          let calls, dats', gbls' = run (Op2.Shared { pool; block_size = 64 }) in
          if calls < 2 then Alcotest.failf "%s: shared ran %d element-walker ranges" name calls;
          List.iter2
            (fun a b ->
              if not (Array.for_all2 close b a) then
                Alcotest.failf "%s: a dataset differs from seq" name)
            dats dats';
          let modes =
            List.filter_map
              (function Acc.Gbl { access; _ } -> Some access | Acc.Dat _ -> None)
              (Array.to_list (signature kernel))
          in
          List.iteri
            (fun g (mode, (want, got)) ->
              match mode with
              | Access.Inc ->
                if not (Array.for_all2 close got want) then
                  Alcotest.failf "%s: global %d's sum differs from seq beyond eps" name g
              | Access.Min | Access.Max ->
                if bits got <> bits want then Alcotest.failf "%s: global %d differs from seq" name g
              | Access.Read | Access.Write | Access.Rw -> ())
            (List.combine modes (List.combine gbls gbls')))
        [ globals; literal_globals; coloured_globals ])

(* ---- Declared signatures: a mismatch is refused by name -------------------- *)

let%elem_kernel declared (a : Acc.t array) =
  set a.(2) 0 (get a.(2) 0 +. get a.(0) 0 +. get a.(1) 1);
  set a.(3) 0 (get a.(2) 0)
[@@args x (e2n 2 0) 2 Read, x (e2n 2 1) 2 Read, y 1 Rw, z (e2c 2 1) 1 Inc]

(* One loop per declared fact of [declared], that fact off by one: the
   loop's name, its arguments, and the argument and fact the refusal must
   name. *)
type mesh = {
  mctx : Op2.ctx;
  edges : Op2.set;
  e2n : Op2.map_t;
  e2n' : Op2.map_t; (* the same shape as e2n *)
  e2c : Op2.map_t;
  e2c3 : Op2.map_t; (* arity 3 *)
  x : Op2.dat;
  x' : Op2.dat; (* the same shape as x *)
  x3 : Op2.dat; (* dim 3 *)
  y : Op2.dat;
  z : Op2.dat;
  zd : Op2.dat; (* on the edges *)
}

let make_mesh () =
  let ctx = Op2.create () in
  let nodes = Op2.decl_set ctx ~name:"nodes" ~size:8 in
  let cells = Op2.decl_set ctx ~name:"cells" ~size:5 in
  let edges = Op2.decl_set ctx ~name:"edges" ~size:12 in
  let map name to_set arity shift =
    Op2.decl_map ctx ~name ~from_set:edges ~to_set ~arity
      ~values:(Array.init (12 * arity) (fun i -> (i + shift) mod to_set.Am_op2.Types.set_size))
  in
  let dat name set dim =
    Op2.decl_dat ctx ~name ~set ~dim
      ~data:(Array.init (set.Am_op2.Types.set_size * dim) (fun i -> Float.of_int i +. 0.5))
  in
  {
    mctx = ctx;
    edges;
    e2n = map "e2n" nodes 2 0;
    e2n' = map "e2n'" nodes 2 3;
    e2c = map "e2c" cells 2 0;
    e2c3 = map "e2c3" cells 3 1;
    x = dat "x" nodes 2;
    x' = dat "x'" nodes 2;
    x3 = dat "x3" nodes 3;
    y = dat "y" edges 1;
    z = dat "z" cells 1;
    zd = dat "zd" edges 1;
  }

let mismatches t =
  let ind = Op2.arg_dat_indirect in
  let args ?(a0 = ind t.x t.e2n 0 Access.Read) ?(a1 = ind t.x t.e2n 1 Access.Read)
      ?(a2 = Op2.arg_dat t.y Access.Rw) ?(a3 = ind t.z t.e2c 1 Access.Inc) () =
    [ a0; a1; a2; a3 ]
  in
  [
    ("sig_dim", args ~a0:(ind t.x3 t.e2n 0 Access.Read) (), 0, "dim");
    ("sig_access", args ~a2:(Op2.arg_dat t.y Access.Write) (), 2, "access");
    ("sig_direct", args ~a3:(Op2.arg_dat t.zd Access.Inc) (), 3, "indirect");
    ("sig_arity", args ~a3:(ind t.z t.e2c3 1 Access.Inc) (), 3, "arity");
    ("sig_slot", args ~a3:(ind t.z t.e2c 0 Access.Inc) (), 3, "slot");
    ("sig_dataset", args ~a1:(ind t.x' t.e2n 1 Access.Read) (), 1, "dataset label x");
    ("sig_map", args ~a1:(ind t.x t.e2n' 1 Access.Read) (), 1, "map label e2n");
  ]

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec at i = i + k <= n && (String.sub s i k = sub || at (i + 1)) in
  at 0

let test_signature_mismatch () =
  Pool.with_pool ~size:2 (fun pool ->
      let cuda =
        Op2.Cuda_sim { Am_op2.Exec_cuda.block_size = 4; strategy = Am_op2.Exec_cuda.Global_aos }
      in
      List.iter
        (fun (backend, setup) ->
          let t = make_mesh () in
          setup t;
          let snapshot () = List.map (fun d -> bits (Op2.fetch t.mctx d)) (Op2.dats t.mctx) in
          List.iter
            (fun (loop, args, k, fact) ->
              let before = snapshot () in
              (match Op2.par_loop_acc t.mctx ~name:loop t.edges args declared with
              | () -> Alcotest.failf "%s, %s: the mismatched call ran" backend loop
              | exception Invalid_argument msg ->
                List.iter
                  (fun what ->
                    if not (contains msg what) then
                      Alcotest.failf "%s, %s: %S does not name %S" backend loop msg what)
                  [ loop; "kernel declared"; Printf.sprintf "argument %d" k; fact ]);
              if snapshot () <> before then
                Alcotest.failf "%s, %s: a dataset changed" backend loop)
            (mismatches t);
          (* The declared shape itself runs. *)
          Op2.par_loop_acc t.mctx ~name:"sig_ok" t.edges
            [
              Op2.arg_dat_indirect t.x t.e2n 0 Access.Read;
              Op2.arg_dat_indirect t.x t.e2n 1 Access.Read;
              Op2.arg_dat t.y Access.Rw;
              Op2.arg_dat_indirect t.z t.e2c 1 Access.Inc;
            ]
            declared)
        [
          ("seq", ignore);
          ("shared 2", fun t -> Op2.set_backend t.mctx (Op2.Shared { pool; block_size = 4 }));
          ("vec", fun t -> Op2.set_backend t.mctx (Op2.Vec { Am_op2.Exec_vec.width = 4 }));
          ("check", fun t -> Op2.set_backend t.mctx Op2.Check);
          ("cuda", fun t -> Op2.set_backend t.mctx cuda);
          ( "3 ranks",
            fun t -> Op2.partition t.mctx ~n_ranks:3 ~strategy:(Op2.Kway_through t.e2c) );
        ])

let () =
  Alcotest.run "elem_walker"
    [
      ( "element walker = point walker",
        [
          Alcotest.test_case "seeded OP2 loop corpus, bitwise (AM_SEED)" `Quick test_corpus;
          Alcotest.test_case "-0.0 under a staged Inc the body never writes" `Quick
            test_negative_zero;
          Alcotest.test_case "global Inc/Min/Max on Shared against Seq" `Quick test_shared_globals;
        ] );
      ( "declared signatures",
        [
          Alcotest.test_case "a mismatched fact is refused by name on every backend" `Quick
            test_signature_mismatch;
        ] );
    ]

(* Generated element walkers ([let%elem_kernel]) against the point walker.

   A seeded corpus of OP2 loops — every access mode on direct, indirect
   and global arguments, dims 1, 2 and 4, map arities 1, 2 and 4, sets of
   0, 1 and n elements, aliased and SoA datasets — runs each loop twice
   from the same data: through [Op2.par_loop_acc] on Seq, where the
   kernel's generated element walker runs whenever every dataset argument
   is in place or a staged AoS Inc, and through the point walker
   ([Exec_common.run_element] per element, what Seq ran before).  Every
   dataset and global must agree to the bit, and the element walker must
   have run exactly when the dispatch rule allows it.  A failure prints
   the case and its replay seed (AM_SEED).

   Two fixed cases pin the Inc staging: a staged Inc the body never
   writes, or never names, still adds its zero scratch, so a -0.0 target
   comes out +0.0 under both walkers. *)

module Op2 = Am_op2.Op2
module Acc = Op2.Acc
module Access = Am_core.Access
module Exec_common = Am_op2.Exec_common

let[@inline] get (a : Acc.t) i = a.Acc.data.(a.Acc.base + i)
let[@inline] set (a : Acc.t) i v = a.Acc.data.(a.Acc.base + i) <- v

(* ---- The corpus kernels ---------------------------------------------------- *)

(* What a corpus kernel does with one argument: whether it reads its
   components into the running value, and how it then writes them. *)
type write_effect = No | Assign | Mix | Add | Lower | Raise

type role = { dim : int; reads : bool; write : write_effect }

(* The roles of the loop being run, one per argument, set before it runs. *)
let roles = ref [||]

let[@inline] next s = (s *. 1.5) -. 0.125

(* The new value of a component under [write], from the old one [o] and
   the running value [v]. *)
let[@inline] apply write o v =
  match write with
  | No -> o
  | Assign -> v
  | Mix -> (o *. 0.5) -. v
  | Add -> o +. v
  | Lower -> Float.min o v
  | Raise -> Float.max o v

(* Four arguments: read every readable one in argument order, then write
   every writable one, each component from the running value.  Literal
   argument numbers, computed components. *)
let%elem_kernel corpus (a : Acc.t array) =
  let r = !roles in
  let x0 = a.(0) and x1 = a.(1) and x2 = a.(2) and x3 = a.(3) in
  let s = ref 0.25 in
  if r.(0).reads then for c = 0 to r.(0).dim - 1 do s := (!s *. 0.5) +. get x0 c done;
  if r.(1).reads then for c = 0 to r.(1).dim - 1 do s := (!s *. 0.5) +. get x1 c done;
  if r.(2).reads then for c = 0 to r.(2).dim - 1 do s := (!s *. 0.5) +. get x2 c done;
  if r.(3).reads then for c = 0 to r.(3).dim - 1 do s := (!s *. 0.5) +. get x3 c done;
  if r.(0).write <> No then
    for c = 0 to r.(0).dim - 1 do
      set x0 c (apply r.(0).write (get x0 c) (!s +. Float.of_int c))
    done;
  s := next !s;
  if r.(1).write <> No then
    for c = 0 to r.(1).dim - 1 do
      set x1 c (apply r.(1).write (get x1 c) (!s +. Float.of_int c))
    done;
  s := next !s;
  if r.(2).write <> No then
    for c = 0 to r.(2).dim - 1 do
      set x2 c (apply r.(2).write (get x2 c) (!s +. Float.of_int c))
    done;
  s := next !s;
  if r.(3).write <> No then
    for c = 0 to r.(3).dim - 1 do
      set x3 c (apply r.(3).write (get x3 c) (!s +. Float.of_int c))
    done

(* The same, writing only arguments 0 and 1: a staged Inc in slot 2 or 3
   is one the body never writes, which the generated walker stages
   through [Acc.zero_incs] and [Acc.add_incs]. *)
let%elem_kernel corpus_01 (a : Acc.t array) =
  let r = !roles in
  let x0 = a.(0) and x1 = a.(1) and x2 = a.(2) and x3 = a.(3) in
  let s = ref 0.25 in
  if r.(0).reads then for c = 0 to r.(0).dim - 1 do s := (!s *. 0.5) +. get x0 c done;
  if r.(1).reads then for c = 0 to r.(1).dim - 1 do s := (!s *. 0.5) +. get x1 c done;
  if r.(2).reads then for c = 0 to r.(2).dim - 1 do s := (!s *. 0.5) +. get x2 c done;
  if r.(3).reads then for c = 0 to r.(3).dim - 1 do s := (!s *. 0.5) +. get x3 c done;
  if r.(0).write <> No then
    for c = 0 to r.(0).dim - 1 do
      set x0 c (apply r.(0).write (get x0 c) (!s +. Float.of_int c))
    done;
  s := next !s;
  if r.(1).write <> No then
    for c = 0 to r.(1).dim - 1 do
      set x1 c (apply r.(1).write (get x1 c) (!s +. Float.of_int c))
    done

(* ---- Cases ------------------------------------------------------------------ *)

type place = Direct | Indirect of int (* map slot *) | Global

type mode = Read | Write | Rw | Inc | Inc_untouched | Min | Max

(* One argument: where it lives, how it is accessed, its dim, and which of
   two datasets of that set and dim it names (equal picks alias). *)
type arg_spec = { place : place; mode : mode; dim : int; pick : int }

type case = {
  n : int; (* iteration set size *)
  m : int; (* target set size *)
  arity : int;
  map : int array;
  specs : arg_spec array; (* four *)
  soa : int option; (* an argument whose dataset is converted to SoA *)
  only_01 : bool; (* run [corpus_01] *)
  seed : int; (* data *)
}

let mode_name = function
  | Read -> "R"
  | Write -> "W"
  | Rw -> "RW"
  | Inc -> "I"
  | Inc_untouched -> "I0"
  | Min -> "MIN"
  | Max -> "MAX"

let show c =
  Printf.sprintf "n=%d m=%d arity=%d%s%s [%s]" c.n c.m c.arity
    (if c.only_01 then " corpus_01" else "")
    (match c.soa with None -> "" | Some k -> Printf.sprintf " soa#%d" k)
    (String.concat "; "
       (Array.to_list
          (Array.map
             (fun s ->
               Printf.sprintf "%s %s dim%d #%d"
                 (match s.place with
                 | Direct -> "direct"
                 | Indirect k -> Printf.sprintf "map.%d" k
                 | Global -> "gbl")
                 (mode_name s.mode) s.dim s.pick)
             c.specs)))

let role_of only_01 k s =
  let role reads write = { dim = s.dim; reads; write } in
  let role =
    match (s.place, s.mode) with
    | Global, (Read | Write | Rw) -> role true No
    | Global, (Inc | Inc_untouched) -> role false Add
    | Global, Min -> role false Lower
    | Global, Max -> role false Raise
    | _, Read -> role true No
    | _, Write -> role false Assign
    | _, Rw -> role true Mix
    | _, Inc -> role false Add
    | _, (Inc_untouched | Min | Max) -> role false No
  in
  if only_01 && k >= 2 then { role with write = No } else role

let gen_case =
  QCheck.Gen.(
    let* n = frequency [ (1, return 0); (1, return 1); (4, int_range 2 40) ] in
    let* m = int_range 1 12 in
    let* arity = oneofl [ 1; 2; 4 ] in
    let* values = array_size (return (n * arity)) (int_bound (m - 1)) in
    let gen_spec =
      let* place =
        frequency
          [
            (2, return Direct);
            (3, map (fun k -> Indirect k) (int_bound (arity - 1)));
            (1, return Global);
          ]
      in
      let* mode =
        match place with
        | Global -> oneofl [ Read; Inc; Min; Max ]
        | Direct | Indirect _ ->
          frequency
            [
              (3, return Read);
              (2, return Write);
              (2, return Rw);
              (3, return Inc);
              (1, return Inc_untouched);
            ]
      in
      let* dim = oneofl [ 1; 2; 4 ] in
      let* pick = int_bound 1 in
      return { place; mode; dim; pick }
    in
    let* specs = array_size (return 4) gen_spec in
    let* soa = frequency [ (6, return None); (1, map Option.some (int_bound 3)) ] in
    let* only_01 = frequency [ (3, return false); (1, return true) ] in
    let* seed = int_bound 1_000_000 in
    return { n; m; arity; map = values; specs; soa; only_01; seed })

(* Initial values, -0.0 among them so Inc's +0.0 rule is exercised. *)
let value seed i =
  match (seed + (i * 7919)) mod 9 with
  | 0 -> -0.0
  | 1 -> 0.0
  | 2 -> 1.0
  | 3 -> -2.5
  | 4 -> 0.375
  | j -> Float.of_int ((seed mod 97) - 48) /. Float.of_int (j + 3)

(* The case's context: sets, map, datasets (keyed by set, dim and pick),
   global buffers and the argument list. *)
let build c =
  let ctx = Op2.create () in
  let iter = Op2.decl_set ctx ~name:"iter" ~size:c.n in
  let target = Op2.decl_set ctx ~name:"target" ~size:c.m in
  let map =
    Op2.decl_map ctx ~name:"map" ~from_set:iter ~to_set:target ~arity:c.arity ~values:c.map
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
  let access = function
    | Read -> Access.Read
    | Write -> Access.Write
    | Rw -> Access.Rw
    | Inc | Inc_untouched -> Access.Inc
    | Min -> Access.Min
    | Max -> Access.Max
  in
  let gbls = ref [] and soa = ref [] in
  let args =
    Array.to_list
      (Array.mapi
         (fun k s ->
           let dat on_iter =
             let d = dat ~on_iter ~dim:s.dim ~pick:s.pick in
             if c.soa = Some k then soa := d :: !soa;
             d
           in
           match s.place with
           | Global ->
             let buf = Array.init s.dim (value (c.seed + (1000 * k))) in
             gbls := buf :: !gbls;
             Op2.arg_gbl ~name:(Printf.sprintf "g%d" k) buf (access s.mode)
           | Direct -> Op2.arg_dat (dat true) (access s.mode)
           | Indirect slot -> Op2.arg_dat_indirect (dat false) map slot (access s.mode))
         c.specs)
  in
  List.iter (fun d -> Op2.convert_layout ctx d Op2.Soa) !soa;
  (ctx, iter, args, Op2.dats ctx, List.rev !gbls)

let bits a = Array.map Int64.bits_of_float a

(* The point walker over every element, as Seq ran before element walkers. *)
let point_walker ~set_size args kernel =
  let compiled = Exec_common.compile args in
  let frame = Exec_common.make_frame compiled (Exec_common.Accessor kernel) in
  for e = 0 to set_size - 1 do
    Exec_common.run_element frame e
  done;
  if Exec_common.has_globals compiled then
    Exec_common.merge_globals compiled frame.Exec_common.bufs

let state ctx dats gbls = List.map (fun d -> bits (Op2.fetch ctx d)) dats @ List.map bits gbls

(* [k] with its element walker counting its calls in [calls]. *)
let counted calls (k : Acc.kernel) =
  let elems = Option.get k.Acc.elems in
  {
    k with
    Acc.elems =
      Some
        (fun w lo hi ->
          incr calls;
          elems w lo hi);
  }

(* Run [c] both ways; returns whether the element walker ran over a
   non-empty set. *)
let run_case c =
  roles := Array.mapi (role_of c.only_01) c.specs;
  let kernel = if c.only_01 then corpus_01 else corpus in
  let calls = ref 0 in
  let probed = counted calls kernel in
  let ctx, iter, args, dats, gbls = build c in
  let elementwise = (Exec_common.compile args).Exec_common.elementwise in
  Op2.par_loop_acc ctx ~name:"corpus" iter args probed;
  let ctx', _, args', dats', gbls' = build c in
  point_walker ~set_size:c.n args' kernel;
  if state ctx dats gbls <> state ctx' dats' gbls' then
    Qcheck_util.failf_seed Qcheck_util.base_seed "element walker differs from the point walker: %s"
      (show c);
  let ran = !calls > 0 in
  if ran <> elementwise then
    Qcheck_util.failf_seed Qcheck_util.base_seed "element walker %s where the rule says %s: %s"
      (if ran then "ran" else "did not run")
      (if elementwise then "it runs" else "it does not")
      (show c);
  ran && c.n > 0

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
    [
      ("an empty set", fun c -> c.n = 0);
      ("a one-element set", fun c -> c.n = 1);
      ("arity 4", fun c -> c.arity = 4);
      ("an untouched Inc", fun c -> Array.exists (fun s -> s.mode = Inc_untouched) c.specs);
      ( "a SoA dataset",
        fun c -> match c.soa with Some k -> c.specs.(k).place <> Global | None -> false );
      ( "a staged Inc the body never writes",
        fun c -> c.only_01 && Array.exists (fun s -> s.mode = Inc) (Array.sub c.specs 2 2) );
      ( "an in-place Read of a dataset another argument increments",
        fun c ->
          Array.exists
            (fun r ->
              r.mode = Read && r.place <> Global
              && Array.exists
                   (fun i ->
                     i.mode = Inc && i.pick = r.pick && i.dim = r.dim
                     && (match (i.place, r.place) with
                        | Direct, Direct -> true
                        | Indirect _, Indirect _ -> true
                        | _ -> false))
                   c.specs)
            c.specs );
    ]

(* ---- -0.0 under a staged Inc the body never writes ------------------------- *)

(* Argument 1 is read (an Inc's scratch reads 0.0) but never written,
   argument 2 never named: both are staged Incs that add zero. *)
let%elem_kernel reads_scratch (a : Acc.t array) = set a.(0) 0 (get a.(1) 0 +. 1.0)

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
    let calls = ref 0 in
    (match walker with
    | `Element -> Op2.par_loop_acc ctx ~name:"neg0" iter args (counted calls reads_scratch)
    | `Point -> point_walker ~set_size:5 args reads_scratch);
    (!calls, List.map (fun d -> bits (Op2.fetch ctx d)) [ out; named; touched ])
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

let () =
  Alcotest.run "elem_walker"
    [
      ( "element walker = point walker",
        [
          Alcotest.test_case "seeded OP2 loop corpus, bitwise (AM_SEED)" `Quick test_corpus;
          Alcotest.test_case "-0.0 under a staged Inc the body never writes" `Quick
            test_negative_zero;
        ] );
    ]

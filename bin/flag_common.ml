(* Flag validation shared by every driver, OP2 and OPS alike.

   A bad flag combination is a usage error: the message goes to stderr and
   the driver exits 2 before doing any work. *)

let usage_error ~app msg =
  Printf.eprintf "%s: %s\n%!" app msg;
  exit 2

(* [backends] are the driver's documented backends; [sizes] the driver's
   counted flags (problem sizes, cloverleaf's --summary-every) with their
   values, each of which must be at least 1; [counts] its iteration or
   step count, which may be 0 (run nothing) but not negative; [outputs]
   the files the run writes (--trace, --obs-json, airfoil's --save and
   --mesh) with their flags, each of which must lie in an existing
   directory, so a mistyped path fails now rather than after the whole
   run. *)
let check_flags ~backends ~app ~sizes ~counts ~outputs ~backend ~ranks =
  List.iter
    (fun (flag, v) ->
      if v < 1 then usage_error ~app (Printf.sprintf "%s must be at least 1" flag))
    sizes;
  List.iter
    (fun (flag, v) ->
      if v < 0 then usage_error ~app (Printf.sprintf "%s must be at least 0" flag))
    counts;
  if not (List.mem backend backends) then
    usage_error ~app
      (Printf.sprintf "unknown backend %s (expected one of %s)" backend
         (String.concat ", " backends));
  if ranks < 1 then usage_error ~app "--ranks must be at least 1";
  List.iter
    (fun (flag, path) ->
      match path with
      | Some path ->
        let dir = Filename.dirname path in
        if not (Sys.file_exists dir && Sys.is_directory dir) then
          usage_error ~app (Printf.sprintf "%s %s: no directory %s" flag path dir)
      | None -> ())
    outputs

(* The a x b process grid of a two-axis decomposition over [ranks] ranks
   (mpi2d's px x py, pencil's py x pz): [a] is the largest divisor of
   [ranks] not above its square root, so the grid is as square as [ranks]
   allows — 4 -> 2x2, 18 -> 3x6, a prime p -> 1xp. *)
let grid_shape ranks =
  let rec widest d best =
    if d * d > ranks then best else widest (d + 1) (if ranks mod d = 0 then d else best)
  in
  let a = widest 1 1 in
  (a, ranks / a)

(* A call the library refuses with [Invalid_argument] is a usage error
   carrying the library's message: a decomposition with fewer rows, planes
   or cells than ranks, or a rank thinner than the ghost depth; a Hydra
   mesh of odd size.  Only [f]'s own refusal is caught: anything else
   raised later still escapes. *)
let usage_on_refusal ~app f = try f () with Invalid_argument msg -> usage_error ~app msg

(* walkers_c.exe a.ml b.ml > walkers.c: the C native walker of every
   [let%kernel] signature and every [let%elem_kernel] in the files named,
   after the prelude, in file and source order.  The rewriter binds each
   range walker's [range], and each element walker's [elems], to the same
   symbol, so a library or test stanza whose files declare kernels
   compiles this output as a foreign stub (see lib/apps_cloverleaf/dune and
   lib/apps_airfoil/dune).  A kernel the translator refuses fails here as
   it fails the OCaml build, with the same located error. *)

let walkers path =
  let src = In_channel.with_open_text path In_channel.input_all in
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf path;
  try Ppx_kernel.walkers_c (Ppxlib.Parse.implementation lexbuf)
  with exn -> (
    match Ppxlib.Location.Error.of_exn exn with
    | Some err ->
      let loc = Ppxlib.Location.Error.get_location err in
      Printf.eprintf "File %S, line %d: %s\n" path loc.loc_start.pos_lnum
        (Ppxlib.Location.Error.message err);
      exit 1
    | None -> raise exn)

let () =
  let seen = Hashtbl.create 32 in
  let files = List.map (fun path -> (path, walkers path)) (List.tl (Array.to_list Sys.argv)) in
  print_string (Ppx_kernel.prelude_of (List.concat_map snd files));
  List.iter
    (fun (path, walkers) ->
      List.iter
        (fun (symbol, c) ->
          if Hashtbl.mem seen symbol then (
            Printf.eprintf "%s: two walkers are named %s; rename one of the kernels\n" path symbol;
            exit 1);
          Hashtbl.add seen symbol ();
          print_newline ();
          print_string c)
        walkers)
    files

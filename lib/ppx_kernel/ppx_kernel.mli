(** The [let%kernel] and [let%elem_kernel] rewriter (see ppx_kernel.ml),
    registered with ppxlib when linked, as [(preprocess (pps ppx_kernel))]
    does. *)

(** Expand every [let%kernel] and [let%elem_kernel] of a structure, raising
    a located error on a kernel the rewriter refuses: the rewriter as a
    function, for tests. *)
val rewrite_structure : Ppxlib.structure -> Ppxlib.structure

(** The C a file of native walkers starts with, given its walkers: the
    helpers every file needs, and the element walkers' when it holds
    one. *)
val prelude_of : (string * string) list -> string

(** The native walkers of a structure's [let%kernel]s (one per signature)
    and [let%elem_kernel]s, in source order: each walker's C symbol and
    function, raising as [rewrite_structure] does. *)
val walkers_c : Ppxlib.structure -> (string * string) list

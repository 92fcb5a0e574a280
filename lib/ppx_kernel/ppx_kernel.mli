(** The [let%kernel] and [let%elem_kernel] rewriter (see ppx_kernel.ml),
    registered with ppxlib when linked, as [(preprocess (pps ppx_kernel))]
    does. *)

(** Expand every [let%kernel] and [let%elem_kernel] of a structure, raising
    a located error on a kernel the rewriter refuses: the rewriter as a
    function, for tests. *)
val rewrite_structure : Ppxlib.structure -> Ppxlib.structure

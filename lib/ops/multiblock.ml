(* Inter-block halos.

   OPS applications declare how datasets on *different* blocks abut: a halo
   couples a rectangular face of one dataset to a face of another, with an
   orientation describing how indices map across the interface.  Transfers
   are triggered explicitly by the application (the paper: "inter-block halo
   exchanges are triggered explicitly by the user and serve as
   synchronization points"). *)

open Types

(* Index transform across the interface: the destination point is
   [dst_origin + M * (p - src_origin)] where [M] encodes axis permutation
   and flips. *)
type orientation = {
  xx : int; (* contribution of source dx to destination dx: -1, 0 or 1 *)
  xy : int;
  yx : int;
  yy : int;
}

let identity_orientation = { xx = 1; xy = 0; yx = 0; yy = 1 }

type halo = {
  halo_name : string;
  src : dat;
  dst : dat;
  src_range : range; (* face on the source (z in [0, 1)), ghost rows allowed *)
  dst_range : range; (* matching face on the destination *)
  orientation : orientation;
}

let transformed_extent o r =
  let w = r.xhi - r.xlo and h = r.yhi - r.ylo in
  (abs ((o.xx * w) + (o.xy * h)), abs ((o.yx * w) + (o.yy * h)))

let decl_halo ~name ~src ~dst ~src_range ~dst_range ?(orientation = identity_orientation)
    () =
  if src.dim <> dst.dim then invalid_arg "decl_halo: component counts differ";
  let tw, th = transformed_extent orientation src_range in
  let dw = dst_range.xhi - dst_range.xlo and dh = dst_range.yhi - dst_range.ylo in
  if tw <> dw || th <> dh then
    invalid_arg
      (Printf.sprintf "decl_halo %s: transformed source face %dx%d does not match \
                       destination face %dx%d" name tw th dw dh);
  let check_bounds d r =
    if r.xlo < x_min d || r.xhi > x_max d || r.ylo < y_min d || r.yhi > y_max d then
      invalid_arg (Printf.sprintf "decl_halo %s: range %s outside dat %s" name
                     (range_to_string ~rank:2 r) d.dat_name)
  in
  check_bounds src src_range;
  check_bounds dst dst_range;
  { halo_name = name; src; dst; src_range; dst_range; orientation }

(* Execute the copy: destination face values become source face values. *)
let transfer h =
  let o = h.orientation in
  let sw = h.src_range.xhi - h.src_range.xlo in
  let sh = h.src_range.yhi - h.src_range.ylo in
  (* Map local source offsets (i, j) to local destination offsets; negative
     transformed coordinates are shifted into [0, extent). *)
  let tx i j = (o.xx * i) + (o.xy * j) in
  let ty i j = (o.yx * i) + (o.yy * j) in
  let min_tx = min 0 (min (tx (sw - 1) 0) (min (tx 0 (sh - 1)) (tx (sw - 1) (sh - 1)))) in
  let min_ty = min 0 (min (ty (sw - 1) 0) (min (ty 0 (sh - 1)) (ty (sw - 1) (sh - 1)))) in
  for j = 0 to sh - 1 do
    for i = 0 to sw - 1 do
      let dx = h.dst_range.xlo + (tx i j - min_tx) in
      let dy = h.dst_range.ylo + (ty i j - min_ty) in
      for c = 0 to h.src.dim - 1 do
        set h.dst ~x:dx ~y:dy ~z:0 ~c
          (get h.src ~x:(h.src_range.xlo + i) ~y:(h.src_range.ylo + j) ~z:0 ~c)
      done
    done
  done

let transfer_all halos = List.iter transfer halos

(* Inter-block halos in 3D — the 3D instantiation of {!Multiblock}.

   A halo couples a box face of one dataset to a face of another, with an
   orientation matrix (axis permutation and flips, entries -1/0/1)
   describing how indices map across the interface.  Transfers are
   triggered explicitly by the application, as the paper describes. *)

open Types

(* Destination point = dst_origin + M * (p - src_origin), with the
   transformed box shifted so its minimum corner lands on dst_origin. *)
type orientation = {
  xx : int; xy : int; xz : int;
  yx : int; yy : int; yz : int;
  zx : int; zy : int; zz : int;
}

let identity_orientation =
  { xx = 1; xy = 0; xz = 0; yx = 0; yy = 1; yz = 0; zx = 0; zy = 0; zz = 1 }

type halo = {
  halo_name : string;
  src : dat;
  dst : dat;
  src_range : range; (* face/box on the source, ghost cells allowed *)
  dst_range : range;
  orientation : orientation;
}

let transformed_extent o r =
  let w = r.xhi - r.xlo and h = r.yhi - r.ylo and d = r.zhi - r.zlo in
  ( abs ((o.xx * w) + (o.xy * h) + (o.xz * d)),
    abs ((o.yx * w) + (o.yy * h) + (o.yz * d)),
    abs ((o.zx * w) + (o.zy * h) + (o.zz * d)) )

let decl_halo ~name ~src ~dst ~src_range ~dst_range
    ?(orientation = identity_orientation) () =
  if src.dim <> dst.dim then invalid_arg "decl_halo3: component counts differ";
  let tw, th, td = transformed_extent orientation src_range in
  let dw = dst_range.xhi - dst_range.xlo in
  let dh = dst_range.yhi - dst_range.ylo in
  let dd = dst_range.zhi - dst_range.zlo in
  if tw <> dw || th <> dh || td <> dd then
    invalid_arg
      (Printf.sprintf
         "decl_halo3 %s: transformed source box %dx%dx%d does not match \
          destination box %dx%dx%d" name tw th td dw dh dd);
  let check_bounds d r =
    if r.xlo < x_min d || r.xhi > x_max d || r.ylo < y_min d || r.yhi > y_max d
       || r.zlo < z_min d || r.zhi > z_max d
    then
      invalid_arg (Printf.sprintf "decl_halo3 %s: range %s outside dat %s" name
                     (range_to_string ~rank:3 r) d.dat_name)
  in
  check_bounds src src_range;
  check_bounds dst dst_range;
  { halo_name = name; src; dst; src_range; dst_range; orientation }

let transfer h =
  let o = h.orientation in
  let sw = h.src_range.xhi - h.src_range.xlo in
  let sh = h.src_range.yhi - h.src_range.ylo in
  let sd = h.src_range.zhi - h.src_range.zlo in
  let tx i j k = (o.xx * i) + (o.xy * j) + (o.xz * k) in
  let ty i j k = (o.yx * i) + (o.yy * j) + (o.yz * k) in
  let tz i j k = (o.zx * i) + (o.zy * j) + (o.zz * k) in
  (* Minimum transformed coordinate over the box corners (the transform is
     affine, so extrema sit on corners). *)
  let corner_min f =
    let m = ref 0 in
    List.iter
      (fun (i, j, k) -> if f i j k < !m then m := f i j k)
      [ (0, 0, 0); (sw - 1, 0, 0); (0, sh - 1, 0); (0, 0, sd - 1);
        (sw - 1, sh - 1, 0); (sw - 1, 0, sd - 1); (0, sh - 1, sd - 1);
        (sw - 1, sh - 1, sd - 1) ];
    !m
  in
  let min_tx = corner_min tx and min_ty = corner_min ty and min_tz = corner_min tz in
  for k = 0 to sd - 1 do
    for j = 0 to sh - 1 do
      for i = 0 to sw - 1 do
        let dx = h.dst_range.xlo + (tx i j k - min_tx) in
        let dy = h.dst_range.ylo + (ty i j k - min_ty) in
        let dz = h.dst_range.zlo + (tz i j k - min_tz) in
        for c = 0 to h.src.dim - 1 do
          set h.dst ~x:dx ~y:dy ~z:dz ~c
            (get h.src ~x:(h.src_range.xlo + i) ~y:(h.src_range.ylo + j)
               ~z:(h.src_range.zlo + k) ~c)
        done
      done
    done
  done

let transfer_all halos = List.iter transfer halos

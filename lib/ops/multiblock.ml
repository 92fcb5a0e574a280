(* Inter-block halos, for blocks of every rank.

   OPS applications declare how datasets on *different* blocks abut: a halo
   couples a box face of one dataset to a face of another, with an
   orientation describing how indices map across the interface.  Transfers
   are triggered explicitly by the application (the paper: "inter-block halo
   exchanges are triggered explicitly by the user and serve as
   synchronization points").  A 2D halo is the z-extent-1 case. *)

open Types

(* Index transform across the interface: the destination point is
   [dst_origin + M * (p - src_origin)], where [M] encodes axis permutation
   and flips (entries -1, 0 or 1; [xy] is the contribution of source dy to
   destination dx), with the transformed box shifted so its minimum corner
   lands on [dst_origin]. *)
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

let tx o i j k = (o.xx * i) + (o.xy * j) + (o.xz * k)
let ty o i j k = (o.yx * i) + (o.yy * j) + (o.yz * k)
let tz o i j k = (o.zx * i) + (o.zy * j) + (o.zz * k)

let box_dims ~rank w h d =
  match rank with
  | 1 -> string_of_int w
  | 2 -> Printf.sprintf "%dx%d" w h
  | _ -> Printf.sprintf "%dx%dx%d" w h d

let decl_halo ~name ~src ~dst ~src_range ~dst_range ?(orientation = identity_orientation)
    () =
  let rank = src.dat_block.rank in
  if src.dim <> dst.dim then invalid_arg "decl_halo: component counts differ";
  let w = src_range.xhi - src_range.xlo
  and h = src_range.yhi - src_range.ylo
  and d = src_range.zhi - src_range.zlo in
  let tw = abs (tx orientation w h d)
  and th = abs (ty orientation w h d)
  and td = abs (tz orientation w h d) in
  let dw = dst_range.xhi - dst_range.xlo
  and dh = dst_range.yhi - dst_range.ylo
  and dd = dst_range.zhi - dst_range.zlo in
  if tw <> dw || th <> dh || td <> dd then
    invalid_arg
      (Printf.sprintf
         "decl_halo %s: transformed source box %s does not match destination box %s" name
         (box_dims ~rank tw th td) (box_dims ~rank dw dh dd));
  let check_bounds d r =
    let a = addressable d in
    if r.xlo < a.xlo || r.xhi > a.xhi || r.ylo < a.ylo || r.yhi > a.yhi || r.zlo < a.zlo
       || r.zhi > a.zhi
    then
      invalid_arg (Printf.sprintf "decl_halo %s: range %s outside dat %s" name
                     (range_to_string ~rank r) d.dat_name)
  in
  check_bounds src src_range;
  check_bounds dst dst_range;
  { halo_name = name; src; dst; src_range; dst_range; orientation }

(* Execute the copy: destination face values become source face values. *)
let transfer h =
  let o = h.orientation in
  let sw = h.src_range.xhi - h.src_range.xlo in
  let sh = h.src_range.yhi - h.src_range.ylo in
  let sd = h.src_range.zhi - h.src_range.zlo in
  (* Minimum transformed coordinate over the box corners (the transform is
     linear, so extrema sit on corners); negative transformed coordinates
     are shifted into [0, extent). *)
  let corner_min f =
    let m = ref 0 in
    for c = 0 to 7 do
      let i = if c land 1 = 0 then 0 else sw - 1 in
      let j = if c land 2 = 0 then 0 else sh - 1 in
      let k = if c land 4 = 0 then 0 else sd - 1 in
      m := min !m (f o i j k)
    done;
    !m
  in
  let min_tx = corner_min tx and min_ty = corner_min ty and min_tz = corner_min tz in
  for k = 0 to sd - 1 do
    for j = 0 to sh - 1 do
      for i = 0 to sw - 1 do
        let dx = h.dst_range.xlo + (tx o i j k - min_tx) in
        let dy = h.dst_range.ylo + (ty o i j k - min_ty) in
        let dz = h.dst_range.zlo + (tz o i j k - min_tz) in
        for c = 0 to h.src.dim - 1 do
          set h.dst ~x:dx ~y:dy ~z:dz ~c
            (get h.src ~x:(h.src_range.xlo + i) ~y:(h.src_range.ylo + j)
               ~z:(h.src_range.zlo + k) ~c)
        done
      done
    done
  done

let transfer_all halos = List.iter transfer halos

(* Physical boundary conditions on the ghost ring (OPS's update_halo), for
   blocks of every rank.

   CloverLeaf-style codes refresh their ghost cells after every phase with
   reflective boundaries: ghost values mirror interior values, with an
   optional sign flip for velocity components normal to the wall.  Reading
   and writing the same dataset across an offset is exactly the dependence
   [par_loop] forbids, so — like OPS itself — the library provides this as
   a built-in operation rather than a user kernel.

   Mirroring is centre-aware: cell-centred fields reflect about the cell
   interface (ghost -k <-> interior k-1), node-centred fields about the
   boundary node (ghost -k <-> interior k).  The block's axes are mirrored
   outermost (z) to innermost (x), each over the stored extent of the axes
   outside it and the interior of the axes inside it, so an inner axis
   reflects the ghost layers the outer ones just filled and edges and
   corners come out consistent without communication. *)

open Types

type centering = Cell | Node

(* Mirror source index for ghost index [g] outside [0, size). *)
let mirror_low centering k = match centering with Cell -> k - 1 | Node -> k
let mirror_high centering size k =
  match centering with Cell -> size - k | Node -> size - 1 - k

let stride axis (v : Exec.view) =
  match axis with X -> v.vcol | Y -> v.vrow | Z -> v.vplane

(* Along an axis outside the mirrored one: the stored extent, clamped to
   the addressable box; inside it: the interior part of the stored extent.
   [own] is the box the view's owner holds, and its ghost ring is stored
   around it. *)
let outer_lo axis dat own = max (-ghost axis dat) (lo axis own - ghost axis dat)
let outer_hi axis dat own =
  min (extent axis dat + ghost axis dat) (hi axis own + ghost axis dat)

let inner_lo axis dat own = max 0 (lo axis own - ghost axis dat)
let inner_hi axis dat own = min (extent axis dat) (hi axis own + ghost axis dat)

(* The ghost layers of [axis] that [own] holds, copied from their mirror
   sources over the [lo1, hi1) x [lo2, hi2) rectangle of the other two axes
   ([axis1] the slower).  Plain index arithmetic on the view's array: no
   closure and no boxed float per ghost value. *)
let mirror_axis (v : Exec.view) ~dat ~own ~axis ~depth ~sign ~center ~axis1 ~lo1 ~hi1
    ~axis2 ~lo2 ~hi2 =
  let size = extent axis dat and dim = dat.dim and vdata = v.vdata in
  let sa = stride axis v and s1 = stride axis1 v and s2 = stride axis2 v in
  for k = 1 to depth do
    for side = 0 to 1 do
      let ghost = if side = 0 then -k else size - 1 + k in
      if ghost >= lo axis own && ghost < hi axis own then begin
        let src = if side = 0 then mirror_low center k else mirror_high center size k in
        for i1 = lo1 to hi1 - 1 do
          for i2 = lo2 to hi2 - 1 do
            let line = v.vbase + (i1 * s1) + (i2 * s2) in
            let g = line + (ghost * sa) and s = line + (src * sa) in
            for c = 0 to dim - 1 do
              vdata.(g + c) <- sign *. vdata.(s + c)
            done
          done
        done
      end
    done
  done

(* Is every mirror source of the ghost layers [own] holds along [axis]
   inside [own]?  Not when an edge rank owns no more cells along [axis]
   than a node-centred mirror is deep: its deepest source then lies in its
   ghost ring, a copy of a neighbour's cell. *)
let sources_owned ~dat ~(own : range) ~axis ~depth ~center =
  let size = extent axis dat in
  let owned i = i >= lo axis own && i < hi axis own in
  let ok = ref true in
  for k = 1 to depth do
    if owned (-k) && not (owned (mirror_low center k)) then ok := false;
    if owned (size - 1 + k) && not (owned (mirror_high center size k)) then ok := false
  done;
  !ok

let check_depth dat ~depth =
  if depth < 0 then
    invalid_arg
      (Printf.sprintf "%s.mirror_halo: depth %d of %s is negative" (facade dat.dat_block.rank)
         depth dat.dat_name);
  if depth > dat.halo then
    invalid_arg
      (Printf.sprintf "mirror_halo: depth %d exceeds the %d-deep ghost ring of %s" depth
         dat.halo dat.dat_name)

(* One axis's pass of the mirror of [dat]'s ghost ring stored behind the
   view [v] — the dataset's own padded array, or a distributed rank's
   window — where it falls in the owned box [own] (global numbering,
   half-open).  The passes run z, y, x: each covers the stored extent of
   the axes mirrored before it and the interior of the others. *)
let apply_axis (v : Exec.view) ~(dat : dat) ~(own : range) ~axis ~depth ~sign ~center =
  match axis with
  | Z ->
    mirror_axis v ~dat ~own ~axis:Z ~depth ~sign ~center ~axis1:Y
      ~lo1:(inner_lo Y dat own) ~hi1:(inner_hi Y dat own) ~axis2:X
      ~lo2:(inner_lo X dat own) ~hi2:(inner_hi X dat own)
  | Y ->
    mirror_axis v ~dat ~own ~axis:Y ~depth ~sign ~center ~axis1:Z
      ~lo1:(outer_lo Z dat own) ~hi1:(outer_hi Z dat own) ~axis2:X
      ~lo2:(inner_lo X dat own) ~hi2:(inner_hi X dat own)
  | X ->
    mirror_axis v ~dat ~own ~axis:X ~depth ~sign ~center ~axis1:Z
      ~lo1:(outer_lo Z dat own) ~hi1:(outer_hi Z dat own) ~axis2:Y
      ~lo2:(outer_lo Y dat own) ~hi2:(outer_hi Y dat own)

(* The whole mirror of an unpartitioned dataset, over its padded array. *)
let mirror ~depth ~sign_x ~sign_y ~sign_z ~center_x ~center_y ~center_z dat =
  check_depth dat ~depth;
  let v = Exec.dat_view dat and own = addressable dat in
  let rank = dat.dat_block.rank in
  if rank >= 3 then apply_axis v ~dat ~own ~axis:Z ~depth ~sign:sign_z ~center:center_z;
  if rank >= 2 then apply_axis v ~dat ~own ~axis:Y ~depth ~sign:sign_y ~center:center_y;
  apply_axis v ~dat ~own ~axis:X ~depth ~sign:sign_x ~center:center_x

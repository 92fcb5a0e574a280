(* Physical boundary conditions on the ghost ring (OPS's update_halo).

   CloverLeaf-style codes refresh their ghost cells after every phase with
   reflective boundaries: ghost values mirror interior values, with an
   optional sign flip for velocity components normal to the wall.  Reading
   and writing the same dataset across an offset is exactly the dependence
   [par_loop] forbids, so — like OPS itself — the library provides this as
   a built-in operation rather than a user kernel.

   Mirroring is centre-aware: cell-centred fields reflect about the cell
   interface (ghost -k <-> interior k-1), node-centred fields about the
   boundary node (ghost -k <-> interior k). *)

open Types

type centering = Cell | Node

(* Mirror source index for ghost index [g] outside [0, size). *)
let mirror_low centering k = match centering with Cell -> k - 1 | Node -> k
let mirror_high centering size k =
  match centering with Cell -> size - k | Node -> size - 1 - k

(* Mirror the ghost ring of [dat] as stored behind the affine view [v] —
   the dataset's own padded array, or a distributed rank's row window —
   over the owned rows [row_lo, row_hi) (global numbering, half-open).
   Plain index arithmetic on the view's array: no closure and no boxed
   float per ghost value. *)
let apply (v : Exec.view) ~(dat : dat) ~depth ~sign_x ~sign_y ~center_x ~center_y
    ~row_lo ~row_hi =
  if depth > dat.halo then invalid_arg "Boundary.mirror: depth exceeds ghost ring";
  let { Exec.vdata; vbase; vrow; vcol; _ } = v in
  let dim = dat.dim in
  (* Vertical (y) mirrors: global ghost rows, owned by edge ranks. *)
  for k = 1 to depth do
    let ghost = -k and src = mirror_low center_y k in
    if ghost >= row_lo && ghost < row_hi then begin
      let g = vbase + (ghost * vrow) and s = vbase + (src * vrow) in
      for x = 0 to dat.xsize - 1 do
        for c = 0 to dim - 1 do
          vdata.(g + (x * vcol) + c) <- sign_y *. vdata.(s + (x * vcol) + c)
        done
      done
    end;
    let ghost = dat.ysize - 1 + k and src = mirror_high center_y dat.ysize k in
    if ghost >= row_lo && ghost < row_hi then begin
      let g = vbase + (ghost * vrow) and s = vbase + (src * vrow) in
      for x = 0 to dat.xsize - 1 do
        for c = 0 to dim - 1 do
          vdata.(g + (x * vcol) + c) <- sign_y *. vdata.(s + (x * vcol) + c)
        done
      done
    end
  done;
  (* Horizontal (x) mirrors on every locally stored row, ghost rows included
     so corners are consistent without communication. *)
  let y_lo = max (-dat.halo) (row_lo - dat.halo) in
  let y_hi = min (dat.ysize + dat.halo) (row_hi + dat.halo) in
  for y = y_lo to y_hi - 1 do
    let row = vbase + (y * vrow) in
    for k = 1 to depth do
      let lo_g = row - (k * vcol) and lo_s = row + (mirror_low center_x k * vcol) in
      let hi_g = row + ((dat.xsize - 1 + k) * vcol)
      and hi_s = row + (mirror_high center_x dat.xsize k * vcol) in
      for c = 0 to dim - 1 do
        vdata.(lo_g + c) <- sign_x *. vdata.(lo_s + c);
        vdata.(hi_g + c) <- sign_x *. vdata.(hi_s + c)
      done
    done
  done

let mirror ?(depth = 2) ?(sign_x = 1.0) ?(sign_y = 1.0) ?(center_x = Cell)
    ?(center_y = Cell) dat =
  apply (Exec.dat_view dat) ~dat ~depth ~sign_x ~sign_y ~center_x ~center_y
    ~row_lo:(-dat.halo) ~row_hi:(dat.ysize + dat.halo)

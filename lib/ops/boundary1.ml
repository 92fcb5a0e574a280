(* Reflective ghost-cell boundary conditions in 1D (the 1D update_halo):
   same contract as {!Boundary}/{!Boundary3} with two ends, centre-aware
   mirroring and a sign flip for wall-normal components. *)

open Types

type centering = Cell | Node

let mirror_low centering k = match centering with Cell -> k - 1 | Node -> k
let mirror_high centering size k =
  match centering with Cell -> size - k | Node -> size - 1 - k

(* Mirror the ghost cells of [dat] stored behind the view [v] — the
   dataset's own array or a rank's window — that fall in [lo, hi). *)
let apply (v : Exec.view) ~(dat : dat) ~depth ~sign ~center ~lo ~hi =
  if depth > dat.halo then invalid_arg "Boundary1.mirror: depth exceeds ghost cells";
  let { Exec.vdata; vbase; vcol; _ } = v in
  for k = 1 to depth do
    List.iter
      (fun (ghost, src) ->
        if ghost >= lo && ghost < hi then
          for c = 0 to dat.dim - 1 do
            vdata.(vbase + (ghost * vcol) + c) <- sign *. vdata.(vbase + (src * vcol) + c)
          done)
      [ (-k, mirror_low center k); (dat.xsize - 1 + k, mirror_high center dat.xsize k) ]
  done

let mirror ?(depth = 2) ?(sign = 1.0) ?(center = Cell) dat =
  apply (Exec.dat_view dat) ~dat ~depth ~sign ~center ~lo:(-dat.halo)
    ~hi:(dat.xsize + dat.halo)

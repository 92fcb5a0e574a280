(* Reflective ghost-shell boundary conditions in 3D (the 3D update_halo):
   same contract as {!Boundary} with six faces, centre-aware mirroring and
   per-axis sign flips.  Corners and edges become consistent by applying
   the axes in sequence over the already-mirrored shell. *)

open Types

type centering = Cell | Node

let mirror_low centering k = match centering with Cell -> k - 1 | Node -> k
let mirror_high centering size k =
  match centering with Cell -> size - k | Node -> size - 1 - k

(* Mirror the ghost shell of [dat] stored behind the view [v] — the
   dataset's own array or a z-slab rank's window — over the z-planes
   [slab_lo, slab_hi).  Index arithmetic on the view's array: no closure
   and no boxed float per ghost value. *)
let apply (v : Exec.view) ~(dat : dat) ~depth ~sign_x ~sign_y ~sign_z ~center_x ~center_y
    ~center_z ~slab_lo ~slab_hi =
  if depth > dat.halo then invalid_arg "Boundary3.mirror: depth exceeds ghost shell";
  let { Exec.vdata; vbase; vplane; vrow; vcol } = v in
  let at x y z = vbase + (z * vplane) + (y * vrow) + (x * vcol) in
  let copy sign ~dst ~src =
    for c = 0 to dat.dim - 1 do
      vdata.(dst + c) <- sign *. vdata.(src + c)
    done
  in
  (* z mirrors: global ghost planes (owned by the edge ranks). *)
  for k = 1 to depth do
    List.iter
      (fun (ghost_z, src_z) ->
        if ghost_z >= slab_lo && ghost_z < slab_hi then
          for y = 0 to dat.ysize - 1 do
            for x = 0 to dat.xsize - 1 do
              copy sign_z ~dst:(at x y ghost_z) ~src:(at x y src_z)
            done
          done)
      [ (-k, mirror_low center_z k); (dat.zsize - 1 + k, mirror_high center_z dat.zsize k) ]
  done;
  (* y then x mirrors on every locally stored plane. *)
  let z_lo = max (-dat.halo) (slab_lo - dat.halo) in
  let z_hi = min (dat.zsize + dat.halo) (slab_hi + dat.halo) in
  for z = z_lo to z_hi - 1 do
    for k = 1 to depth do
      for x = 0 to dat.xsize - 1 do
        copy sign_y ~dst:(at x (-k) z) ~src:(at x (mirror_low center_y k) z);
        copy sign_y ~dst:(at x (dat.ysize - 1 + k) z)
          ~src:(at x (mirror_high center_y dat.ysize k) z)
      done
    done;
    for y = -dat.halo to dat.ysize + dat.halo - 1 do
      for k = 1 to depth do
        copy sign_x ~dst:(at (-k) y z) ~src:(at (mirror_low center_x k) y z);
        copy sign_x ~dst:(at (dat.xsize - 1 + k) y z)
          ~src:(at (mirror_high center_x dat.xsize k) y z)
      done
    done
  done

let mirror ?(depth = 2) ?(sign_x = 1.0) ?(sign_y = 1.0) ?(sign_z = 1.0)
    ?(center_x = Cell) ?(center_y = Cell) ?(center_z = Cell) dat =
  apply (Exec.dat_view dat) ~dat ~depth ~sign_x ~sign_y ~sign_z ~center_x ~center_y
    ~center_z ~slab_lo:(-dat.halo) ~slab_hi:(dat.zsize + dat.halo)

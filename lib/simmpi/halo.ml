(* Halo-exchange plans over a [Comm.t].

   A plan records, for every ordered rank pair (r, p), which *local* element
   slots of rank r are exported to p and which local slots of p receive them.
   The same plan serves both communication directions the OP2/OPS runtimes
   need:

   - [exchange]: owners push fresh values out to the halo copies
     (read-indirect arguments before a loop);
   - [reduce]: halo copies push accumulated contributions back to the owners,
     which add them in (increment-indirect arguments after a loop).

   Export and import lists for a pair must have equal length and matching
   order; [validate] checks this. *)

module Obs = Am_obs.Obs
module Cat = Am_obs.Tracer

type t = {
  n_ranks : int;
  exports : int array array array; (* exports.(r).(p): local slots of r sent to p *)
  imports : int array array array; (* imports.(r).(p): local slots of r receiving from p *)
}

let create ~n_ranks ~exports ~imports =
  let t = { n_ranks; exports; imports } in
  if Array.length exports <> n_ranks || Array.length imports <> n_ranks then
    invalid_arg "Halo.create: per-rank arrays must have length n_ranks";
  Array.iter
    (fun per_peer ->
      if Array.length per_peer <> n_ranks then
        invalid_arg "Halo.create: per-peer arrays must have length n_ranks")
    exports;
  Array.iter
    (fun per_peer ->
      if Array.length per_peer <> n_ranks then
        invalid_arg "Halo.create: per-peer arrays must have length n_ranks")
    imports;
  for r = 0 to n_ranks - 1 do
    for p = 0 to n_ranks - 1 do
      if Array.length exports.(r).(p) <> Array.length imports.(p).(r) then
        invalid_arg
          (Printf.sprintf "Halo.create: export %d->%d does not match import" r p)
    done
  done;
  t

let n_ranks t = t.n_ranks

(* Total element copies moved per exchange round. *)
let volume t =
  let v = ref 0 in
  for r = 0 to t.n_ranks - 1 do
    for p = 0 to t.n_ranks - 1 do
      v := !v + Array.length t.exports.(r).(p)
    done
  done;
  !v

let pack data ~dim slots =
  let out = Array.make (dim * Array.length slots) 0.0 in
  Array.iteri
    (fun k slot -> Array.blit data (slot * dim) out (k * dim) dim)
    slots;
  out

(* Blocking owner -> halo push of [dim] values per element: every export
   is packed and isent, a receive is posted for every import, then each
   receive is waited in posted order and scattered into its import slots.
   [data.(rank)] is that rank's local array.  Counted as one exchange
   round. *)
let exchange comm t ~dim data =
  if Comm.n_ranks comm <> t.n_ranks then invalid_arg "Halo.exchange: comm/plan mismatch";
  Comm.count_exchange comm;
  let traced = Obs.tracing () in
  for r = 0 to t.n_ranks - 1 do
    for p = 0 to t.n_ranks - 1 do
      if r <> p && Array.length t.exports.(r).(p) > 0 then begin
        if traced then Obs.begin_span ~lane:r ~cat:Cat.Halo_pack "pack";
        let payload = pack data.(r) ~dim t.exports.(r).(p) in
        if traced then Obs.end_span ~lane:r ();
        ignore (Comm.isend comm ~src:r ~dst:p payload)
      end
    done
  done;
  let recvs = ref [] in
  for p = t.n_ranks - 1 downto 0 do
    for r = t.n_ranks - 1 downto 0 do
      if r <> p && Array.length t.imports.(p).(r) > 0 then
        recvs := (p, r, Comm.irecv comm ~src:r ~dst:p) :: !recvs
    done
  done;
  List.iter
    (fun (p, r, req) ->
      let payload = Comm.wait comm req in
      if traced then Obs.begin_span ~lane:p ~cat:Cat.Halo_unpack "unpack";
      Array.iteri
        (fun k slot -> Array.blit payload (k * dim) data.(p) (slot * dim) dim)
        t.imports.(p).(r);
      if traced then Obs.end_span ~lane:p ())
    !recvs

(* Blocking halo -> owner accumulation: each rank isends the contents of
   its *import* slots back to the exporting owner, and the owners add the
   returned contributions elementwise.  Callers zero the halo slots before
   the contributing loop so only fresh contributions flow back. *)
let reduce comm t ~dim data =
  if Comm.n_ranks comm <> t.n_ranks then invalid_arg "Halo.reduce: comm/plan mismatch";
  Comm.count_exchange comm;
  let traced = Obs.tracing () in
  for p = 0 to t.n_ranks - 1 do
    for r = 0 to t.n_ranks - 1 do
      if r <> p && Array.length t.imports.(p).(r) > 0 then begin
        if traced then Obs.begin_span ~lane:p ~cat:Cat.Halo_pack "reduce_pack";
        let payload = pack data.(p) ~dim t.imports.(p).(r) in
        if traced then Obs.end_span ~lane:p ();
        ignore (Comm.isend comm ~src:p ~dst:r payload)
      end
    done
  done;
  let recvs = ref [] in
  for r = t.n_ranks - 1 downto 0 do
    for p = t.n_ranks - 1 downto 0 do
      if r <> p && Array.length t.exports.(r).(p) > 0 then
        recvs := (r, p, Comm.irecv comm ~src:p ~dst:r) :: !recvs
    done
  done;
  List.iter
    (fun (r, p, req) ->
      let payload = Comm.wait comm req in
      if traced then Obs.begin_span ~lane:r ~cat:Cat.Halo_unpack "reduce_unpack";
      Array.iteri
        (fun k slot ->
          for d = 0 to dim - 1 do
            data.(r).((slot * dim) + d) <-
              data.(r).((slot * dim) + d) +. payload.((k * dim) + d)
          done)
        t.exports.(r).(p);
      if traced then Obs.end_span ~lane:r ())
    !recvs

(* Largest number of peers any rank talks to — feeds the network model's
   message-count term. *)
let max_peers t =
  let worst = ref 0 in
  for r = 0 to t.n_ranks - 1 do
    let peers = ref 0 in
    for p = 0 to t.n_ranks - 1 do
      if r <> p
         && (Array.length t.exports.(r).(p) > 0 || Array.length t.imports.(r).(p) > 0)
      then incr peers
    done;
    if !peers > !worst then worst := !peers
  done;
  !worst

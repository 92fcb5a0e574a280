type summary = {
  n : int;
  median : float;
  p25 : float;
  p75 : float;
  min : float;
  max : float;
}

let summarize samples =
  if Array.length samples = 0 then invalid_arg "Regress.summarize: empty";
  {
    n = Array.length samples;
    median = Stats.median samples;
    p25 = Stats.percentile samples 25.0;
    p75 = Stats.percentile samples 75.0;
    min = Array.fold_left Float.min samples.(0) samples;
    max = Array.fold_left Float.max samples.(0) samples;
  }

let iqr s = s.p75 -. s.p25

let default_threshold = 0.15

type verdict = {
  v_name : string;
  v_base : summary;
  v_cur : summary;
  v_ratio : float;
  v_regressed : bool;
}

let gate ?(threshold = default_threshold) ~name ~baseline ~current () =
  if not (Float.is_finite baseline.median && baseline.median > 0.0) then
    invalid_arg
      (Printf.sprintf "Regress.gate %s: baseline median %g is not a positive number"
         name baseline.median);
  if not (Float.is_finite current.median) then
    invalid_arg
      (Printf.sprintf "Regress.gate %s: current median %g is not a number" name
         current.median);
  let ratio = current.median /. baseline.median in
  (* Both conditions must hold: a relative slowdown past the threshold and
     an absolute shift larger than the baseline's spread.  With a tight
     baseline (IQR near zero) the ratio test alone decides. *)
  let regressed =
    ratio > 1.0 +. threshold
    && current.median -. baseline.median > iqr baseline
  in
  { v_name = name; v_base = baseline; v_cur = current; v_ratio = ratio;
    v_regressed = regressed }

let gate_all ?threshold ~baseline rows =
  List.map
    (fun (name, current) ->
      match List.assoc_opt name baseline with
      | None ->
        invalid_arg (Printf.sprintf "Regress.gate_all %s: no baseline entry" name)
      | Some base -> gate ?threshold ~name ~baseline:base ~current ())
    rows

let regressed verdicts = List.filter (fun v -> v.v_regressed) verdicts

let to_json ~unit_ s =
  Json.Obj
    [
      ("unit", Json.Str unit_);
      ("n", Json.Num (Float.of_int s.n));
      ("median", Json.Num s.median);
      ("p25", Json.Num s.p25);
      ("p75", Json.Num s.p75);
      ("min", Json.Num s.min);
      ("max", Json.Num s.max);
    ]

let of_json json =
  match Json.member "timings" json with
  | Some (Json.Obj rows) -> (
    let row (name, v) =
      let num k = Option.bind (Json.member k v) Json.to_num in
      match (num "n", num "median", num "p25", num "p75", num "min", num "max") with
      | Some n, Some median, Some p25, Some p75, Some min, Some max ->
        Ok (name, { n = int_of_float n; median; p25; p75; min; max })
      | _ ->
        Error (Printf.sprintf "row %s lacks one of n, median, p25, p75, min, max" name)
    in
    let rec all acc = function
      | [] -> Ok (List.rev acc)
      | r :: rest -> ( match row r with Ok x -> all (x :: acc) rest | Error _ as e -> e)
    in
    all [] rows)
  | Some _ | None -> Error "no \"timings\" section"

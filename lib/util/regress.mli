(** Statistical regression gate for benchmark timings.

    The bench harness records [n] repetitions per row and summarizes
    them as median and quartiles; a row has regressed against a
    baseline when the median slowed down by more than the relative
    threshold AND the absolute slowdown exceeds the baseline's
    inter-quartile range.  The second condition keeps machine noise from
    tripping the gate: a shift smaller than the baseline's own spread is
    not a signal, whatever the ratio says.  A row the gate cannot judge
    (no baseline entry, a baseline median that is not a positive number,
    a current median that is not a number) is an error, never a pass. *)

type summary = {
  n : int;
  median : float;
  p25 : float;
  p75 : float;
  min : float;
  max : float;
}

val summarize : float array -> summary
(** Raises [Invalid_argument] on an empty array. *)

val iqr : summary -> float

(** Default relative threshold: 15% on the median. *)
val default_threshold : float

type verdict = {
  v_name : string;
  v_base : summary;
  v_cur : summary;
  v_ratio : float;  (** current median / baseline median *)
  v_regressed : bool;
}

val gate :
  ?threshold:float -> name:string -> baseline:summary -> current:summary -> unit -> verdict
(** Raises [Invalid_argument] naming the row when the baseline median is
    not a positive finite number or the current median is not finite. *)

val gate_all :
  ?threshold:float ->
  baseline:(string * summary) list ->
  (string * summary) list ->
  verdict list
(** {!gate} on every row against the baseline entry of the same name.
    Raises [Invalid_argument] naming the first row that has no baseline
    entry or that {!gate} refuses. *)

val regressed : verdict list -> verdict list

val to_json : unit_:string -> summary -> Json.t
(** One row of a bench dump: its unit, then the n, median, p25, p75, min
    and max that {!of_json} reads back. *)

val of_json : Json.t -> ((string * summary) list, string) result
(** The ["timings"] section of a bench dump, one summary per row, in
    order.  The error names the first row that lacks a numeric n, median,
    p25, p75, min or max, or says the section is missing. *)

(** Self-describing binary snapshot files (the HDF5 stand-in).

    A snapshot is an ordered list of named float arrays, written with a
    magic header ("AMSNAP02"), a CRC-32 of the body, little-endian sizes
    and IEEE-754 payloads. Used by checkpointing, the mesh format and the
    CLI drivers' [--save] options. Every decode validates lengths, the
    magic and the checksum — a truncated file, a flipped bit or any other
    header (the unchecksummed "AMSNAP01" included) raises {!Corrupt}
    rather than yielding garbage. *)

(** Raised by {!decode}/{!load} on malformed input, with a description. *)
exception Corrupt of string

(** Serialise entries to the binary format. *)
val encode : (string * float array) list -> string

(** Parse a snapshot; raises {!Corrupt} on any inconsistency. *)
val decode : string -> (string * float array) list

val save : string -> (string * float array) list -> unit
val load : string -> (string * float array) list

(** Append a human-readable rendering of one array to a text file
    (debugging aid). *)
val dump_text : string -> string -> float array -> unit

(** Compare two snapshot files: per-dataset max relative discrepancy for
    every name present in both (infinite on size mismatch), plus the names
    unique to each side. *)
val compare_files :
  string -> string -> (string * float) list * string list * string list

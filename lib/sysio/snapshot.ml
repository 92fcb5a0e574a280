(* Self-describing binary snapshot files (the repository's HDF5 stand-in).

   OP2/OPS use HDF5 for mesh input, dataset dumps and checkpoint files; this
   container has no HDF5, so we use a minimal self-describing format:

     magic "AMSNAP02"
     u32   CRC-32 of everything after this word
     u32   entry count
     per entry:
       u32   name length, name bytes
       u32   value count, values as IEEE-754 little-endian doubles

   All integers are little-endian. The format is versioned through the magic
   string, and every load checks the checksum: any other header (the
   unchecksummed "AMSNAP01" included) is refused, and a bit flip anywhere in
   the body is detected at load time rather than silently restored into a
   restarted run. *)

let magic = "AMSNAP02"

let write_u32 buf v =
  if v < 0 then invalid_arg "Snapshot: negative length";
  Buffer.add_uint8 buf (v land 0xff);
  Buffer.add_uint8 buf ((v lsr 8) land 0xff);
  Buffer.add_uint8 buf ((v lsr 16) land 0xff);
  Buffer.add_uint8 buf ((v lsr 24) land 0xff)

let write_f64 buf v = Buffer.add_int64_le buf (Int64.bits_of_float v)

let encode entries =
  let body = Buffer.create 4096 in
  write_u32 body (List.length entries);
  List.iter
    (fun (name, values) ->
      write_u32 body (String.length name);
      Buffer.add_string body name;
      write_u32 body (Array.length values);
      Array.iter (write_f64 body) values)
    entries;
  let body = Buffer.contents body in
  let buf = Buffer.create (String.length body + 12) in
  Buffer.add_string buf magic;
  write_u32 buf (Am_util.Crc.string body);
  Buffer.add_string buf body;
  Buffer.contents buf

exception Corrupt of string

let read_u32 s pos =
  if !pos + 4 > String.length s then raise (Corrupt "truncated length");
  let b i = Char.code s.[!pos + i] in
  let v = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
  pos := !pos + 4;
  v

let read_f64 s pos =
  if !pos + 8 > String.length s then raise (Corrupt "truncated value");
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[!pos + i]))
  done;
  pos := !pos + 8;
  Int64.float_of_bits !v

let decode s =
  let mlen = String.length magic in
  if String.length s < mlen then raise (Corrupt "bad magic");
  let pos = ref mlen in
  if String.sub s 0 mlen <> magic then raise (Corrupt "bad magic");
  let expected = read_u32 s pos in
  let actual = Am_util.Crc.string (String.sub s !pos (String.length s - !pos)) in
  if actual <> expected then raise (Corrupt "checksum mismatch");
  let count = read_u32 s pos in
  List.init count (fun _ ->
      let name_len = read_u32 s pos in
      if !pos + name_len > String.length s then raise (Corrupt "truncated name");
      let name = String.sub s !pos name_len in
      pos := !pos + name_len;
      let n = read_u32 s pos in
      let values = Array.init n (fun _ -> read_f64 s pos) in
      (name, values))

let save path entries =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (encode entries))

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      decode s)

(* Debug dump in the spirit of op_print_dat_to_txtfile: one value per line,
   readable by any plotting tool. *)
let dump_text path name values =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "# %s: %d values\n" name (Array.length values);
      Array.iter (fun v -> Printf.fprintf oc "%.17g\n" v) values)

(* Compare two snapshot files; returns per-dataset max relative discrepancy
   for every name present in both, and the names unique to each side. *)
let compare_files path_a path_b =
  let a = load path_a and b = load path_b in
  let find name lst = List.assoc_opt name lst in
  let both =
    List.filter_map
      (fun (name, va) ->
        match find name b with
        | Some vb when Array.length va = Array.length vb ->
          Some (name, Am_util.Fa.rel_discrepancy va vb)
        | Some _ -> Some (name, Float.infinity)
        | None -> None)
      a
  in
  let only_a = List.filter (fun (n, _) -> find n b = None) a |> List.map fst in
  let only_b = List.filter (fun (n, _) -> find n a = None) b |> List.map fst in
  (both, only_a, only_b)

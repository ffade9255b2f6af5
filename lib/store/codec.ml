open El_model

type entry =
  | Record of Log_record.t
  | Stable of { oid : Ids.Oid.t; version : int }

let entry_bytes = 49
let header_bytes = 52

type header = {
  h_epoch : int;
  h_gen : int;
  h_slot : int;
  h_seq : int;
  h_count : int;
}

let magic = "ELSG"

(* Field offsets: a header's integers follow its 4-byte magic, an
   entry's follow its 1-byte tag; each struct ends in its checksum. *)
let h_epoch_at = 4
let h_gen_at = 12
let h_slot_at = 20
let h_seq_at = 28
let h_count_at = 36
let h_cksum_at = 44
let e_tid_at = 1
let e_oid_at = 9
let e_version_at = 17
let e_size_at = 25
let e_ts_at = 33
let e_cksum_at = 41

let fnv_basis = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

(* FNV-1a-64 of the [len] bytes at [pos]: one range check, then
   unchecked reads.  Inlined, the hash stays unboxed in each caller, so
   sealing a struct and checking one allocate nothing. *)
let[@inline] fnv1a_64 b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "index out of bounds";
  let h = ref fnv_basis in
  for i = pos to pos + len - 1 do
    h := Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i)));
    h := Int64.mul !h fnv_prime
  done;
  !h

(* The hash of the [len] bytes at [pos] equals the checksum stored
   right after them. *)
let checksum_holds b ~pos ~len =
  Int64.equal (fnv1a_64 b ~pos ~len) (Bytes.get_int64_le b (pos + len))

let int_at b pos = Int64.to_int (Bytes.get_int64_le b pos)

(* ---- entries ---- *)

let stable_tag = 5

let tag_of_entry = function
  | Stable _ -> stable_tag
  | Record r -> (
    match r.Log_record.kind with
    | Log_record.Begin -> 1
    | Log_record.Commit -> 2
    | Log_record.Abort -> 3
    | Log_record.Data _ -> 4)

let encode_entry_into ?(corrupt = false) b ~pos e =
  if Bytes.length b - pos < entry_bytes then
    invalid_arg "El_store.Codec.encode_entry_into: short buffer";
  Bytes.set b pos (Char.chr (tag_of_entry e));
  let tid, oid, version, size, ts =
    match e with
    | Stable { oid; version } -> (0, Ids.Oid.to_int oid, version, 0, 0)
    | Record r ->
      let oid, version =
        match r.Log_record.kind with
        | Log_record.Data { oid; version } -> (Ids.Oid.to_int oid, version)
        | _ -> (0, 0)
      in
      ( Ids.Tid.to_int r.Log_record.tid,
        oid,
        version,
        r.Log_record.size,
        Time.to_us r.Log_record.timestamp )
  in
  Bytes.set_int64_le b (pos + e_tid_at) (Int64.of_int tid);
  Bytes.set_int64_le b (pos + e_oid_at) (Int64.of_int oid);
  Bytes.set_int64_le b (pos + e_version_at) (Int64.of_int version);
  Bytes.set_int64_le b (pos + e_size_at) (Int64.of_int size);
  Bytes.set_int64_le b (pos + e_ts_at) (Int64.of_int ts);
  let cksum = fnv1a_64 b ~pos ~len:e_cksum_at in
  let cksum = if corrupt then Int64.logxor cksum 1L else cksum in
  Bytes.set_int64_le b (pos + e_cksum_at) cksum

let encode_entry ?corrupt e =
  let b = Bytes.make entry_bytes '\000' in
  encode_entry_into ?corrupt b ~pos:0 e;
  b

let entry_tag b ~pos = Char.code (Bytes.get b pos)

let entry_valid b ~pos =
  checksum_holds b ~pos ~len:e_cksum_at
  &&
  let tag = entry_tag b ~pos in
  tag >= 1 && tag <= stable_tag

let entry_is_stable b ~pos = entry_tag b ~pos = stable_tag
let entry_oid b ~pos = int_at b (pos + e_oid_at)
let entry_version b ~pos = int_at b (pos + e_version_at)

let entry_at b ~pos =
  let i off = int_at b (pos + off) in
  let tid = Ids.Tid.of_int (i e_tid_at) in
  let version = i e_version_at in
  let size = i e_size_at in
  let timestamp = Time.of_us (i e_ts_at) in
  match entry_tag b ~pos with
  | 1 -> Record (Log_record.begin_ ~tid ~size ~timestamp)
  | 2 -> Record (Log_record.commit ~tid ~size ~timestamp)
  | 3 -> Record (Log_record.abort ~tid ~size ~timestamp)
  | 4 ->
    let oid = Ids.Oid.of_int (i e_oid_at) in
    Record (Log_record.data ~tid ~oid ~version ~size ~timestamp)
  | 5 -> Stable { oid = Ids.Oid.of_int (i e_oid_at); version }
  | tag -> invalid_arg (Printf.sprintf "El_store.Codec.entry_at: tag %d" tag)

let decode_entry b ~pos =
  if Bytes.length b - pos < entry_bytes then
    invalid_arg "El_store.Codec.decode_entry: short buffer";
  if entry_valid b ~pos then Some (entry_at b ~pos) else None

(* ---- headers ---- *)

let encode_header_into b ~pos h =
  if Bytes.length b - pos < header_bytes then
    invalid_arg "El_store.Codec.encode_header_into: short buffer";
  Bytes.blit_string magic 0 b pos 4;
  Bytes.set_int64_le b (pos + h_epoch_at) (Int64.of_int h.h_epoch);
  Bytes.set_int64_le b (pos + h_gen_at) (Int64.of_int h.h_gen);
  Bytes.set_int64_le b (pos + h_slot_at) (Int64.of_int h.h_slot);
  Bytes.set_int64_le b (pos + h_seq_at) (Int64.of_int h.h_seq);
  Bytes.set_int64_le b (pos + h_count_at) (Int64.of_int h.h_count);
  Bytes.set_int64_le b (pos + h_cksum_at) (fnv1a_64 b ~pos ~len:h_cksum_at)

let encode_header h =
  let b = Bytes.make header_bytes '\000' in
  encode_header_into b ~pos:0 h;
  b

let header_valid b ~pos =
  Bytes.get b pos = magic.[0]
  && Bytes.get b (pos + 1) = magic.[1]
  && Bytes.get b (pos + 2) = magic.[2]
  && Bytes.get b (pos + 3) = magic.[3]
  && checksum_holds b ~pos ~len:h_cksum_at

let header_epoch b ~pos = int_at b (pos + h_epoch_at)
let header_gen b ~pos = int_at b (pos + h_gen_at)
let header_slot b ~pos = int_at b (pos + h_slot_at)
let header_seq b ~pos = int_at b (pos + h_seq_at)
let header_count b ~pos = int_at b (pos + h_count_at)

let decode_header b ~pos =
  if Bytes.length b - pos < header_bytes then
    invalid_arg "El_store.Codec.decode_header: short buffer";
  if not (header_valid b ~pos) then None
  else
    Some
      {
        h_epoch = header_epoch b ~pos;
        h_gen = header_gen b ~pos;
        h_slot = header_slot b ~pos;
        h_seq = header_seq b ~pos;
        h_count = header_count b ~pos;
      }

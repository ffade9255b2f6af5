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

(* Writes an entry's tag and fields at [pos] and seals it. *)
let entry_into ~corrupt b ~pos ~tag ~tid ~oid ~version ~size ~ts =
  if Bytes.length b - pos < entry_bytes then
    invalid_arg "El_store.Codec: short buffer for an entry";
  Bytes.set b pos (Char.unsafe_chr tag);
  Bytes.set_int64_le b (pos + e_tid_at) (Int64.of_int tid);
  Bytes.set_int64_le b (pos + e_oid_at) (Int64.of_int oid);
  Bytes.set_int64_le b (pos + e_version_at) (Int64.of_int version);
  Bytes.set_int64_le b (pos + e_size_at) (Int64.of_int size);
  Bytes.set_int64_le b (pos + e_ts_at) (Int64.of_int ts);
  let cksum = fnv1a_64 b ~pos ~len:e_cksum_at in
  let cksum = if corrupt then Int64.logxor cksum 1L else cksum in
  Bytes.set_int64_le b (pos + e_cksum_at) cksum

let record_into ~corrupt b ~pos (r : Log_record.t) =
  let tid = Ids.Tid.to_int r.Log_record.tid in
  let size = r.Log_record.size in
  let ts = Time.to_us r.Log_record.timestamp in
  match r.Log_record.kind with
  | Log_record.Begin ->
    entry_into ~corrupt b ~pos ~tag:1 ~tid ~oid:0 ~version:0 ~size ~ts
  | Log_record.Commit ->
    entry_into ~corrupt b ~pos ~tag:2 ~tid ~oid:0 ~version:0 ~size ~ts
  | Log_record.Abort ->
    entry_into ~corrupt b ~pos ~tag:3 ~tid ~oid:0 ~version:0 ~size ~ts
  | Log_record.Data { oid; version } ->
    entry_into ~corrupt b ~pos ~tag:4 ~tid ~oid:(Ids.Oid.to_int oid) ~version
      ~size ~ts

let stable_into ~corrupt b ~pos ~oid ~version =
  entry_into ~corrupt b ~pos ~tag:stable_tag ~tid:0 ~oid:(Ids.Oid.to_int oid)
    ~version ~size:0 ~ts:0

let encode_entry ?(corrupt = false) e =
  let b = Bytes.make entry_bytes '\000' in
  (match e with
  | Record r -> record_into ~corrupt b ~pos:0 r
  | Stable { oid; version } -> stable_into ~corrupt b ~pos:0 ~oid ~version);
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

let header_into b ~pos ~epoch ~gen ~slot ~seq ~count =
  if Bytes.length b - pos < header_bytes then
    invalid_arg "El_store.Codec.header_into: short buffer";
  Bytes.blit_string magic 0 b pos 4;
  Bytes.set_int64_le b (pos + h_epoch_at) (Int64.of_int epoch);
  Bytes.set_int64_le b (pos + h_gen_at) (Int64.of_int gen);
  Bytes.set_int64_le b (pos + h_slot_at) (Int64.of_int slot);
  Bytes.set_int64_le b (pos + h_seq_at) (Int64.of_int seq);
  Bytes.set_int64_le b (pos + h_count_at) (Int64.of_int count);
  Bytes.set_int64_le b (pos + h_cksum_at) (fnv1a_64 b ~pos ~len:h_cksum_at)

let encode_header h =
  let b = Bytes.make header_bytes '\000' in
  header_into b ~pos:0 ~epoch:h.h_epoch ~gen:h.h_gen ~slot:h.h_slot
    ~seq:h.h_seq ~count:h.h_count;
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

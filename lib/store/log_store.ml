open El_model

type sync_mode = Immediate | Manual

type t = {
  backend : Backend.t;
  mutable epoch : int;
  mutable seq : int;
  mutable write_off : int;
  mutable scratch : Bytes.t;  (* reused segment-encoding buffer *)
  mutable staged : int;
      (* Manual: bytes of [scratch] encoded but not yet written; they
         belong at [write_off - staged] *)
  sync_mode : sync_mode;
  mutable dirty : bool;  (* Manual: bytes staged since the last barrier *)
}

let backend t = t.backend
let epoch t = t.epoch
let position t = t.seq

let torn_keep ~count f =
  if count = 0 then 0 else min (count - 1) (int_of_float (f *. float_of_int count))

let segment_bytes count = Codec.header_bytes + (count * Codec.entry_bytes)

let sync_mode t = t.sync_mode
let dirty t = t.dirty

(* Past this many staged bytes a Manual append writes the buffer out
   first, so a session that never commits cannot grow it without
   bound. *)
let stage_limit = 1 lsl 20

let write_staged t =
  if t.staged > 0 then begin
    Backend.pwrite t.backend ~off:(t.write_off - t.staged) ~len:t.staged
      t.scratch;
    t.staged <- 0
  end

let sync t =
  write_staged t;
  if t.dirty then begin
    Backend.barrier t.backend;
    t.dirty <- false
  end

let append_segment t ~gen ~slot entries ~corrupt_from =
  let count = List.length entries in
  let len = segment_bytes count in
  if t.staged > 0 && t.staged + len > stage_limit then write_staged t;
  (* Manual stages each segment behind the ones before it; Immediate
     writes it at once, so [pos] is 0 there *)
  let pos = t.staged in
  if Bytes.length t.scratch < pos + len then begin
    let b = Bytes.create (max (pos + len) (2 * Bytes.length t.scratch)) in
    Bytes.blit t.scratch 0 b 0 pos;
    t.scratch <- b
  end;
  let header =
    {
      Codec.h_epoch = t.epoch;
      h_gen = gen;
      h_slot = slot;
      h_seq = t.seq;
      h_count = count;
    }
  in
  Codec.encode_header_into t.scratch ~pos header;
  List.iteri
    (fun i e ->
      let corrupt = i >= corrupt_from in
      Codec.encode_entry_into ~corrupt t.scratch
        ~pos:(pos + Codec.header_bytes + (i * Codec.entry_bytes))
        e)
    entries;
  (match t.sync_mode with
  | Immediate ->
    Backend.pwrite t.backend ~off:t.write_off ~len t.scratch;
    Backend.barrier t.backend
  | Manual ->
    t.staged <- pos + len;
    t.dirty <- true);
  t.seq <- t.seq + 1;
  t.write_off <- t.write_off + len

let append_block t ~gen ~slot ?torn_suffix records =
  match records with
  | [] -> ()
  | _ ->
    let entries = List.map (fun r -> Codec.Record r) records in
    let count = List.length entries in
    let corrupt_from =
      match torn_suffix with None -> count | Some n -> max 0 (count - n)
    in
    append_segment t ~gen ~slot entries ~corrupt_from

let append_stable t ~oid ~version =
  append_segment t ~gen:(-1) ~slot:0
    [ Codec.Stable { oid; version } ]
    ~corrupt_from:1

type block = {
  sb_epoch : int;
  sb_gen : int;
  sb_slot : int;
  sb_seq : int;
  sb_records : Log_record.t list;
  sb_discarded : int;
}

type scan = {
  s_blocks : block list;
  s_stable : int Ids.Oid.Table.t;
  s_segments : int;
  s_stale_blocks : int;
  s_torn_tail : bool;
  s_end : int;
  s_max_epoch : int;
  s_max_seq : int;
}

(* A log segment the scan has verified, as offsets into the image:
   only the newest per key is ever decoded. *)
type passed = {
  p_epoch : int;
  p_gen : int;
  p_slot : int;
  p_seq : int;
  p_body : int;  (* image offset of its first entry *)
  p_valid : int;  (* entries before the first bad one *)
  p_discarded : int;
}

(* Keyed by (epoch, gen, slot): the newest segment is its own key. *)
module Newest = Hashtbl.Make (struct
  type t = passed

  let equal a b =
    a.p_epoch = b.p_epoch && a.p_gen = b.p_gen && a.p_slot = b.p_slot

  let hash a =
    Hashtbl.hash ((((a.p_epoch * 65599) + a.p_gen) * 65599) + a.p_slot)
end)

(* How many of the [avail] entries at [body], counting from entry [i],
   pass their checksum and tag before the first that fails — the
   valid-prefix rule of the torn-write model.  (No local closure: the
   scan calls this once per segment.) *)
let rec valid_prefix img ~body ~avail i =
  if i < avail && Codec.entry_valid img ~pos:(body + (i * Codec.entry_bytes))
  then valid_prefix img ~body ~avail (i + 1)
  else i

(* Stable-segment entries fold into [stable] as they are verified,
   highest version per oid. *)
let fold_stable img ~body ~valid stable =
  for i = 0 to valid - 1 do
    let pos = body + (i * Codec.entry_bytes) in
    if Codec.entry_is_stable img ~pos then begin
      let oid = Ids.Oid.of_int (Codec.entry_oid img ~pos) in
      let version = Codec.entry_version img ~pos in
      let prev =
        match Ids.Oid.Table.find stable oid with
        | v -> v
        | exception Not_found -> -1
      in
      if version > prev then Ids.Oid.Table.replace stable oid version
    end
  done

let decode_block img p =
  let rec records i acc =
    if i < 0 then acc
    else
      match Codec.entry_at img ~pos:(p.p_body + (i * Codec.entry_bytes)) with
      | Codec.Record r -> records (i - 1) (r :: acc)
      | Codec.Stable _ -> records (i - 1) acc
  in
  {
    sb_epoch = p.p_epoch;
    sb_gen = p.p_gen;
    sb_slot = p.p_slot;
    sb_seq = p.p_seq;
    sb_records = records (p.p_valid - 1) [];
    sb_discarded = p.p_discarded;
  }

(* One pass over the image's headers, verifying every checksum in
   place.  With [~cut_torn:true] a partial last segment is left out of
   the blocks, the stable facts and the maxima — only [s_torn_tail]
   still reports it — and its epoch and seq come back on the side
   (when its header verified), so {!attach} can number past it. *)
let scan_image ?upto ~cut_torn backend =
  let len = Backend.size backend in
  let img = Backend.pread backend ~off:0 ~len in
  let len = Bytes.length img in
  let upto = match upto with None -> max_int | Some n -> n in
  let newest = Newest.create 64 in
  let stable = Ids.Oid.Table.create 64 in
  let segments = ref 0 in
  let log_segments = ref 0 in
  let torn_tail = ref false in
  let torn_numbers = ref None in
  let max_epoch = ref (-1) in
  let max_seq = ref (-1) in
  let off = ref 0 in
  let stop = ref false in
  while not !stop do
    let pos = !off in
    let body = pos + Codec.header_bytes in
    if len - pos < Codec.header_bytes then begin
      if len > pos then torn_tail := true;
      stop := true
    end
    else if
      (not (Codec.header_valid img ~pos)) || Codec.header_count img ~pos < 0
    then begin
      (* a bad header, or one that would walk the scan backwards, ends
         the valid image: nothing after it can be trusted *)
      torn_tail := true;
      stop := true
    end
    else begin
      let count = Codec.header_count img ~pos in
      let epoch = Codec.header_epoch img ~pos in
      let seq = Codec.header_seq img ~pos in
      let room = (len - body) / Codec.entry_bytes in
      let full = count <= room in
      if not full then begin
        torn_tail := true;
        torn_numbers := Some (epoch, seq)
      end;
      if seq < upto && (full || not cut_torn) then begin
        incr segments;
        if epoch > !max_epoch then max_epoch := epoch;
        if seq > !max_seq then max_seq := seq;
        let valid = valid_prefix img ~body ~avail:(min count room) 0 in
        let gen = Codec.header_gen img ~pos in
        if gen < 0 then fold_stable img ~body ~valid stable
        else begin
          incr log_segments;
          let p =
            {
              p_epoch = epoch;
              p_gen = gen;
              p_slot = Codec.header_slot img ~pos;
              p_seq = seq;
              p_body = body;
              p_valid = valid;
              p_discarded = count - valid;
            }
          in
          (* in-place slot semantics: only the newest segment per key
             survives, the later one on a tie; the rest is stale *)
          let newer =
            match Newest.find newest p with
            | prev -> seq >= prev.p_seq
            | exception Not_found -> true
          in
          if newer then Newest.replace newest p p
        end
      end;
      if full then off := body + (count * Codec.entry_bytes) else stop := true
    end
  done;
  let survivors =
    Newest.fold (fun _ p acc -> p :: acc) newest []
    |> List.sort (fun a b ->
           match Int.compare a.p_seq b.p_seq with
           | 0 -> Int.compare a.p_body b.p_body
           | c -> c)
  in
  ( {
      s_blocks = List.map (decode_block img) survivors;
      s_stable = stable;
      s_segments = !segments;
      s_stale_blocks = !log_segments - Newest.length newest;
      s_torn_tail = !torn_tail;
      s_end = !off;
      s_max_epoch = !max_epoch;
      s_max_seq = !max_seq;
    },
    !torn_numbers )

let scan ?upto backend = fst (scan_image ?upto ~cut_torn:false backend)

let make backend ~epoch ~seq ~write_off ~sync_mode =
  {
    backend;
    epoch;
    seq;
    write_off;
    scratch = Bytes.create (segment_bytes 64);
    staged = 0;
    sync_mode;
    dirty = false;
  }

let create ?(sync_mode = Immediate) backend =
  Backend.truncate backend ~len:0;
  make backend ~epoch:0 ~seq:0 ~write_off:0 ~sync_mode

let attach_scan ?(sync_mode = Immediate) backend =
  let s, torn_numbers = scan_image ~cut_torn:true backend in
  if s.s_torn_tail then Backend.truncate backend ~len:s.s_end;
  (* a torn segment's header still counts: its epoch and seq may have
     reached the platter in a predecessor's crash image *)
  let epoch, seq =
    match torn_numbers with
    | Some (epoch, seq) -> (max s.s_max_epoch epoch, max s.s_max_seq seq)
    | None -> (s.s_max_epoch, s.s_max_seq)
  in
  ( make backend ~epoch:(epoch + 1) ~seq:(seq + 1) ~write_off:s.s_end
      ~sync_mode,
    { s with s_torn_tail = false } )

let attach ?sync_mode backend = fst (attach_scan ?sync_mode backend)

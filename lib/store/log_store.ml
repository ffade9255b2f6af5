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

(* Makes room for a [len]-byte segment behind the staged bytes and
   encodes its header there; returns where the segment starts in
   [scratch].  Manual stages each segment behind the ones before it;
   Immediate writes it at once, so it starts at 0 there. *)
let start_segment t ~gen ~slot ~count ~len =
  if t.staged > 0 && t.staged + len > stage_limit then write_staged t;
  let pos = t.staged in
  if Bytes.length t.scratch < pos + len then begin
    let b = Bytes.create (max (pos + len) (2 * Bytes.length t.scratch)) in
    Bytes.blit t.scratch 0 b 0 pos;
    t.scratch <- b
  end;
  Codec.header_into t.scratch ~pos ~epoch:t.epoch ~gen ~slot ~seq:t.seq ~count;
  pos

(* The segment at [pos] is encoded: write it, or leave it staged. *)
let finish_segment t ~pos ~len =
  (match t.sync_mode with
  | Immediate ->
    Backend.pwrite t.backend ~off:t.write_off ~len t.scratch;
    Backend.barrier t.backend
  | Manual ->
    t.staged <- pos + len;
    t.dirty <- true);
  t.seq <- t.seq + 1;
  t.write_off <- t.write_off + len

(* Encodes [records] as consecutive entries from [pos], the
   [corrupt_from]-th and later with bad checksums. *)
let rec encode_records b ~pos ~corrupt_from i = function
  | [] -> ()
  | r :: rest ->
    Codec.record_into ~corrupt:(i >= corrupt_from) b ~pos r;
    encode_records b ~pos:(pos + Codec.entry_bytes) ~corrupt_from (i + 1) rest

let append_block t ~gen ~slot ?torn_suffix records =
  match records with
  | [] -> ()
  | _ ->
    let count = List.length records in
    let corrupt_from =
      match torn_suffix with None -> count | Some n -> max 0 (count - n)
    in
    let len = segment_bytes count in
    let pos = start_segment t ~gen ~slot ~count ~len in
    encode_records t.scratch ~pos:(pos + Codec.header_bytes) ~corrupt_from 0
      records;
    finish_segment t ~pos ~len

let append_stable t ~oid ~version =
  let len = segment_bytes 1 in
  let pos = start_segment t ~gen:(-1) ~slot:0 ~count:1 ~len in
  Codec.stable_into ~corrupt:false t.scratch ~pos:(pos + Codec.header_bytes)
    ~oid ~version;
  finish_segment t ~pos ~len

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

(* The image as a scan reads it: through one reused buffer, refilled
   in image order, so a scan holds at most [window_bytes] of the image
   however large the image is. *)
type window = {
  w_backend : Backend.t;
  w_buf : Bytes.t;
  mutable w_base : int;  (* image offset of [w_buf.[0]] *)
  mutable w_fill : int;  (* bytes of [w_buf] that hold image bytes *)
}

(* What one [Unix.read] moves, so a refill is one read call. *)
let window_bytes = 65536

let window backend ~len =
  {
    w_backend = backend;
    w_buf = Bytes.create (max Codec.header_bytes (min window_bytes len));
    w_base = 0;
    w_fill = 0;
  }

(* Where in [w.w_buf] the [n] image bytes at [off] are, reading them in
   first if need be.  A struct that runs past the window's end is
   moved to its front with the bytes after it read in behind, so a
   forward walk reads every byte once, in order. *)
let at w off n =
  if off >= w.w_base && off + n <= w.w_base + w.w_fill then off - w.w_base
  else begin
    let keep =
      if off >= w.w_base && off < w.w_base + w.w_fill then
        w.w_base + w.w_fill - off
      else 0
    in
    if keep > 0 then Bytes.blit w.w_buf (off - w.w_base) w.w_buf 0 keep;
    let got =
      Backend.pread w.w_backend ~off:(off + keep) w.w_buf ~pos:keep
        ~len:(Bytes.length w.w_buf - keep)
    in
    w.w_base <- off;
    w.w_fill <- keep + got;
    if w.w_fill < n then failwith "El_store.Log_store.scan: the image shrank";
    0
  end

(* How many of the [avail] entries at image offset [body], counting
   from entry [i], pass their checksum and tag before the first that
   fails — the valid-prefix rule of the torn-write model.  (No local
   closure: the scan calls this once per segment.) *)
let rec valid_prefix w ~body ~avail i =
  if
    i < avail
    && Codec.entry_valid w.w_buf
         ~pos:(at w (body + (i * Codec.entry_bytes)) Codec.entry_bytes)
  then valid_prefix w ~body ~avail (i + 1)
  else i

(* Stable-segment entries fold into [stable] as they are verified,
   highest version per oid. *)
let fold_stable w ~body ~valid stable =
  for i = 0 to valid - 1 do
    let pos = at w (body + (i * Codec.entry_bytes)) Codec.entry_bytes in
    if Codec.entry_is_stable w.w_buf ~pos then begin
      let oid = Ids.Oid.of_int (Codec.entry_oid w.w_buf ~pos) in
      let version = Codec.entry_version w.w_buf ~pos in
      let prev =
        match Ids.Oid.Table.find stable oid with
        | v -> v
        | exception Not_found -> -1
      in
      if version > prev then Ids.Oid.Table.replace stable oid version
    end
  done

let decode_block w p =
  let rec records i acc =
    if i < 0 then acc
    else
      let pos = at w (p.p_body + (i * Codec.entry_bytes)) Codec.entry_bytes in
      match Codec.entry_at w.w_buf ~pos with
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
   place, through a window: survivors are remembered as offsets and
   their entries read back and decoded at the end.  With
   [~cut_torn:true] a partial last segment is left out of the blocks,
   the stable facts and the maxima — only [s_torn_tail] still reports
   it — and its epoch and seq come back on the side (when its header
   verified), so {!attach} can number past it. *)
let scan_image ?upto ~cut_torn backend =
  let len = Backend.size backend in
  let w = window backend ~len in
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
    let body = !off + Codec.header_bytes in
    if len - !off < Codec.header_bytes then begin
      if len > !off then torn_tail := true;
      stop := true
    end
    else
      let img = w.w_buf and pos = at w !off Codec.header_bytes in
      if (not (Codec.header_valid img ~pos)) || Codec.header_count img ~pos < 0
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
        let gen = Codec.header_gen img ~pos in
        let slot = Codec.header_slot img ~pos in
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
          (* the window moves on from here: the header was read above *)
          let valid = valid_prefix w ~body ~avail:(min count room) 0 in
          if gen < 0 then fold_stable w ~body ~valid stable
          else begin
            incr log_segments;
            let p =
              {
                p_epoch = epoch;
                p_gen = gen;
                p_slot = slot;
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
        if full then off := body + (count * Codec.entry_bytes)
        else stop := true
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
      s_blocks = List.map (decode_block w) survivors;
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
  (* cuts any torn tail, and leaves the descriptor where the appends
     continue: the scan's last reads were elsewhere *)
  Backend.truncate backend ~len:s.s_end;
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

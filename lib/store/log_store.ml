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
  s_stable : (Ids.Oid.t * int) list;
  s_segments : int;
  s_stale_blocks : int;
  s_torn_tail : bool;
  s_end : int;
  s_max_epoch : int;
  s_max_seq : int;
}

(* One pass over the image.  With [~cut_torn:true] a partial last
   segment is left out of the blocks, the stable facts and the maxima
   — only [s_torn_tail] still reports it — and comes back on the side
   as its header (when that decoded), so {!attach} can number past
   it. *)
let scan_image ?upto ~cut_torn backend =
  let len = Backend.size backend in
  let img = Backend.pread backend ~off:0 ~len in
  let len = Bytes.length img in
  let included h = match upto with None -> true | Some n -> h.Codec.h_seq < n in
  (* Decode up to [avail] entries, cutting at the first bad checksum —
     the valid-prefix rule of the torn-write model. *)
  let decode_entries pos avail =
    let rec go i acc =
      if i >= avail then (List.rev acc, avail - i)
      else
        match Codec.decode_entry img ~pos:(pos + (i * Codec.entry_bytes)) with
        | None -> (List.rev acc, avail - i)
        | Some e -> go (i + 1) (e :: acc)
    in
    go 0 []
  in
  let segments = ref 0 in
  let log_segments = ref [] in
  let stable = Hashtbl.create 64 in
  let torn_tail = ref false in
  let torn_header = ref None in
  let s_end = ref 0 in
  let max_epoch = ref (-1) in
  let max_seq = ref (-1) in
  let off = ref 0 in
  let stop = ref false in
  while not !stop do
    if len - !off < Codec.header_bytes then begin
      if len - !off > 0 then torn_tail := true;
      stop := true
    end
    else
      match Codec.decode_header img ~pos:!off with
      | None ->
        torn_tail := true;
        stop := true
      | Some h ->
        let body = !off + Codec.header_bytes in
        let full = len - body >= h.Codec.h_count * Codec.entry_bytes in
        let avail =
          if full then h.Codec.h_count else (len - body) / Codec.entry_bytes
        in
        if not full then begin
          torn_tail := true;
          torn_header := Some h
        end;
        if included h && (full || not cut_torn) then begin
          incr segments;
          if h.Codec.h_epoch > !max_epoch then max_epoch := h.Codec.h_epoch;
          if h.Codec.h_seq > !max_seq then max_seq := h.Codec.h_seq;
          let entries, discarded = decode_entries body avail in
          let discarded = discarded + (h.Codec.h_count - avail) in
          if h.Codec.h_gen < 0 then
            List.iter
              (function
                | Codec.Stable { oid; version } ->
                  let prev =
                    match Hashtbl.find_opt stable oid with
                    | Some v -> v
                    | None -> -1
                  in
                  if version > prev then Hashtbl.replace stable oid version
                | Codec.Record _ -> ())
              entries
          else begin
            let records =
              List.filter_map
                (function Codec.Record r -> Some r | Codec.Stable _ -> None)
                entries
            in
            log_segments :=
              {
                sb_epoch = h.Codec.h_epoch;
                sb_gen = h.Codec.h_gen;
                sb_slot = h.Codec.h_slot;
                sb_seq = h.Codec.h_seq;
                sb_records = records;
                sb_discarded = discarded;
              }
              :: !log_segments
          end
        end;
        if full then begin
          off := body + (h.Codec.h_count * Codec.entry_bytes);
          s_end := !off
        end
        else stop := true
  done;
  (* In-place slot semantics: only the newest segment per
     (epoch, gen, slot) survives; everything older is stale garbage. *)
  let newest = Hashtbl.create 64 in
  List.iter
    (fun b ->
      let key = (b.sb_epoch, b.sb_gen, b.sb_slot) in
      match Hashtbl.find_opt newest key with
      | Some prev when prev.sb_seq >= b.sb_seq -> ()
      | _ -> Hashtbl.replace newest key b)
    !log_segments;
  let blocks =
    Hashtbl.fold (fun _ b acc -> b :: acc) newest []
    |> List.sort (fun a b -> compare a.sb_seq b.sb_seq)
  in
  let stable_pairs =
    Hashtbl.fold (fun oid v acc -> (oid, v) :: acc) stable []
    |> List.sort (fun (a, _) (b, _) -> Ids.Oid.compare a b)
  in
  ( {
      s_blocks = blocks;
      s_stable = stable_pairs;
      s_segments = !segments;
      s_stale_blocks = List.length !log_segments - List.length blocks;
      s_torn_tail = !torn_tail;
      s_end = !s_end;
      s_max_epoch = !max_epoch;
      s_max_seq = !max_seq;
    },
    !torn_header )

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
  let s, torn_header = scan_image ~cut_torn:true backend in
  if s.s_torn_tail then Backend.truncate backend ~len:s.s_end;
  (* a torn segment's header still counts: its epoch and seq may have
     reached the platter in a predecessor's crash image *)
  let epoch, seq =
    match torn_header with
    | Some h ->
      (max s.s_max_epoch h.Codec.h_epoch, max s.s_max_seq h.Codec.h_seq)
    | None -> (s.s_max_epoch, s.s_max_seq)
  in
  ( make backend ~epoch:(epoch + 1) ~seq:(seq + 1) ~write_off:s.s_end
      ~sync_mode,
    { s with s_torn_tail = false } )

let attach ?sync_mode backend = fst (attach_scan ?sync_mode backend)

(* The durable block store: backend units, the checksummed segment
   codec, log-store scan semantics, and the headline equivalence the
   subsystem exists for — the same seeded run recovers byte-identical
   committed state whether its blocks went through the in-memory
   backend, a real disk image, or (modulo store counters) no store at
   all. *)

open El_model
module Backend = El_store.Backend
module Codec = El_store.Codec
module Log_store = El_store.Log_store
module Experiment = El_harness.Experiment
module Recovery = El_recovery.Recovery
module Sweep = El_check.Sweep

let el_manager (live : Experiment.live) =
  match live.Experiment.manager with
  | Experiment.El_log m -> m
  | Experiment.Fw_log _ | Experiment.Hybrid_log _ ->
    Alcotest.fail "an EL run expected"

let with_temp_dir f =
  let dir = Filename.temp_file "el_store_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun x -> try Sys.remove (Filename.concat dir x) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let with_file_backend f =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "disk.img" in
      let b = Backend.file ~path in
      Fun.protect ~finally:(fun () -> Backend.close b) (fun () -> f b path))

(* Whole-buffer writes and fresh-buffer reads over the backend's
   prefix-write and read-into primitives. *)
let write b ~off bytes = Backend.pwrite b ~off ~len:(Bytes.length bytes) bytes

let read b ~off ~len =
  let buf = Bytes.create len in
  Bytes.sub buf 0 (Backend.pread b ~off buf ~pos:0 ~len)

(* ---- backends ---- *)

let test_mem_roundtrip () =
  let b = Backend.mem () in
  write b ~off:0 (Bytes.of_string "hello");
  write b ~off:10_000 (Bytes.of_string "world");
  Alcotest.(check string)
    "read back" "hello"
    (Bytes.to_string (read b ~off:0 ~len:5));
  Alcotest.(check string)
    "read past growth" "world"
    (Bytes.to_string (read b ~off:10_000 ~len:5));
  (* the gap is zero-filled, not garbage *)
  Alcotest.(check string)
    "gap zeroed"
    (String.make 8 '\000')
    (Bytes.to_string (read b ~off:100 ~len:8));
  Alcotest.(check int) "size" 10_005 (Backend.size b);
  Backend.barrier b;
  let c = Backend.counters b in
  Alcotest.(check int) "pwrites" 2 c.Backend.pwrites;
  Alcotest.(check int) "barriers" 1 c.Backend.barriers;
  Alcotest.(check int) "bytes" 10 c.Backend.bytes_written

let test_file_persists () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "disk.img" in
      let b = Backend.file ~path in
      write b ~off:0 (Bytes.of_string "durable");
      Backend.barrier b;
      Backend.close b;
      let b2 = Backend.file ~path in
      Alcotest.(check string)
        "reopened read" "durable"
        (Bytes.to_string (read b2 ~off:0 ~len:7));
      Backend.close b2)

let test_mem_file_byte_equal () =
  with_file_backend (fun fb _path ->
      let mb = Backend.mem () in
      let writes = [ (0, "aaaa"); (100, "bb"); (37, "cccc"); (90, "dd") ] in
      List.iter
        (fun (off, s) ->
          write mb ~off (Bytes.of_string s);
          write fb ~off (Bytes.of_string s))
        writes;
      Alcotest.(check int) "sizes agree" (Backend.size mb) (Backend.size fb);
      let len = Backend.size mb in
      Alcotest.(check string)
        "images byte-identical"
        (Bytes.to_string (read mb ~off:0 ~len))
        (Bytes.to_string (read fb ~off:0 ~len)))

let test_use_after_close () =
  let b = Backend.mem () in
  Backend.close b;
  Alcotest.check_raises "pwrite after close"
    (Invalid_argument "El_store.Backend: use after close") (fun () ->
      write b ~off:0 (Bytes.of_string "x"))

(* ---- codec ---- *)

let sample_records =
  [
    Log_record.begin_ ~tid:(Ids.Tid.of_int 7) ~size:8
      ~timestamp:(Time.of_us 123);
    Log_record.data ~tid:(Ids.Tid.of_int 7) ~oid:(Ids.Oid.of_int 42)
      ~version:3 ~size:100 ~timestamp:(Time.of_us 456);
    Log_record.commit ~tid:(Ids.Tid.of_int 7) ~size:8
      ~timestamp:(Time.of_us 789);
    Log_record.abort ~tid:(Ids.Tid.of_int 9) ~size:8
      ~timestamp:(Time.of_us 1000);
  ]

let test_codec_roundtrip () =
  List.iter
    (fun r ->
      let b = Codec.encode_entry (Codec.Record r) in
      Alcotest.(check int) "entry size" Codec.entry_bytes (Bytes.length b);
      match Codec.decode_entry b ~pos:0 with
      | Some (Codec.Record r') ->
        Alcotest.(check bool) "roundtrip" true (r = r')
      | Some (Codec.Stable _) | None -> Alcotest.fail "decode failed")
    sample_records;
  let st = Codec.Stable { oid = Ids.Oid.of_int 99; version = 12 } in
  match Codec.decode_entry (Codec.encode_entry st) ~pos:0 with
  | Some (Codec.Stable { oid; version }) ->
    Alcotest.(check int) "stable oid" 99 (Ids.Oid.to_int oid);
    Alcotest.(check int) "stable version" 12 version
  | Some (Codec.Record _) | None -> Alcotest.fail "stable decode failed"

let test_codec_corruption () =
  let r = List.hd sample_records in
  let b = Codec.encode_entry ~corrupt:true (Codec.Record r) in
  Alcotest.(check bool)
    "corrupt entry rejected" true
    (Codec.decode_entry b ~pos:0 = None);
  let good = Codec.encode_entry (Codec.Record r) in
  (* flipping any payload byte must invalidate the checksum *)
  Bytes.set good 9 (Char.chr (Char.code (Bytes.get good 9) lxor 0x40));
  Alcotest.(check bool)
    "bit flip rejected" true
    (Codec.decode_entry good ~pos:0 = None)

let test_header_roundtrip () =
  let h =
    { Codec.h_epoch = 2; h_gen = 1; h_slot = 5; h_seq = 17; h_count = 3 }
  in
  let b = Codec.encode_header h in
  Alcotest.(check int) "header size" Codec.header_bytes (Bytes.length b);
  (match Codec.decode_header b ~pos:0 with
  | Some h' -> Alcotest.(check bool) "roundtrip" true (h = h')
  | None -> Alcotest.fail "header decode failed");
  Bytes.set b 0 'X';
  Alcotest.(check bool)
    "bad magic rejected" true
    (Codec.decode_header b ~pos:0 = None)

(* ---- log store ---- *)

(* A scan's stable facts as sorted (oid, version) bindings. *)
let stable_pairs (s : Log_store.scan) =
  Ids.Oid.Table.fold (fun oid v acc -> (oid, v) :: acc) s.Log_store.s_stable []
  |> List.sort compare

let records_of n base =
  List.init n (fun i ->
      Log_record.data
        ~tid:(Ids.Tid.of_int (base + i))
        ~oid:(Ids.Oid.of_int (base + i))
        ~version:(i + 1) ~size:10
        ~timestamp:(Time.of_us (base + i)))

let test_store_scan_dedup () =
  let b = Backend.mem () in
  let t = Log_store.create b in
  Log_store.append_block t ~gen:0 ~slot:0 (records_of 3 100);
  Log_store.append_block t ~gen:0 ~slot:1 (records_of 2 200);
  (* slot 0 is reused: only the newer segment may survive the scan *)
  Log_store.append_block t ~gen:0 ~slot:0 (records_of 4 300);
  Log_store.append_stable t ~oid:(Ids.Oid.of_int 5) ~version:2;
  Log_store.append_stable t ~oid:(Ids.Oid.of_int 5) ~version:7;
  let s = Log_store.scan b in
  Alcotest.(check int) "segments written" 5 s.Log_store.s_segments;
  Alcotest.(check int) "stale blocks" 1 s.Log_store.s_stale_blocks;
  Alcotest.(check bool) "no torn tail" false s.Log_store.s_torn_tail;
  let live =
    List.filter (fun bl -> bl.Log_store.sb_gen >= 0) s.Log_store.s_blocks
  in
  Alcotest.(check int) "live blocks" 2 (List.length live);
  let slot0 =
    List.find (fun bl -> bl.Log_store.sb_slot = 0) live
  in
  Alcotest.(check int)
    "newest wins slot 0" 4
    (List.length slot0.Log_store.sb_records);
  Alcotest.(check bool)
    "stable folds max version" true
    (stable_pairs s = [ (Ids.Oid.of_int 5), 7 ])

let test_store_torn_suffix () =
  let b = Backend.mem () in
  let t = Log_store.create b in
  Log_store.append_block t ~gen:0 ~slot:0 ~torn_suffix:2 (records_of 5 0);
  let s = Log_store.scan b in
  let bl = List.hd s.Log_store.s_blocks in
  Alcotest.(check int) "valid prefix" 3 (List.length bl.Log_store.sb_records);
  Alcotest.(check int) "discarded" 2 bl.Log_store.sb_discarded

(* A bad checksum mid-segment cuts the block there: writes are
   sequential within a block, so no entry behind a corrupt one can be
   trusted, even one whose own checksum still holds. *)
let test_first_bad_checksum_cuts () =
  let b = Backend.mem () in
  let t = Log_store.create b in
  Log_store.append_block t ~gen:0 ~slot:0 (records_of 5 0);
  let entry i = Codec.header_bytes + (i * Codec.entry_bytes) in
  let byte = read b ~off:(entry 2 + 1) ~len:1 in
  Bytes.set byte 0 (Char.chr (Char.code (Bytes.get byte 0) lxor 0xff));
  write b ~off:(entry 2 + 1) byte;
  let img = read b ~off:0 ~len:(Backend.size b) in
  let checksums i = Codec.decode_entry img ~pos:(entry i) <> None in
  Alcotest.(check bool) "entry 2 fails its checksum" false (checksums 2);
  Alcotest.(check bool) "entries 3 and 4 still checksum" true
    (checksums 3 && checksums 4);
  let bl = List.hd (Log_store.scan b).Log_store.s_blocks in
  Alcotest.(check int) "the scan keeps entries 0 and 1" 2
    (List.length bl.Log_store.sb_records);
  Alcotest.(check int) "and discards from entry 2 on" 3
    bl.Log_store.sb_discarded;
  let r = Recovery.recover_store ~num_objects:100 b in
  Alcotest.(check int) "one torn block" 1 r.Recovery.torn_blocks;
  Alcotest.(check int) "three torn records" 3 r.Recovery.torn_records

let test_store_upto () =
  let b = Backend.mem () in
  let t = Log_store.create b in
  Log_store.append_block t ~gen:0 ~slot:0 (records_of 2 0);
  let mark = Log_store.position t in
  Log_store.append_block t ~gen:0 ~slot:1 (records_of 3 50);
  Log_store.append_stable t ~oid:(Ids.Oid.of_int 1) ~version:9;
  let s = Log_store.scan ~upto:mark b in
  Alcotest.(check int) "blocks before mark" 1 (List.length s.Log_store.s_blocks);
  Alcotest.(check bool) "stable after mark excluded" true
    (stable_pairs s = []);
  let full = Log_store.scan b in
  Alcotest.(check int) "full scan sees all" 2 (List.length full.Log_store.s_blocks)

let test_attach_epochs () =
  with_file_backend (fun b _path ->
      let t0 = Log_store.create b in
      Log_store.append_block t0 ~gen:0 ~slot:0 (records_of 2 0);
      let t1 = Log_store.attach b in
      (* the new epoch's reuse of slot 0 must NOT shadow epoch 0's block *)
      Log_store.append_block t1 ~gen:0 ~slot:0 (records_of 3 10);
      let s = Log_store.scan b in
      Alcotest.(check int) "both epochs' blocks survive" 2
        (List.length s.Log_store.s_blocks);
      Alcotest.(check int) "epoch advanced" 1 s.Log_store.s_max_epoch)

(* The torn-tail negative of the issue: truncate a real image
   mid-record and recovery must discard exactly the torn suffix. *)
let test_truncated_image () =
  with_file_backend (fun b _path ->
      let t = Log_store.create b in
      Log_store.append_block t ~gen:0 ~slot:0 (records_of 5 0);
      let whole = Backend.size b in
      (* keep the header, 3 complete entries and half of the 4th *)
      let keep =
        Codec.header_bytes + (3 * Codec.entry_bytes) + (Codec.entry_bytes / 2)
      in
      Alcotest.(check bool) "truncation is proper" true (keep < whole);
      Backend.truncate b ~len:keep;
      let s = Log_store.scan b in
      Alcotest.(check bool) "torn tail detected" true s.Log_store.s_torn_tail;
      let bl = List.hd s.Log_store.s_blocks in
      Alcotest.(check int)
        "exactly the complete prefix survives" 3
        (List.length bl.Log_store.sb_records);
      Alcotest.(check int) "exactly the suffix discarded" 2
        bl.Log_store.sb_discarded;
      let r = Recovery.recover_store ~num_objects:100 b in
      Alcotest.(check int) "torn records counted" 2
        r.Recovery.torn_records;
      (* attach truncates the torn tail away; a rescan is clean *)
      let t2 = Log_store.attach b in
      ignore t2;
      let s2 = Log_store.scan b in
      Alcotest.(check bool) "attach cleaned the tail" false
        s2.Log_store.s_torn_tail)

(* A header whose checksum holds but whose [count] is negative ends the
   valid image, as a bad checksum does: the scan must not step back
   into the segment before it, and attach must truncate at the header
   and number past nothing in it. *)
let test_negative_count_ends_image () =
  let b = Backend.mem () in
  let t = Log_store.create b in
  Log_store.append_stable t ~oid:(Ids.Oid.of_int 3) ~version:4;
  let good = Backend.size b in
  write b ~off:good
    (Codec.encode_header
       { Codec.h_epoch = 0; h_gen = 0; h_slot = 0; h_seq = 1; h_count = -1 });
  Alcotest.(check int) "a 153-byte image" 153 (Backend.size b);
  let s = Log_store.scan b in
  Alcotest.(check int) "only the stable segment counts" 1
    s.Log_store.s_segments;
  Alcotest.(check bool) "the image is torn there" true s.Log_store.s_torn_tail;
  Alcotest.(check int) "the valid image ends at the header" good
    s.Log_store.s_end;
  Alcotest.(check int) "no block" 0 (List.length s.Log_store.s_blocks);
  Alcotest.(check int) "max seq" 0 s.Log_store.s_max_seq;
  Alcotest.(check bool) "the stable fact stays" true
    (stable_pairs s = [ (Ids.Oid.of_int 3, 4) ]);
  let t2, s2 = Log_store.attach_scan b in
  Alcotest.(check int) "attach truncates at the header" good (Backend.size b);
  Alcotest.(check bool) "attach's scan is clean" false s2.Log_store.s_torn_tail;
  Alcotest.(check int) "attach's scan ends at the header" good
    s2.Log_store.s_end;
  Alcotest.(check (pair int int)) "next epoch and seq" (1, 1)
    (Log_store.epoch t2, Log_store.position t2);
  Log_store.append_block t2 ~gen:0 ~slot:0 (records_of 2 10);
  let s3 = Log_store.scan b in
  Alcotest.(check int) "the next epoch's segment follows" 2
    s3.Log_store.s_segments;
  Alcotest.(check bool) "and the image is whole" false s3.Log_store.s_torn_tail;
  Alcotest.(check int) "its records survive" 2
    (List.length (List.hd s3.Log_store.s_blocks).Log_store.sb_records);
  Alcotest.(check bool) "and so does the stable fact" true
    (stable_pairs s3 = [ (Ids.Oid.of_int 3, 4) ])

(* ---- the scan against a model that decodes everything ---- *)

(* The scan verifies in place and decodes only survivors; this model
   decodes every segment with the codec's decoders, cuts each at its
   first bad entry, keeps the newest segment per (epoch, gen, slot) by
   seq and the highest stable version per oid. *)
type model_segment = {
  m_header : Codec.header;
  m_entries : Codec.entry list;  (* valid prefix *)
  m_full : bool;  (* all [h_count] entries' bytes are in the image *)
  m_end : int;  (* offset after the segment, when full *)
}

let model_segments img =
  let len = Bytes.length img in
  let rec go off acc =
    if len - off < Codec.header_bytes then (List.rev acc, len > off)
    else
      match Codec.decode_header img ~pos:off with
      | None -> (List.rev acc, true)
      | Some h when h.Codec.h_count < 0 -> (List.rev acc, true)
      | Some h ->
        let body = off + Codec.header_bytes in
        let avail = min h.Codec.h_count ((len - body) / Codec.entry_bytes) in
        let rec entries i =
          if i >= avail then []
          else
            match
              Codec.decode_entry img ~pos:(body + (i * Codec.entry_bytes))
            with
            | None -> []
            | Some e -> e :: entries (i + 1)
        in
        let full = avail = h.Codec.h_count in
        let seg =
          {
            m_header = h;
            m_entries = entries 0;
            m_full = full;
            m_end = body + (h.Codec.h_count * Codec.entry_bytes);
          }
        in
        if full then go seg.m_end (seg :: acc)
        else (List.rev (seg :: acc), true)
  in
  go 0 []

(* The image's valid end: the offset after its last whole segment. *)
let model_end segs =
  List.fold_left (fun a m -> if m.m_full then m.m_end else a) 0 segs

(* The scan of the given segments, as [Log_store.scan] reports it, with
   the stable facts as sorted pairs. *)
let model_scan ~torn ~s_end segs =
  let h m = m.m_header in
  let log = List.filter (fun m -> (h m).Codec.h_gen >= 0) segs in
  let newest =
    List.fold_left
      (fun acc m ->
        let key =
          ((h m).Codec.h_epoch, (h m).Codec.h_gen, (h m).Codec.h_slot)
        in
        match List.assoc_opt key acc with
        | Some prev when (h prev).Codec.h_seq > (h m).Codec.h_seq -> acc
        | Some _ | None -> (key, m) :: List.remove_assoc key acc)
      [] log
  in
  let blocks =
    List.map snd newest
    |> List.sort (fun a b -> compare (h a).Codec.h_seq (h b).Codec.h_seq)
    |> List.map (fun m ->
           let records =
             List.filter_map
               (function Codec.Record r -> Some r | Codec.Stable _ -> None)
               m.m_entries
           in
           {
             Log_store.sb_epoch = (h m).Codec.h_epoch;
             sb_gen = (h m).Codec.h_gen;
             sb_slot = (h m).Codec.h_slot;
             sb_seq = (h m).Codec.h_seq;
             sb_records = records;
             sb_discarded = (h m).Codec.h_count - List.length m.m_entries;
           })
  in
  let stable = Hashtbl.create 16 in
  List.iter
    (fun m ->
      if (h m).Codec.h_gen < 0 then
        List.iter
          (function
            | Codec.Stable { oid; version } ->
              let prev =
                Option.value ~default:(-1) (Hashtbl.find_opt stable oid)
              in
              if version > prev then Hashtbl.replace stable oid version
            | Codec.Record _ -> ())
          m.m_entries)
    segs;
  let maxi f = List.fold_left (fun a m -> max a (f (h m))) (-1) segs in
  ( blocks,
    List.sort compare (Hashtbl.fold (fun o v acc -> (o, v) :: acc) stable []),
    ( List.length segs,
      List.length log - List.length blocks,
      torn,
      s_end,
      maxi (fun h -> h.Codec.h_epoch),
      maxi (fun h -> h.Codec.h_seq) ) )

let scan_fields (s : Log_store.scan) =
  ( s.Log_store.s_blocks,
    stable_pairs s,
    ( s.Log_store.s_segments,
      s.Log_store.s_stale_blocks,
      s.Log_store.s_torn_tail,
      s.Log_store.s_end,
      s.Log_store.s_max_epoch,
      s.Log_store.s_max_seq ) )

type store_op =
  | Log of { gen : int; slot : int; records : int; torn : int }
  | Install of { oid : int; version : int }

let pp_store_op = function
  | Log { gen; slot; records; torn } ->
    Printf.sprintf "log g%d s%d x%d torn %d" gen slot records torn
  | Install { oid; version } -> Printf.sprintf "install o%d v%d" oid version

(* Records of every kind, numbered from [base]. *)
let mixed_records n base =
  List.init n (fun i ->
      let k = base + i in
      let tid = Ids.Tid.of_int k and timestamp = Time.of_us k in
      match k mod 4 with
      | 0 -> Log_record.begin_ ~tid ~size:8 ~timestamp
      | 1 ->
        Log_record.data ~tid ~oid:(Ids.Oid.of_int (k mod 50)) ~version:k
          ~size:100 ~timestamp
      | 2 -> Log_record.commit ~tid ~size:8 ~timestamp
      | _ -> Log_record.abort ~tid ~size:8 ~timestamp)

(* Epochs of store operations, written through [Log_store] with an
   [attach] between epochs. *)
let build_image epochs =
  let b = Backend.mem () in
  let base = ref 0 in
  List.iteri
    (fun i ops ->
      let t = if i = 0 then Log_store.create b else Log_store.attach b in
      List.iter
        (function
          | Log { gen; slot; records; torn } ->
            let torn_suffix = if torn > 0 then Some torn else None in
            Log_store.append_block t ~gen ~slot ?torn_suffix
              (mixed_records records !base);
            base := !base + records
          | Install { oid; version } ->
            Log_store.append_stable t ~oid:(Ids.Oid.of_int oid) ~version)
        ops)
    epochs;
  read b ~off:0 ~len:(Backend.size b)

let store_case_arb =
  let open QCheck in
  let op =
    Gen.(
      frequency
        [
          ( 3,
            map
              (fun (gen, slot, records, torn) ->
                Log { gen; slot; records; torn })
              (quad (int_bound 1) (int_bound 2) (int_range 1 4)
                 (frequency [ (3, return 0); (1, int_range 1 4) ])) );
          ( 2,
            map
              (fun (oid, version) -> Install { oid; version })
              (pair (int_bound 9) (int_bound 20)) );
        ])
  in
  let gen =
    Gen.(
      quad
        (list_size (int_range 1 3) (list_size (int_bound 10) op))
        (opt (int_bound 1_000_000))
        (opt (pair (int_bound 1_000_000) (int_bound 7)))
        (opt (int_bound 40)))
  in
  let print (epochs, cut, flip, upto) =
    Printf.sprintf "epochs [%s] cut %s flip %s upto %s"
      (String.concat " | "
         (List.map
            (fun ops -> String.concat "; " (List.map pp_store_op ops))
            epochs))
      (match cut with Some c -> string_of_int c | None -> "none")
      (match flip with
      | Some (p, bit) -> Printf.sprintf "%d/%d" p bit
      | None -> "none")
      (match upto with Some u -> string_of_int u | None -> "none")
  in
  make ~print gen

(* Scans [img], put in a fresh backend from [fresh], with and without
   [upto], attaches it, and compares every field with the model's. *)
let scan_agrees_with_model ~fresh img ~upto =
  let cut = Bytes.length img in
  let backend () =
    let b = fresh () in
    if cut > 0 then write b ~off:0 img;
    b
  in
  let segs, torn = model_segments img in
  let included m =
    match upto with None -> true | Some n -> m.m_header.Codec.h_seq < n
  in
  let s_end = model_end segs in
  if
    scan_fields (Log_store.scan ?upto (backend ()))
    <> model_scan ~torn ~s_end (List.filter included segs)
  then QCheck.Test.fail_report "scan differs from the model";
  let b = backend () in
  let t, s = Log_store.attach_scan b in
  let whole_segs = List.filter (fun m -> m.m_full) segs in
  let ((_, _, (_, _, _, _, max_epoch, max_seq)) as expected) =
    model_scan ~torn:false ~s_end whole_segs
  in
  if scan_fields s <> expected then
    QCheck.Test.fail_report "attach's scan differs from the model";
  let torn_epoch, torn_seq =
    match List.filter (fun m -> not m.m_full) segs with
    | [ m ] -> (m.m_header.Codec.h_epoch, m.m_header.Codec.h_seq)
    | _ -> (-1, -1)
  in
  if Backend.size b <> (if torn then s_end else cut) then
    QCheck.Test.fail_reportf "attach left %d bytes, expected %d"
      (Backend.size b) (if torn then s_end else cut);
  if
    (Log_store.epoch t, Log_store.position t)
    <> (max max_epoch torn_epoch + 1, max max_seq torn_seq + 1)
  then QCheck.Test.fail_report "attach numbers the next epoch or seq wrong";
  true

(* Random images over a few (gen, slot) keys across 1-3 epochs, with
   stable installs and torn suffixes, cut at any byte, one bit flipped
   anywhere, scanned with and without an [~upto] mark: every field of
   the scan equals the model's, and so do attach's truncation, next
   epoch and next seq. *)
let prop_scan_matches_model =
  QCheck.Test.make ~name:"scan = decode-everything model" ~count:500
    store_case_arb (fun (epochs, cut, flip, upto) ->
      let whole = build_image epochs in
      let cut =
        match cut with
        | Some c -> c * Bytes.length whole / 1_000_000
        | None -> Bytes.length whole
      in
      let img = Bytes.sub whole 0 cut in
      (match flip with
      | Some (p, bit) when cut > 0 ->
        let p = p mod cut in
        Bytes.set img p
          (Char.chr (Char.code (Bytes.get img p) lxor (1 lsl bit)))
      | Some _ | None -> ());
      scan_agrees_with_model ~fresh:Backend.mem img ~upto)

(* The scan reads through a 64 KiB window.  An image of four windows,
   cut and bit-flipped inside the structs that straddle each window's
   end, scans as the model reads it, from memory and from a file. *)
let test_scan_window_edges () =
  let rng = Random.State.make [| 64 |] in
  let int n = Random.State.int rng n in
  let op _ =
    if int 5 < 3 then
      Log
        {
          gen = int 2;
          slot = int 3;
          records = 1 + int 4;
          torn = (if int 4 = 0 then 1 + int 4 else 0);
        }
    else Install { oid = int 10; version = int 21 }
  in
  let whole = build_image (List.init 3 (fun _ -> List.init 700 op)) in
  let len = Bytes.length whole in
  if len < 4 * 65536 then Alcotest.failf "the image is only %d bytes" len;
  with_temp_dir (fun dir ->
      let opened = ref [] in
      let file () =
        let b =
          Backend.file
            ~path:(Filename.concat dir (string_of_int (List.length !opened)))
        in
        opened := b :: !opened;
        b
      in
      Fun.protect
        ~finally:(fun () -> List.iter Backend.close !opened)
        (fun () ->
          List.iter
            (fun edge ->
              List.iter
                (fun (cut, flip, upto) ->
                  let img = Bytes.sub whole 0 (min len cut) in
                  (match flip with
                  | Some p when p < Bytes.length img ->
                    Bytes.set img p
                      (Char.chr (Char.code (Bytes.get img p) lxor 0x10))
                  | Some _ | None -> ());
                  ignore (scan_agrees_with_model ~fresh:Backend.mem img ~upto);
                  ignore (scan_agrees_with_model ~fresh:file img ~upto))
                [
                  (len, None, None);
                  (len, None, Some 900);
                  (edge - 30, None, None);
                  (edge + 1, None, None);
                  (edge + 25, None, None);
                  (edge + 60, None, Some 1_200);
                  (len, Some (edge - 3), None);
                  (len, Some (edge + 2), None);
                  (len, Some (edge + 40), Some 1_500);
                ])
            [ 65536; 2 * 65536; 3 * 65536 ]))

(* ---- backend equivalence ---- *)

let recovered_state (cfg : Experiment.config) =
  let live = Experiment.prepare cfg in
  let result = live.Experiment.finish () in
  let store = Option.get live.Experiment.store in
  let r =
    Recovery.recover_store ~num_objects:cfg.Experiment.num_objects
      (Log_store.backend store)
  in
  let state =
    ( List.sort compare (El_disk.Stable_db.snapshot r.Recovery.recovered),
      List.sort compare r.Recovery.committed_tids,
      r.Recovery.records_scanned,
      r.Recovery.torn_blocks,
      r.Recovery.torn_records )
  in
  Experiment.dispose live;
  (result, state)

let neutral_result (r : Experiment.result) =
  {
    r with
    Experiment.backend_name = "";
    store_pwrites = 0;
    store_barriers = 0;
    store_bytes_written = 0;
  }

(* The same seeded run through the mem and the file backend recovers
   the same state, and differs in no result but the backend's name:
   each standard kind at three seeds, and at the standard seed under
   every workload preset. *)
let test_mem_file_equivalence () =
  let standard =
    List.concat_map
      (fun (name, kind) ->
        List.map
          (fun seed ->
            ( Printf.sprintf "%s seed %d" name seed,
              Sweep.standard_config ~kind ~runtime:(Time.of_sec 6) ~rate:30.0
                ~seed () ))
          [ 1; 2; 3 ])
      (Sweep.standard_kinds ())
  in
  let presets =
    List.concat_map
      (fun (p : El_workload.Workload_preset.t) ->
        List.map
          (fun (name, kind) ->
            ( p.El_workload.Workload_preset.name ^ "/" ^ name,
              Sweep.standard_config ~kind ~runtime:(Time.of_sec 4) ~preset:p ()
            ))
          (Sweep.standard_kinds ()))
      El_workload.Workload_preset.all
  in
  with_temp_dir (fun dir ->
      List.iter
        (fun (name, cfg) ->
          let rm, sm =
            recovered_state { cfg with Experiment.backend = Mem_store }
          in
          let rf, sf =
            recovered_state { cfg with Experiment.backend = File_store dir }
          in
          Alcotest.(check string)
            (name ^ ": recovered state identical")
            (Marshal.to_string sm []) (Marshal.to_string sf []);
          let named (r : Experiment.result) =
            Marshal.to_string { r with Experiment.backend_name = "" } []
          in
          Alcotest.(check string)
            (name ^ ": run results identical modulo backend name")
            (named rm) (named rf))
        (standard @ presets))

let test_sim_mem_result_identity () =
  List.iter
    (fun (name, kind) ->
      let cfg backend =
        {
          (Sweep.standard_config ~kind ~runtime:(Time.of_sec 6) ~rate:30.0
             ~seed:5 ())
          with
          Experiment.backend;
        }
      in
      let r_sim = Experiment.run (cfg Experiment.Sim) in
      let r_mem = Experiment.run (cfg Experiment.Mem_store) in
      Alcotest.(check string)
        (name ^ ": store side effects never perturb the simulation")
        (Marshal.to_string (neutral_result r_sim) [])
        (Marshal.to_string (neutral_result r_mem) []))
    (Sweep.standard_kinds ())

(* ---- crash-mark fidelity ---- *)

(* A mid-run crash with torn log writes: the simulated crash image and
   the frozen store image must recover the same committed state and
   the same torn damage, for the standard EL log at three seeds and,
   scaled to each preset, under every workload preset — and at each
   seed once more, crashed inside a torn in-service write, where the
   damage must be there to compare.  (redo_applied/skipped are
   scan-order dependent and deliberately not compared.) *)
let test_crash_mark_fidelity () =
  let module FP = El_fault.Fault_plan in
  let el = List.assoc "el" (Sweep.standard_kinds ()) in
  let torn ~rate (cfg : Experiment.config) =
    {
      cfg with
      Experiment.backend = Experiment.Mem_store;
      fault =
        FP.make ~seed:cfg.Experiment.seed
          ~log_spec:{ FP.clean_spec with FP.torn_rate = rate }
          ~log_gens:2 ~flush_drives:2 ();
    }
  in
  let seeds =
    List.map
      (fun seed ->
        ( Printf.sprintf "seed %d" seed,
          torn ~rate:0.3
            (Sweep.standard_config ~kind:el ~runtime:(Time.of_sec 8)
               ~rate:40.0 ~seed ()),
          Time.of_sec 6 ))
      [ 1; 2; 3 ]
  in
  let presets =
    List.map
      (fun (p : El_workload.Workload_preset.t) ->
        ( p.El_workload.Workload_preset.name,
          torn ~rate:0.2
            (Sweep.standard_config ~kind:el ~runtime:(Time.of_sec 4) ~preset:p
               ()),
          Time.of_sec 3 ))
      El_workload.Workload_preset.all
  in
  (* The seed inputs again, each crashed inside a torn log write: the
     first instant after 2 s whose crash leaves torn damage in the store
     image.  Stepping the engine lists the candidates, each 1 us after
     an event with no other event before the next one, so a crash there
     sees exactly the state that event left.  Both images must then
     hold torn damage, and the same. *)
  let torn_instant (cfg : Experiment.config) =
    let live = Experiment.prepare cfg in
    let engine = live.Experiment.engine in
    let rec candidates acc last n =
      if n = 0 || not (El_sim.Engine.step engine) then List.rev acc
      else
        let now = El_sim.Engine.now engine in
        match last with
        | Some at when Time.(now > add at (of_us 1)) ->
          candidates (Time.add at (Time.of_us 1) :: acc) (Some now) (n - 1)
        | Some _ | None ->
          candidates acc
            (if Time.(now >= of_sec 2) then Some now else None)
            n
    in
    let instants =
      Fun.protect
        ~finally:(fun () -> Experiment.dispose live)
        (fun () -> candidates [] None 400)
    in
    let tears at =
      match Experiment.run_with_crash_store cfg ~crash_at:at with
      | _, _, _, Some st -> st.Recovery.torn_blocks > 0
      | _, _, _, None -> false
    in
    match List.find_opt tears instants with
    | Some at -> at
    | None -> Alcotest.fail "no crash instant tears a log write"
  in
  let torn_writes =
    List.map
      (fun (name, cfg, _) ->
        let at = torn_instant cfg in
        (Printf.sprintf "%s, torn write at %d us" name (Time.to_us at), cfg, at))
      seeds
  in
  List.iter
    (fun (name, cfg, crash_at) ->
      let _result, sim, audit, store =
        Experiment.run_with_crash_store cfg ~crash_at
      in
      Alcotest.(check bool)
        (name ^ ": simulated recovery audits clean")
        true audit.Recovery.ok;
      match store with
      | None -> Alcotest.fail "store recovery missing"
      | Some st ->
        let view (r : Recovery.result) =
          ( List.sort compare (El_disk.Stable_db.snapshot r.Recovery.recovered),
            List.sort compare r.Recovery.committed_tids,
            r.Recovery.torn_blocks,
            r.Recovery.torn_records,
            r.Recovery.records_scanned )
        in
        Alcotest.(check string)
          (name ^ ": store replay matches simulated crash")
          (Marshal.to_string (view sim) [])
          (Marshal.to_string (view st) []);
        if List.exists (fun (n, _, _) -> n = name) torn_writes then
          List.iter
            (fun (image, (r : Recovery.result)) ->
              if r.Recovery.torn_blocks = 0 || r.Recovery.torn_records = 0 then
                Alcotest.failf "%s: the %s image holds %d torn blocks, %d torn \
                                records"
                  name image r.Recovery.torn_blocks r.Recovery.torn_records)
            [ ("simulated", sim); ("store", st) ])
    (seeds @ presets @ torn_writes)

(* Manual stages appends in memory: the backend sees nothing until a
   [sync], which writes everything staged with one pwrite and one
   barrier, leaving exactly the image an Immediate store writes with
   a pwrite and a barrier per segment. *)
let manual_appends t =
  Log_store.append_block t ~gen:0 ~slot:0 (records_of 3 0);
  Log_store.append_block t ~gen:1 ~slot:0 (records_of 2 50);
  Log_store.append_stable t ~oid:(Ids.Oid.of_int 7) ~version:3;
  Log_store.append_block t ~gen:0 ~slot:1 (records_of 4 80)

let image b = Bytes.to_string (read b ~off:0 ~len:(Backend.size b))

let test_manual_stages_until_sync () =
  let immediate = Backend.mem () in
  manual_appends (Log_store.create immediate);
  let b = Backend.mem () in
  let t = Log_store.create ~sync_mode:Log_store.Manual b in
  manual_appends t;
  let c = Backend.counters b in
  Alcotest.(check int) "no pwrite before sync" 0 c.Backend.pwrites;
  Alcotest.(check int) "backend still empty" 0 (Backend.size b);
  Alcotest.(check bool) "store dirty" true (Log_store.dirty t);
  Log_store.sync t;
  Alcotest.(check int) "one pwrite for the batch" 1 c.Backend.pwrites;
  Alcotest.(check int) "one barrier for the batch" 1 c.Backend.barriers;
  Alcotest.(check string) "image = Immediate's" (image immediate) (image b);
  Alcotest.(check int) "same bytes counted"
    (Backend.counters immediate).Backend.bytes_written c.Backend.bytes_written;
  Log_store.sync t;
  Alcotest.(check int) "a clean sync writes nothing" 1 c.Backend.pwrites;
  Alcotest.(check int) "and barriers nothing" 1 c.Backend.barriers

let test_manual_unsynced_never_lands () =
  with_file_backend (fun b path ->
      let t = Log_store.create ~sync_mode:Log_store.Manual b in
      Log_store.append_block t ~gen:0 ~slot:0 (records_of 2 0);
      Log_store.sync t;
      let synced = image b in
      (* staged after the last sync: a crash now must not find them *)
      Log_store.append_block t ~gen:0 ~slot:1 (records_of 3 10);
      Log_store.append_stable t ~oid:(Ids.Oid.of_int 4) ~version:9;
      let other = Backend.file ~path in
      Fun.protect
        ~finally:(fun () -> Backend.close other)
        (fun () ->
          Alcotest.(check string) "unsynced segments never reached the image"
            synced (image other);
          let s = Log_store.scan other in
          Alcotest.(check int) "scan sees the synced block only" 1
            (List.length s.Log_store.s_blocks);
          Alcotest.(check bool) "no stable fact" true
            (stable_pairs s = [])))

(* A session that never syncs (a client that only aborts) must not
   grow the stage without bound: past 1 MiB the buffer is written out,
   still without a barrier. *)
let test_manual_stage_is_bounded () =
  let immediate = Backend.mem () in
  let b = Backend.mem () in
  let i = Log_store.create immediate in
  let t = Log_store.create ~sync_mode:Log_store.Manual b in
  let appends = 400 in
  for slot = 0 to appends - 1 do
    Log_store.append_block i ~gen:0 ~slot (records_of 64 slot);
    Log_store.append_block t ~gen:0 ~slot (records_of 64 slot)
  done;
  let c = Backend.counters b in
  Alcotest.(check bool) "the stage was written out" true (c.Backend.pwrites > 0);
  Alcotest.(check bool) "in 1 MiB pieces" true
    (c.Backend.bytes_written <= c.Backend.pwrites * (1 lsl 20));
  Alcotest.(check int) "without a barrier" 0 c.Backend.barriers;
  Log_store.sync t;
  Alcotest.(check int) "then one sync barriers once" 1 c.Backend.barriers;
  Alcotest.(check string) "image = Immediate's" (image immediate) (image b)

(* ---- crash injection inside the write path ---- *)

(* A pwrite that tears mid-flight: the device keeps a byte prefix of
   the segment and dies.  The scan must trust exactly the valid
   record prefix, post-mortem writes must be lost, and [attach] must
   cut the image back to a clean state. *)
let test_write_fault_torn_segment () =
  let b = Backend.mem () in
  let t = Log_store.create b in
  Log_store.append_block t ~gen:0 ~slot:0 (records_of 3 0);
  Log_store.append_block t ~gen:0 ~slot:1 (records_of 4 100);
  (* arm: the next pwrite lands whole, the one after keeps the header,
     two entries and half of the third, then the device dies *)
  let tears = ref 0 in
  let keep =
    Codec.header_bytes + (2 * Codec.entry_bytes) + (Codec.entry_bytes / 2)
  in
  Backend.set_write_fault
    ~on_tear:(fun () -> incr tears)
    b ~after_pwrites:1 ~keep_bytes:keep;
  Log_store.append_block t ~gen:1 ~slot:0 (records_of 2 200);
  Alcotest.(check bool) "unfaulted write landed" false (Backend.dead b);
  Log_store.append_block t ~gen:1 ~slot:1 (records_of 4 300);
  Alcotest.(check int) "tear fired once" 1 !tears;
  Alcotest.(check bool) "device dead" true (Backend.dead b);
  let size_at_death = Backend.size b in
  (* writes into a dead device are silently lost *)
  Log_store.append_block t ~gen:2 ~slot:0 (records_of 2 400);
  Alcotest.(check int) "post-mortem write lost" size_at_death (Backend.size b);
  Backend.revive b;
  let s = Log_store.scan b in
  Alcotest.(check bool) "torn tail detected" true s.Log_store.s_torn_tail;
  let torn =
    List.find
      (fun bl -> bl.Log_store.sb_gen = 1 && bl.Log_store.sb_slot = 1)
      s.Log_store.s_blocks
  in
  Alcotest.(check int) "valid prefix survives the scan" 2
    (List.length torn.Log_store.sb_records);
  Alcotest.(check int) "torn suffix discarded" 2 torn.Log_store.sb_discarded;
  Alcotest.(check int) "every segment visible pre-attach" 4
    (List.length s.Log_store.s_blocks);
  (* replay trusts exactly the record-level valid prefix *)
  let r = Recovery.recover_store ~num_objects:1_000 b in
  Alcotest.(check int) "replay counts the torn records" 2
    r.Recovery.torn_records;
  (* attach cuts the image back to the last complete segment; the
     rescan is clean and the new epoch appends after the cut *)
  let t2 = Log_store.attach b in
  Log_store.append_block t2 ~gen:2 ~slot:0 (records_of 1 500);
  let s2 = Log_store.scan b in
  Alcotest.(check bool) "attach cleaned the tail" false
    s2.Log_store.s_torn_tail;
  Alcotest.(check int) "full segments + new epoch's block survive" 4
    (List.length s2.Log_store.s_blocks)

let el_small_kind () =
  Experiment.Ephemeral (El_core.Policy.default ~generation_sizes:[| 8; 8 |])

let write_fault_cfg ~seed =
  {
    (Sweep.standard_config ~kind:(el_small_kind ()) ~runtime:(Time.of_sec 8)
       ~rate:40.0 ~seed ())
    with
    Experiment.backend = Experiment.Mem_store;
  }

let recovery_view (r : Recovery.result) =
  ( List.sort compare (El_disk.Stable_db.snapshot r.Recovery.recovered),
    List.sort compare r.Recovery.committed_tids,
    r.Recovery.records_scanned,
    r.Recovery.torn_blocks,
    r.Recovery.torn_records )

(* Counts the store pwrites of a pristine run of [cfg], so the fault
   tests can arm the device to die in the middle of the same run. *)
let pristine_pwrites cfg =
  let live = Experiment.prepare cfg in
  ignore (live.Experiment.finish ());
  let store = Option.get live.Experiment.store in
  let n = (Backend.counters (Log_store.backend store)).Backend.pwrites in
  Experiment.dispose live;
  n

(* The sim crash image at the tear instant, kept while the run goes
   on: an image reads the live stable database, valid only until its
   next install, so the hook keeps a copy of the stable state. *)
let crash_and_keep live =
  let image = Recovery.crash live.Experiment.engine (el_manager live) in
  { image with Recovery.stable = El_disk.Stable_db.copy image.Recovery.stable }

(* Device dies mid-run with the fatal pwrite landing whole: the sim
   crash image captured at the tear instant and the surviving store
   image describe the same crash, so replay must agree exactly with
   simulated recovery. *)
let test_write_fault_replay_agrees () =
  List.iter
    (fun seed ->
      let cfg = write_fault_cfg ~seed in
      let total = pristine_pwrites cfg in
      Alcotest.(check bool) "run writes enough segments" true (total > 4);
      let live = Experiment.prepare cfg in
      let store = Option.get live.Experiment.store in
      let b = Log_store.backend store in
      let image = ref None in
      Backend.set_write_fault
        ~on_tear:(fun () -> image := Some (crash_and_keep live))
        b
        ~after_pwrites:(total / 2)
        ~keep_bytes:max_int;
      ignore (live.Experiment.finish ());
      let sim =
        match !image with
        | Some i -> Recovery.recover i
        | None -> Alcotest.fail "fault never fired"
      in
      let st =
        Recovery.recover_store ~num_objects:cfg.Experiment.num_objects b
      in
      Alcotest.(check string)
        (Printf.sprintf "seed %d: store replay = simulated recovery" seed)
        (Marshal.to_string (recovery_view sim) [])
        (Marshal.to_string (recovery_view st) []);
      Experiment.dispose live)
    [ 1; 2; 3 ]

(* Device dies tearing the fatal segment mid-entry: the store image is
   a strict prefix of the simulated crash state.  Everything the
   truncated image recovers must be durable in the simulated image,
   the torn tail must be counted, and [attach] must cut back to the
   valid prefix. *)
let test_write_fault_torn_prefix () =
  List.iter
    (fun seed ->
      let cfg = write_fault_cfg ~seed in
      let total = pristine_pwrites cfg in
      (* most pwrites are one-entry stable installs, which tear
         without discarding log records; probe forward from the
         midpoint until the fatal pwrite is a log segment *)
      let rec tear_log_segment k =
        if k > 40 then
          Alcotest.fail
            (Printf.sprintf "seed %d: no log segment near the midpoint" seed)
        else begin
          let live = Experiment.prepare cfg in
          let store = Option.get live.Experiment.store in
          let b = Log_store.backend store in
          let image = ref None in
          Backend.set_write_fault
            ~on_tear:(fun () -> image := Some (crash_and_keep live))
            b
            ~after_pwrites:((total / 2) + k)
            ~keep_bytes:(Codec.header_bytes + (Codec.entry_bytes / 2));
          ignore (live.Experiment.finish ());
          let s = Log_store.scan b in
          let torn_log =
            List.exists
              (fun bl -> bl.Log_store.sb_discarded > 0)
              s.Log_store.s_blocks
          in
          if torn_log then (live, b, !image, s)
          else begin
            Experiment.dispose live;
            tear_log_segment (k + 1)
          end
        end
      in
      let live, b, image, s = tear_log_segment 0 in
      let sim =
        match image with
        | Some i -> Recovery.recover i
        | None -> Alcotest.fail "fault never fired"
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: torn tail detected" seed)
        true s.Log_store.s_torn_tail;
      let st =
        Recovery.recover_store ~num_objects:cfg.Experiment.num_objects b
      in
      (* the torn segment's entries are all discarded: keep ends
         mid-first-entry *)
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: torn records counted" seed)
        true
        (st.Recovery.torn_records > 0);
      (* prefix property: nothing the truncated image recovers can
         exceed what the simulated crash knows *)
      List.iter
        (fun tid ->
          if not (List.mem tid sim.Recovery.committed_tids) then
            Alcotest.fail
              (Printf.sprintf
                 "seed %d: store recovered tid %d unknown to the sim image"
                 seed (Ids.Tid.to_int tid)))
        st.Recovery.committed_tids;
      List.iter
        (fun (oid, v) ->
          match El_disk.Stable_db.version sim.Recovery.recovered oid with
          | Some sv when sv >= v -> ()
          | _ ->
            Alcotest.fail
              (Printf.sprintf
                 "seed %d: store recovered o%d v%d ahead of the sim image"
                 seed (Ids.Oid.to_int oid) v))
        (El_disk.Stable_db.snapshot st.Recovery.recovered);
      (* the reboot: revive the device, then attach cuts the image at
         the valid prefix *)
      Backend.revive b;
      ignore (Log_store.attach b);
      let s2 = Log_store.scan b in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: attach cleaned the tail" seed)
        false s2.Log_store.s_torn_tail;
      Experiment.dispose live)
    [ 1; 2; 3 ]

(* ---- seeks ---- *)

(* The file backend remembers where its descriptor stands: an attach
   leaves it at the image's end, torn tail cut or not, and every append
   after that continues there, so none seeks — under either sync mode. *)
let test_attached_appends_never_seek () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "disk.img" in
      let session ~sync_mode ~torn =
        let b = Backend.file ~path in
        Fun.protect
          ~finally:(fun () -> Backend.close b)
          (fun () ->
            if torn then
              (* half a header: the tail a crash mid-append leaves *)
              write b ~off:(Backend.size b)
                (Bytes.sub
                   (Codec.encode_header
                      {
                        Codec.h_epoch = 0;
                        h_gen = 0;
                        h_slot = 0;
                        h_seq = 999;
                        h_count = 1;
                      })
                   0 20);
            let t = Log_store.attach ~sync_mode b in
            let seeks () = (Backend.counters b).Backend.seeks in
            let before = seeks () in
            for i = 0 to 19 do
              Log_store.append_block t ~gen:(i land 1) ~slot:(i mod 3)
                (records_of 4 (10 * i));
              Log_store.append_stable t ~oid:(Ids.Oid.of_int i) ~version:i;
              if i mod 5 = 4 then Log_store.sync t
            done;
            Log_store.sync t;
            Alcotest.(check int)
              (Printf.sprintf "%s%s: appends after attach seek"
                 (match sync_mode with
                 | Log_store.Immediate -> "immediate"
                 | Log_store.Manual -> "manual")
                 (if torn then ", torn tail" else ""))
              before (seeks ()))
      in
      Backend.close (Backend.file ~path);
      session ~sync_mode:Log_store.Immediate ~torn:false;
      session ~sync_mode:Log_store.Manual ~torn:false;
      session ~sync_mode:Log_store.Immediate ~torn:true;
      session ~sync_mode:Log_store.Manual ~torn:true;
      let b = Backend.file ~path in
      Fun.protect
        ~finally:(fun () -> Backend.close b)
        (fun () ->
          let s = Log_store.scan b in
          Alcotest.(check int) "every session's segments are there" 160
            s.Log_store.s_segments;
          Alcotest.(check bool) "no torn tail left" false
            s.Log_store.s_torn_tail))

let suite =
  [
    Alcotest.test_case "mem backend roundtrip" `Quick test_mem_roundtrip;
    Alcotest.test_case "file backend persists" `Quick test_file_persists;
    Alcotest.test_case "mem/file images byte-equal" `Quick
      test_mem_file_byte_equal;
    Alcotest.test_case "use after close raises" `Quick test_use_after_close;
    Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec rejects corruption" `Quick test_codec_corruption;
    Alcotest.test_case "header roundtrip" `Quick test_header_roundtrip;
    Alcotest.test_case "scan dedups reused slots" `Quick test_store_scan_dedup;
    Alcotest.test_case "torn suffix discarded" `Quick test_store_torn_suffix;
    Alcotest.test_case "the first bad checksum cuts the block" `Quick
      test_first_bad_checksum_cuts;
    Alcotest.test_case "scan honours crash mark" `Quick test_store_upto;
    Alcotest.test_case "attach bumps the epoch" `Quick test_attach_epochs;
    Alcotest.test_case "truncated image loses only the tail" `Quick
      test_truncated_image;
    Alcotest.test_case "a negative segment count ends the image" `Quick
      test_negative_count_ends_image;
    QCheck_alcotest.to_alcotest prop_scan_matches_model;
    Alcotest.test_case
      "mem = file recovered state (3 seeds x 3 kinds, every preset)" `Slow
      test_mem_file_equivalence;
    Alcotest.test_case "sim = mem run results" `Quick
      test_sim_mem_result_identity;
    Alcotest.test_case "crash mark freezes the sim image" `Quick
      test_crash_mark_fidelity;
    Alcotest.test_case "manual: staged until one pwrite + barrier" `Quick
      test_manual_stages_until_sync;
    Alcotest.test_case "manual: unsynced segments never land" `Quick
      test_manual_unsynced_never_lands;
    Alcotest.test_case "manual: the stage is bounded" `Quick
      test_manual_stage_is_bounded;
    Alcotest.test_case "write fault tears a segment" `Quick
      test_write_fault_torn_segment;
    Alcotest.test_case "mid-run device death: replay = simulated recovery"
      `Quick test_write_fault_replay_agrees;
    Alcotest.test_case "mid-run torn death: store is a strict prefix" `Quick
      test_write_fault_torn_prefix;
    Alcotest.test_case "appends after attach never seek" `Quick
      test_attached_appends_never_seek;
    Alcotest.test_case "scan = model across window edges" `Quick
      test_scan_window_edges;
  ]

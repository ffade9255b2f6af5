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

(* ---- backends ---- *)

let test_mem_roundtrip () =
  let b = Backend.mem () in
  Backend.pwrite b ~off:0 (Bytes.of_string "hello");
  Backend.pwrite b ~off:10_000 (Bytes.of_string "world");
  Alcotest.(check string)
    "read back" "hello"
    (Bytes.to_string (Backend.pread b ~off:0 ~len:5));
  Alcotest.(check string)
    "read past growth" "world"
    (Bytes.to_string (Backend.pread b ~off:10_000 ~len:5));
  (* the gap is zero-filled, not garbage *)
  Alcotest.(check string)
    "gap zeroed"
    (String.make 8 '\000')
    (Bytes.to_string (Backend.pread b ~off:100 ~len:8));
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
      Backend.pwrite b ~off:0 (Bytes.of_string "durable");
      Backend.barrier b;
      Backend.close b;
      let b2 = Backend.file ~path in
      Alcotest.(check string)
        "reopened read" "durable"
        (Bytes.to_string (Backend.pread b2 ~off:0 ~len:7));
      Backend.close b2)

let test_mem_file_byte_equal () =
  with_file_backend (fun fb _path ->
      let mb = Backend.mem () in
      let writes = [ (0, "aaaa"); (100, "bb"); (37, "cccc"); (90, "dd") ] in
      List.iter
        (fun (off, s) ->
          Backend.pwrite mb ~off (Bytes.of_string s);
          Backend.pwrite fb ~off (Bytes.of_string s))
        writes;
      Alcotest.(check int) "sizes agree" (Backend.size mb) (Backend.size fb);
      let len = Backend.size mb in
      Alcotest.(check string)
        "images byte-identical"
        (Bytes.to_string (Backend.pread mb ~off:0 ~len))
        (Bytes.to_string (Backend.pread fb ~off:0 ~len)))

let test_use_after_close () =
  let b = Backend.mem () in
  Backend.close b;
  Alcotest.check_raises "pwrite after close"
    (Invalid_argument "El_store.Backend: use after close") (fun () ->
      Backend.pwrite b ~off:0 (Bytes.of_string "x"))

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
    (s.Log_store.s_stable = [ (Ids.Oid.of_int 5), 7 ])

let test_store_torn_suffix () =
  let b = Backend.mem () in
  let t = Log_store.create b in
  Log_store.append_block t ~gen:0 ~slot:0 ~torn_suffix:2 (records_of 5 0);
  let s = Log_store.scan b in
  let bl = List.hd s.Log_store.s_blocks in
  Alcotest.(check int) "valid prefix" 3 (List.length bl.Log_store.sb_records);
  Alcotest.(check int) "discarded" 2 bl.Log_store.sb_discarded

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
    (s.Log_store.s_stable = []);
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

let test_mem_file_equivalence () =
  with_temp_dir (fun dir ->
      List.iter
        (fun (name, kind) ->
          List.iter
            (fun seed ->
              let cfg backend =
                {
                  (Sweep.standard_config ~kind ~runtime:(Time.of_sec 6)
                     ~rate:30.0 ~seed ())
                  with
                  Experiment.backend;
                }
              in
              let rm, sm = recovered_state (cfg Experiment.Mem_store) in
              let rf, sf =
                recovered_state (cfg (Experiment.File_store dir))
              in
              Alcotest.(check string)
                (Printf.sprintf "%s seed %d: recovered state identical" name
                   seed)
                (Marshal.to_string sm [])
                (Marshal.to_string sf []);
              Alcotest.(check string)
                (Printf.sprintf
                   "%s seed %d: run results identical modulo backend name"
                   name seed)
                (Marshal.to_string
                   { (neutral_result rm) with Experiment.backend_name = "" }
                   [])
                (Marshal.to_string
                   { (neutral_result rf) with Experiment.backend_name = "" }
                   []))
            [ 1; 2; 3 ])
        (Sweep.standard_kinds ()))

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
   the same torn damage.  (redo_applied/skipped are scan-order
   dependent and deliberately not compared.) *)
let test_crash_mark_fidelity () =
  let module FP = El_fault.Fault_plan in
  List.iter
    (fun seed ->
      let kind =
        Experiment.Ephemeral
          (El_core.Policy.default ~generation_sizes:[| 8; 8 |])
      in
      let cfg =
        {
          (Sweep.standard_config ~kind ~runtime:(Time.of_sec 8) ~rate:40.0
             ~seed ())
          with
          Experiment.backend = Experiment.Mem_store;
          fault =
            FP.make ~seed
              ~log_spec:{ FP.clean_spec with FP.torn_rate = 0.3 }
              ~log_gens:2 ~flush_drives:2 ();
        }
      in
      let _result, sim, audit, store =
        Experiment.run_with_crash_store cfg ~crash_at:(Time.of_sec 6)
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: simulated recovery audits clean" seed)
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
          (Printf.sprintf "seed %d: store replay matches simulated crash" seed)
          (Marshal.to_string (view sim) [])
          (Marshal.to_string (view st) []))
    [ 1; 2; 3 ]

(* Grouped sync must change barrier counts only: the same appends end
   in a byte-identical image once the final [sync] lands, with one
   barrier for the batch instead of one per segment. *)
let test_grouped_sync_bytes_identical () =
  let run sync_mode =
    let b = Backend.mem () in
    let t = Log_store.create ~sync_mode b in
    Log_store.append_block t ~gen:0 ~slot:0 (records_of 3 0);
    Log_store.append_block t ~gen:1 ~slot:0 (records_of 2 50);
    Log_store.append_stable t ~oid:(Ids.Oid.of_int 7) ~version:3;
    Log_store.sync t;
    let size = Backend.size b in
    ( Bytes.to_string (Backend.pread b ~off:0 ~len:size),
      (Backend.counters b).Backend.barriers,
      Log_store.group_syncs t )
  in
  let bytes_i, barriers_i, gs_i = run Log_store.Immediate in
  let bytes_g, barriers_g, gs_g = run Log_store.Grouped in
  Alcotest.(check string) "images byte-identical" bytes_i bytes_g;
  Alcotest.(check int) "immediate: a barrier per segment" 3 barriers_i;
  Alcotest.(check int) "grouped: one barrier for the batch" 1 barriers_g;
  Alcotest.(check int) "immediate: sync finds nothing dirty" 0 gs_i;
  Alcotest.(check int) "grouped: one sync wave" 1 gs_g

(* request_group_sync coalesces: many requests in one settle wave
   schedule one callback, and a clean store schedules nothing. *)
let test_group_sync_coalesces () =
  let b = Backend.mem () in
  let t = Log_store.create ~sync_mode:Log_store.Grouped b in
  let pending = ref [] in
  let schedule k = pending := k :: !pending in
  Log_store.append_block t ~gen:0 ~slot:0 (records_of 1 0);
  Log_store.request_group_sync t ~schedule;
  Log_store.append_block t ~gen:0 ~slot:1 (records_of 1 10);
  Log_store.request_group_sync t ~schedule;
  Alcotest.(check int) "second request coalesced" 1 (List.length !pending);
  List.iter (fun k -> k ()) !pending;
  Alcotest.(check int) "one barrier covers both segments" 1
    (Backend.counters b).Backend.barriers;
  Alcotest.(check bool) "store clean after the wave" false (Log_store.dirty t);
  pending := [];
  Log_store.request_group_sync t ~schedule;
  Alcotest.(check int) "clean store schedules nothing" 0
    (List.length !pending);
  (* leaving Grouped mode flushes rather than stranding dirty bytes *)
  Log_store.append_block t ~gen:0 ~slot:2 (records_of 1 20);
  Log_store.set_sync_mode t Log_store.Immediate;
  Alcotest.(check bool) "mode switch drains dirtiness" false
    (Log_store.dirty t);
  Alcotest.(check int) "mode switch issued the barrier" 2
    (Backend.counters b).Backend.barriers

(* Manual stages appends in memory: the backend sees nothing until a
   [sync], which writes everything staged with one pwrite and one
   barrier, leaving exactly the image an Immediate store writes with
   a pwrite and a barrier per segment. *)
let manual_appends t =
  Log_store.append_block t ~gen:0 ~slot:0 (records_of 3 0);
  Log_store.append_block t ~gen:1 ~slot:0 (records_of 2 50);
  Log_store.append_stable t ~oid:(Ids.Oid.of_int 7) ~version:3;
  Log_store.append_block t ~gen:0 ~slot:1 (records_of 4 80)

let image b = Bytes.to_string (Backend.pread b ~off:0 ~len:(Backend.size b))

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
            (s.Log_store.s_stable = [])))

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

(* Leaving Manual writes what it staged before the next append: to
   Immediate with a barrier, to Grouped without one. *)
let test_leaving_manual_writes_staged () =
  let immediate = Backend.mem () in
  manual_appends (Log_store.create immediate);
  List.iter
    (fun (name, mode, barriers) ->
      let b = Backend.mem () in
      let t = Log_store.create ~sync_mode:Log_store.Manual b in
      Log_store.append_block t ~gen:0 ~slot:0 (records_of 3 0);
      Log_store.append_block t ~gen:1 ~slot:0 (records_of 2 50);
      Log_store.append_stable t ~oid:(Ids.Oid.of_int 7) ~version:3;
      Log_store.set_sync_mode t mode;
      let c = Backend.counters b in
      Alcotest.(check int) (name ^ ": switch wrote the staged bytes") 1
        c.Backend.pwrites;
      Alcotest.(check int) (name ^ ": barriers at the switch") barriers
        c.Backend.barriers;
      Log_store.append_block t ~gen:0 ~slot:1 (records_of 4 80);
      Alcotest.(check int) (name ^ ": then a pwrite per segment") 2
        c.Backend.pwrites;
      Log_store.sync t;
      Alcotest.(check string) (name ^ ": image = Immediate's")
        (image immediate) (image b))
    [ ("immediate", Log_store.Immediate, 1); ("grouped", Log_store.Grouped, 0) ]

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
        ~on_tear:(fun () ->
          image :=
            Some
              (Recovery.crash live.Experiment.engine (el_manager live)))
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
            ~on_tear:(fun () ->
              image :=
                Some
                  (Recovery.crash live.Experiment.engine (el_manager live)))
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
    Alcotest.test_case "scan honours crash mark" `Quick test_store_upto;
    Alcotest.test_case "attach bumps the epoch" `Quick test_attach_epochs;
    Alcotest.test_case "truncated image loses only the tail" `Quick
      test_truncated_image;
    Alcotest.test_case "mem = file recovered state (3 seeds x 3 kinds)" `Slow
      test_mem_file_equivalence;
    Alcotest.test_case "sim = mem run results" `Quick
      test_sim_mem_result_identity;
    Alcotest.test_case "crash mark freezes the sim image" `Quick
      test_crash_mark_fidelity;
    Alcotest.test_case "grouped sync: same bytes, fewer barriers" `Quick
      test_grouped_sync_bytes_identical;
    Alcotest.test_case "group sync requests coalesce" `Quick
      test_group_sync_coalesces;
    Alcotest.test_case "manual: staged until one pwrite + barrier" `Quick
      test_manual_stages_until_sync;
    Alcotest.test_case "manual: unsynced segments never land" `Quick
      test_manual_unsynced_never_lands;
    Alcotest.test_case "manual: the stage is bounded" `Quick
      test_manual_stage_is_bounded;
    Alcotest.test_case "leaving manual writes staged bytes" `Quick
      test_leaving_manual_writes_staged;
    Alcotest.test_case "write fault tears a segment" `Quick
      test_write_fault_torn_segment;
    Alcotest.test_case "mid-run device death: replay = simulated recovery"
      `Quick test_write_fault_replay_agrees;
    Alcotest.test_case "mid-run torn death: store is a strict prefix" `Quick
      test_write_fault_torn_prefix;
  ]

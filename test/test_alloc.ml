(* Allocation-discipline gates for the zero-copy pass:

   - arena segment laws: packed records roundtrip to boxed ones;
     ownership (release) plus borrowing (pin) gate chunk recycling;
     stale handles are poisoned; the pool actually recycles and the
     unpooled arena never does; concurrent segments don't alias;
   - the flush elevator's hierarchical bitset against a [Set] model,
     every query at every universe point;
   - pooling is invisible: the same seeded run is Marshal-identical
     with entry/chunk recycling on and off, across all three managers
     and the adversarial presets;
   - a long hybrid transaction's appends allocate a flat handful of
     minor words per record, however long it grows;
   - the spec tracker's pause check allocates nothing for objects
     untouched since the last one, and its crash judge a flat handful
     of words per unsettled object, however long the history;
   - each manager's audit at a pause allocates a few words per live
     element, not a copy of what it checks;
   - with observation off, a flush request and its completion build no
     event;
   - a whole EL crash point (crash, recover, judge) allocates as much
     at the end of a long run as of a short one;
   - a restart's store scan allocates a flat handful of words per
     segment of its image, however much of it is superseded history,
     and holds a window of the image, not the image;
   - encoding a segment's header and entries allocates nothing, and
     neither do a store append under Manual, its sync, or parsing and
     answering a protocol line; a whole served transaction allocates
     only what the manager and the engine do. *)

open El_model
module Arena = El_core.Arena
module Bitset = El_disk.Oid_bitset
module Experiment = El_harness.Experiment
module Sweep = El_check.Sweep
module Preset = El_workload.Workload_preset

(* ---- arena segment laws ---- *)

let record_arb =
  let open QCheck in
  let gen =
    Gen.(
      map
        (fun (k, tidn, oidn, version, size, ts) ->
          let tid = Ids.Tid.of_int (tidn + 1) in
          let timestamp = Time.of_us ts in
          match k with
          | 0 -> Log_record.begin_ ~tid ~size ~timestamp
          | 1 -> Log_record.commit ~tid ~size ~timestamp
          | 2 -> Log_record.abort ~tid ~size ~timestamp
          | _ ->
            Log_record.data ~tid ~oid:(Ids.Oid.of_int oidn)
              ~version:(version + 1) ~size ~timestamp)
        (tup6 (int_bound 3) (int_bound 1000) (int_bound 999) (int_bound 50)
           (int_range 1 64) (int_bound 100_000)))
  in
  QCheck.make ~print:(fun r -> Format.asprintf "%a" Log_record.pp r) gen

let prop_arena_roundtrip =
  (* Sizes up to 300 records span several chunks, so the law also
     covers chunk linking. *)
  QCheck.Test.make ~name:"arena packs and unpacks records faithfully"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 0 300) record_arb)
    (fun records ->
      let a = Arena.create () in
      let seg = Arena.alloc a in
      List.iter (Arena.push_record seg) records;
      let ok =
        Arena.length seg = List.length records
        && Arena.to_records seg = records
        && List.for_all
             (fun (i, r) -> Arena.record_at seg i = r)
             (List.mapi (fun i r -> (i, r)) records)
      in
      Arena.release seg;
      ok)

let test_arena_recycles () =
  let a = Arena.create () in
  Alcotest.(check bool) "pooled by default" true (Arena.pooled a);
  let fill seg =
    for i = 1 to 200 do
      Arena.push seg ~tag:Arena.tag_data ~tid:i ~oid:(i mod 64) ~version:i
        ~size:8 ~ts:i
    done
  in
  let seg = Arena.alloc a in
  fill seg;
  Alcotest.(check int) "length" 200 (Arena.length seg);
  let s1 = Arena.stats a in
  Alcotest.(check bool) "fresh chunks carved" true (s1.Arena.allocs > 0);
  Arena.release seg;
  Alcotest.(check bool) "stale after release" true
    (try
       ignore (Arena.length seg);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "double release rejected" true
    (try
       Arena.release seg;
       false
     with Invalid_argument _ -> true);
  let seg2 = Arena.alloc a in
  fill seg2;
  let s2 = Arena.stats a in
  Alcotest.(check int) "same shape carves no new chunks" s1.Arena.allocs
    s2.Arena.allocs;
  Alcotest.(check bool) "served from the pool" true (s2.Arena.reuses > 0);
  Arena.release seg2

let test_arena_pin_outlives_release () =
  let a = Arena.create () in
  let seg = Arena.alloc a in
  Arena.push seg ~tag:Arena.tag_commit ~tid:7 ~oid:0 ~version:0 ~size:8 ~ts:42;
  Arena.pin seg;
  Arena.release seg;
  (* released but pinned: the sealed-block reader still sees it *)
  Alcotest.(check int) "one pin" 1 (Arena.pinned seg);
  Alcotest.(check int) "still readable past release" 7 (Arena.tid seg 0);
  Alcotest.(check int) "tag intact" Arena.tag_commit (Arena.tag seg 0);
  Arena.unpin seg;
  Alcotest.(check bool) "stale after the last unpin" true
    (try
       ignore (Arena.tid seg 0);
       false
     with Invalid_argument _ -> true)

let test_arena_unpooled_never_reuses () =
  let a = Arena.create ~pooled:false () in
  for round = 1 to 5 do
    let seg = Arena.alloc a in
    for i = 1 to 100 do
      Arena.push seg ~tag:Arena.tag_data ~tid:i ~oid:i ~version:round ~size:8
        ~ts:i
    done;
    Arena.release seg
  done;
  let s = Arena.stats a in
  Alcotest.(check int) "unpooled never reuses" 0 s.Arena.reuses;
  Alcotest.(check int) "no buffers retained" 0 s.Arena.pooled_buffers

let test_arena_segments_isolated () =
  (* Interleaved pushes into eight segments, each spanning multiple
     chunks: no cross-talk, and releasing them all feeds a second
     round entirely from the pool. *)
  let a = Arena.create () in
  let n = 8 and per = 150 in
  let round () =
    let segs = Array.init n (fun _ -> Arena.alloc a) in
    for i = 0 to (n * per) - 1 do
      let s = i mod n in
      Arena.push segs.(s) ~tag:Arena.tag_data ~tid:s ~oid:(i / n) ~version:s
        ~size:8 ~ts:i
    done;
    Array.iteri
      (fun s seg ->
        Alcotest.(check int) (Printf.sprintf "seg %d length" s) per
          (Arena.length seg);
        for j = 0 to per - 1 do
          if Arena.oid seg j <> j || Arena.tid seg j <> s then
            Alcotest.failf "seg %d slot %d cross-talk" s j
        done)
      segs;
    segs
  in
  let segs = round () in
  Alcotest.(check int) "outstanding" n (Arena.stats a).Arena.outstanding;
  Array.iter Arena.release segs;
  Alcotest.(check int) "all returned" 0 (Arena.stats a).Arena.outstanding;
  let allocs_before = (Arena.stats a).Arena.allocs in
  Array.iter Arena.release (round ());
  Alcotest.(check int) "second round carves nothing" allocs_before
    (Arena.stats a).Arena.allocs

(* ---- hierarchical bitset vs a Set model ---- *)

module ISet = Set.Make (Int)

type bop = Add of int | Remove of int

let bitset_ops_arb ~universe =
  let open QCheck in
  make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Add i -> Printf.sprintf "+%d" i
             | Remove i -> Printf.sprintf "-%d" i)
           ops))
    Gen.(
      list_size (int_range 0 200)
        (map2
           (fun add i -> if add then Add i else Remove i)
           bool
           (int_bound (universe - 1))))

let prop_bitset_model =
  let universe = 200 in
  QCheck.Test.make ~name:"hierarchical bitset == Set model" ~count:300
    (bitset_ops_arb ~universe)
    (fun ops ->
      let b = Bitset.create universe in
      let model =
        List.fold_left
          (fun m op ->
            match op with
            | Add i ->
              Bitset.add b i;
              ISet.add i m
            | Remove i ->
              Bitset.remove b i;
              ISet.remove i m)
          ISet.empty ops
      in
      let elems = ref [] in
      Bitset.iter b (fun i -> elems := i :: !elems);
      List.rev !elems = ISet.elements model
      && Bitset.cardinal b = ISet.cardinal model
      && Bitset.is_empty b = ISet.is_empty model
      && Bitset.min_elt b = ISet.min_elt_opt model
      && Bitset.max_elt b = ISet.max_elt_opt model
      && List.for_all
           (fun i ->
             Bitset.mem b i = ISet.mem i model
             && Bitset.next_geq b i
                = ISet.find_first_opt (fun x -> x >= i) model
             && Bitset.prev_lt b i
                = ISet.find_last_opt (fun x -> x < i) model)
           (List.init universe Fun.id))

(* ---- pooling is invisible ---- *)

let test_pooling_identity () =
  List.iter
    (fun (preset_name, preset) ->
      List.iter
        (fun (kind_name, kind) ->
          List.iter
            (fun seed ->
              let cfg =
                Sweep.standard_config ~kind ~runtime:(Time.of_sec 10)
                  ~rate:40.0 ~seed ~preset ()
              in
              let run pooling =
                Marshal.to_string
                  (Experiment.run { cfg with Experiment.pooling })
                  []
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s seed %d: pooled == unpooled"
                   preset_name kind_name seed)
                true
                (run true = run false))
            [ 1; 2; 3 ])
        (Sweep.standard_kinds ()))
    [ ("contention", Preset.contention); ("longtail", Preset.longtail) ]

(* ---- hybrid append allocation ---- *)

(* Minor words per record of one [len]-record hybrid transaction's
   appends.  Stub accumulation is O(1) amortised (prepend + lazy
   reverse); rebuilding the stub list per record would make this grow
   with [len]. *)
let hybrid_append_words len =
  let engine = El_sim.Engine.create () in
  let num_objects = 100_000 in
  let flush =
    El_disk.Flush_array.create engine ~drives:1 ~transfer_time:(Time.of_us 1)
      ~num_objects ()
  in
  let stable = El_disk.Stable_db.create ~num_objects in
  let queue = (len * 100 / Params.block_payload) + 16 in
  let h =
    El_core.Hybrid_manager.create engine ~queue_sizes:[| queue |] ~flush
      ~stable ()
  in
  let tid = Ids.Tid.of_int 1 in
  El_core.Hybrid_manager.begin_tx h ~tid ~expected_duration:(Time.of_sec 10);
  let w0 = Gc.minor_words () in
  for i = 1 to len do
    El_core.Hybrid_manager.write_data h ~tid ~oid:(Ids.Oid.of_int i)
      ~version:i ~size:100
  done;
  (Gc.minor_words () -. w0) /. float_of_int len

let test_hybrid_append_words () =
  List.iter
    (fun len ->
      let words = hybrid_append_words len in
      if words > 4.0 then
        Alcotest.failf
          "a %d-record hybrid transaction allocates %.2f minor words per \
           record (at most 4)"
          len words)
    [ 1_000; 5_000 ]

(* ---- spec tracker pause check and crash judge ---- *)

(* A tracker driven through [n] transactions that each write, commit,
   ack and flush one object of their own, so it holds [n] acked,
   flushed objects, then [unflushed] more that are acked only.  With
   [stable], the tracker watches it and each flush installs there. *)
let tracked_history ?stable ?(unflushed = 0) n =
  let module Generator = El_workload.Generator in
  let t = El_check.Spec_tracker.create () in
  Option.iter (El_check.Spec_tracker.watch_stable t) stable;
  let stub =
    {
      Generator.begin_tx = (fun ~tid:_ ~expected_duration:_ -> ());
      write_data = (fun ~tid:_ ~oid:_ ~version:_ ~size:_ -> ());
      request_commit = (fun ~tid:_ ~on_ack -> on_ack Time.zero);
      request_abort = (fun ~tid:_ -> ());
    }
  in
  let sink = El_check.Spec_tracker.wrap t stub in
  for i = 0 to n + unflushed - 1 do
    let tid = Ids.Tid.of_int (i + 1) and oid = Ids.Oid.of_int i in
    sink.Generator.begin_tx ~tid ~expected_duration:(Time.of_ms 400);
    sink.Generator.write_data ~tid ~oid ~version:1 ~size:100;
    sink.Generator.request_commit ~tid ~on_ack:ignore;
    if i < n then begin
      Option.iter (fun db -> El_disk.Stable_db.apply db oid ~version:1) stable;
      El_check.Spec_tracker.observe_flush t oid ~version:1
    end
  done;
  t

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* A pause check pays for what was flushed since the last one: a walk
   over every object at each pause grows with the history. *)
let test_tracker_pause_words () =
  let n = 5_000 in
  let t = tracked_history n in
  El_check.Spec_tracker.check_invariant t;
  let words =
    minor_words (fun () -> El_check.Spec_tracker.check_invariant t)
  in
  if words > 64.0 then
    Alcotest.failf
      "a pause check after %d quiet objects allocates %.0f minor words (at \
       most 64)"
      n words

(* The crash judge judges the unsettled objects and the redo's, not the
   history: over [n] settled objects and [k] acked but unflushed ones,
   which the recovery's redo overlay serves, it allocates at most 15
   minor words per judged object, whatever [n].  The previous point has
   proved the history's installs. *)
let test_tracker_crash_words () =
  let module Recovery = El_recovery.Recovery in
  let k = 100 in
  List.iter
    (fun n ->
      let stable = El_disk.Stable_db.create ~num_objects:(n + k) in
      let t = tracked_history ~stable ~unflushed:k n in
      let point () =
        let image =
          { Recovery.blocks = []; stable = El_disk.Stable_db.overlay stable }
        in
        let recovered = El_disk.Stable_db.overlay image.Recovery.stable in
        for i = n to n + k - 1 do
          El_disk.Stable_db.apply recovered (Ids.Oid.of_int i) ~version:1
        done;
        ( image,
          {
            Recovery.recovered;
            committed_tids = [];
            records_scanned = 0;
            redo_applied = k;
            redo_skipped = 0;
            torn_blocks = 0;
            torn_records = 0;
          } )
      in
      let judge (image, r) =
        let v = El_check.Spec_tracker.judge t image r in
        if not (El_check.Spec_tracker.ok v) then
          Alcotest.fail "a clean crash point failed its judgement"
      in
      judge (point ());
      let p = point () in
      let words = minor_words (fun () -> judge p) /. float_of_int k in
      if words > 15.0 then
        Alcotest.failf
          "a crash judgement over %d settled and %d unsettled objects \
           allocates %.1f minor words per unsettled object (at most 15)"
          n k words)
    [ 5_000; 50_000 ]

(* A crash point costs the log, not the history: the minor words of
   the last crash point of a stride-20 sweep of the uniform EL cell
   (crash image, recovery and judgement, after the pause's invariant
   check) at 320 s stay within 1.2x of those at 20 s: a copy of the
   stable database, or a walk over every acked object, would grow with
   the history. *)
let test_crash_point_words () =
  let module Spec_tracker = El_check.Spec_tracker in
  let module Recovery = El_recovery.Recovery in
  let last_point_words runtime =
    let kind = List.assoc "el" (Sweep.standard_kinds ()) in
    let cfg =
      Sweep.standard_config ~kind ~runtime:(Time.of_sec runtime) ~seed:42
        ~preset:Preset.uniform ()
    in
    let run = Tracked.prepare cfg in
    let point () =
      let image = Tracked.crash run in
      if not (Tracked.passes run image (Recovery.recover image)) then
        Alcotest.fail "a crash point failed its judgement"
    in
    let rec loop () =
      let n =
        El_sim.Engine.run_steps run.Tracked.engine
          ~until:cfg.Experiment.runtime ~max_steps:20
      in
      Spec_tracker.check_invariant run.Tracked.tracker;
      let words = minor_words point in
      if n = 20 then loop () else words
    in
    let words = loop () in
    El_shard.Shard_group.dispose run.Tracked.group;
    words
  in
  let short = last_point_words 20 and long = last_point_words 320 in
  if long > 1.2 *. short then
    Alcotest.failf
      "the last crash point allocates %.0f minor words at 320 s, %.0f at \
       20 s (at most 1.2x)"
      long short

(* A pause costs its live state: over the uniform, storm and longtail
   presets at seed 42, each manager's audit at every stride-20 pause
   allocates at most 4 minor words per live element, summed over the
   run — per live cell for EL, per live transaction for FW and the
   hybrid.  The audits walk their structures in place and allocate a
   few closures per pause (0.2 to 1.1 words per element); a copied
   cell list, a reversed block or a rebuilt anchored list per element
   cost 50 to 107. *)
let test_audit_words () =
  let module Auditor = El_check.Auditor in
  let live_elements = function
    | Experiment.El_log m ->
      El_core.Ledger.live_cells (El_core.El_manager.ledger m)
    | Experiment.Fw_log m ->
      (El_core.Fw_manager.stats m).El_core.Fw_manager.live_transactions
    | Experiment.Hybrid_log m ->
      (El_core.Hybrid_manager.stats m).El_core.Hybrid_manager.live_transactions
  in
  List.iter
    (fun (kname, kind) ->
      List.iter
        (fun (pname, preset) ->
          let cfg =
            Sweep.standard_config ~kind ~runtime:(Time.of_sec 20) ~seed:42
              ~preset ()
          in
          let live = Experiment.prepare cfg in
          let words = ref 0.0 and elements = ref 0 in
          let rec loop () =
            match
              El_sim.Engine.run_steps live.Experiment.engine
                ~until:cfg.Experiment.runtime ~max_steps:20
            with
            | exception El_core.El_manager.Log_overloaded _ -> ()
            | n ->
              let m = live.Experiment.manager in
              words := !words +. minor_words (fun () -> Auditor.audit_manager m);
              elements := !elements + live_elements m;
              if n = 20 then loop ()
          in
          loop ();
          let per = !words /. float_of_int (max 1 !elements) in
          if per > 4.0 then
            Alcotest.failf
              "%s/%s: the audits allocate %.1f minor words per live element \
               (%.0f over %d; at most 4)"
              pname kname per !words !elements)
        [
          ("uniform", Preset.uniform);
          ("storm", Preset.storm);
          ("longtail", Preset.longtail);
        ])
    (Sweep.standard_kinds ())

(* A serve image of [txs] transactions of 4 writes each, written
   through [Serve.exec] under group fsync. *)
let with_serve_image ~txs f =
  let module Serve = El_serve.Serve in
  let image = Filename.temp_file "el_alloc_serve" ".img" in
  Fun.protect
    ~finally:(fun () -> Sys.remove image)
    (fun () ->
      let t =
        Serve.start
          {
            (Serve.default_config ~image) with
            Serve.fresh = true;
            group_fsync = true;
          }
      in
      let rng = Random.State.make [| 1; 1 |] in
      for tid = 1 to txs do
        let exec fmt = Printf.ksprintf (fun l -> ignore (Serve.exec t l)) fmt in
        exec "BEGIN %d" tid;
        for _ = 1 to 4 do
          exec "WRITE %d %d %d 100" tid (Random.State.int rng 100_000) tid
        done;
        exec "COMMIT %d" tid
      done;
      Serve.close t;
      f image)

(* A restart verifies every checksum of its image but decodes only what
   survives: a scan of a serve-filled image, mostly superseded log
   segments and one-entry stable segments, allocates a flat handful of
   minor words per segment, not a record and a list cell per entry. *)
let test_scan_words () =
  let module Log_store = El_store.Log_store in
  with_serve_image ~txs:2_000 (fun image ->
      let b = El_store.Backend.file ~path:image in
      Fun.protect
        ~finally:(fun () -> El_store.Backend.close b)
        (fun () ->
          let scan = ref None in
          let words =
            minor_words (fun () -> scan := Some (Log_store.scan b))
          in
          let s = Option.get !scan in
          let segments = s.Log_store.s_segments in
          if segments < 8_000 then
            Alcotest.failf "the image holds only %d segments" segments;
          let per = words /. float_of_int segments in
          if per > 16.0 then
            Alcotest.failf
              "a scan of %d segments allocates %.1f minor words per segment \
               (at most 16)"
              segments per))

(* The segment writer seals each struct in a reused scratch buffer:
   its checksum is hashed in place and never boxed, so encoding a
   header and an entry allocates nothing. *)
let test_encode_words () =
  let module Codec = El_store.Codec in
  let b = Bytes.create (Codec.header_bytes + Codec.entry_bytes) in
  let record =
    Log_record.data ~tid:(Ids.Tid.of_int 5) ~oid:(Ids.Oid.of_int 9)
      ~version:2 ~size:100 ~timestamp:(Time.of_ms 3)
  in
  let words =
    minor_words (fun () ->
        for _ = 1 to 1_000 do
          Codec.header_into b ~pos:0 ~epoch:1 ~gen:0 ~slot:3 ~seq:7 ~count:1;
          Codec.record_into ~corrupt:false b ~pos:Codec.header_bytes record
        done)
  in
  if words > 0.0 then
    Alcotest.failf
      "1000 header and entry encodes allocate %.0f minor words (want 0)"
      words

(* The segment writer encodes straight from the records into its
   reused staging buffer, and the backend counts its ops without
   building one: under Manual, appending a 4-record block and syncing
   it, and appending a stable install, allocate nothing. *)
let test_store_append_words () =
  let module Backend = El_store.Backend in
  let module Log_store = El_store.Log_store in
  let t = Log_store.create ~sync_mode:Log_store.Manual (Backend.mem ()) in
  let records =
    List.init 4 (fun i ->
        Log_record.data ~tid:(Ids.Tid.of_int 7) ~oid:(Ids.Oid.of_int i)
          ~version:3 ~size:100 ~timestamp:(Time.of_ms 2))
  in
  let oid = Ids.Oid.of_int 11 in
  let round () =
    for i = 1 to 1_000 do
      Log_store.append_block t ~gen:0 ~slot:(i land 15) records;
      Log_store.sync t
    done;
    for v = 1 to 1_000 do
      Log_store.append_stable t ~oid ~version:v
    done;
    Log_store.sync t
  in
  round ();
  let words = minor_words round in
  if words > 0.0 then
    Alcotest.failf
      "1000 4-record block appends with a sync each, then 1000 stable \
       installs and a sync, allocate %.0f minor words (want 0)"
      words

(* The protocol layer reads a command where it lies and writes its
   reply digit by digit: parsing BEGIN, WRITE and COMMIT lines and
   answering them, into a buffer or a channel, allocates nothing. *)
let test_protocol_words () =
  let module P = El_serve.Protocol in
  let lines =
    Array.map Bytes.of_string
      [| "BEGIN 123456"; "write 123456  98765 123456 100\r"; "COMMIT 123456" |]
  in
  let l = P.line () in
  let buf = Buffer.create 256 in
  let oc = open_out_bin Filename.null in
  let answer o =
    for i = 0 to Array.length lines - 1 do
      let b = lines.(i) in
      (match P.parse l b ~start:0 ~stop:(Bytes.length b) with
      | P.Begin ->
        P.put o "ok begun ";
        P.put_int o (P.arg l 1)
      | P.Write ->
        P.put o "ok written ";
        P.put_int o (P.arg l 1);
        P.put o " ";
        P.put_int o (P.arg l 2);
        P.put o " ";
        P.put_int o (P.arg l 3);
        ignore (P.arg l 4)
      | P.Commit ->
        P.put o "ok committed ";
        P.put_int o (P.arg l 1)
      | _ -> Alcotest.fail "a line misparsed");
      P.put o "\n"
    done
  in
  let to_buf = P.Buf buf and to_chan = P.Chan oc in
  answer to_buf;
  Alcotest.(check string) "the replies"
    "ok begun 123456\nok written 123456 98765 123456\nok committed 123456\n"
    (Buffer.contents buf);
  let words =
    minor_words (fun () ->
        for _ = 1 to 1_000 do
          Buffer.clear buf;
          answer to_buf;
          answer to_chan
        done)
  in
  close_out oc;
  if words > 0.0 then
    Alcotest.failf
      "parsing and answering 1000 BEGIN/WRITE/COMMIT triples allocates %.0f \
       minor words (want 0)"
      words

(* A transaction through [serve_channel] on a filled image: the
   protocol layer and the store add nothing, so what is left is the
   manager and the engine — 983 words, against 2,152 when each line was
   split into strings and each reply and record boxed. *)
let test_serve_tx_words () =
  let module Serve = El_serve.Serve in
  with_serve_image ~txs:2_000 (fun image ->
      let input = Filename.temp_file "el_alloc_serve" ".txt" in
      Fun.protect
        ~finally:(fun () -> Sys.remove input)
        (fun () ->
          let txs = 1_000 in
          let rng = Random.State.make [| 2; 2 |] in
          Out_channel.with_open_bin input (fun oc ->
              for tid = 2_001 to 2_000 + txs do
                Printf.fprintf oc "BEGIN %d\n" tid;
                for _ = 1 to 4 do
                  Printf.fprintf oc "WRITE %d %d %d 100\n" tid
                    (Random.State.int rng 100_000) tid
                done;
                Printf.fprintf oc "COMMIT %d\n" tid
              done);
          let t =
            Serve.start
              { (Serve.default_config ~image) with Serve.group_fsync = true }
          in
          let oc = open_out_bin Filename.null in
          let words =
            Fun.protect
              ~finally:(fun () ->
                close_out oc;
                Serve.close t)
              (fun () ->
                In_channel.with_open_bin input (fun ic ->
                    minor_words (fun () -> Serve.serve_channel t ic oc)))
          in
          let per = words /. float_of_int txs in
          if per > 1_100.0 then
            Alcotest.failf
              "a served transaction allocates %.0f minor words (at most 1100)"
              per))

(* A restart scan holds a window of the image, not the image: its major
   words stay flat when the superseded history grows tenfold over the
   same live set (16 log slots and 50 stable objects). *)
let test_scan_major_words () =
  let module Backend = El_store.Backend in
  let module Log_store = El_store.Log_store in
  let major_words ~rounds =
    let image = Filename.temp_file "el_alloc_history" ".img" in
    Fun.protect
      ~finally:(fun () -> Sys.remove image)
      (fun () ->
        let b = Backend.file ~path:image in
        Fun.protect
          ~finally:(fun () -> Backend.close b)
          (fun () ->
            let t = Log_store.create ~sync_mode:Log_store.Manual b in
            for r = 1 to rounds do
              for slot = 0 to 15 do
                Log_store.append_block t ~gen:(slot land 1) ~slot
                  (List.init 4 (fun i ->
                       Log_record.data
                         ~tid:(Ids.Tid.of_int ((r * 16) + slot))
                         ~oid:(Ids.Oid.of_int ((slot * 4) + i))
                         ~version:r ~size:100 ~timestamp:(Time.of_ms r)))
              done;
              for oid = 0 to 49 do
                Log_store.append_stable t ~oid:(Ids.Oid.of_int oid) ~version:r
              done
            done;
            Log_store.sync t;
            Gc.full_major ();
            let _, _, m0 = Gc.counters () in
            let s = Log_store.scan b in
            let _, _, m1 = Gc.counters () in
            if List.length s.Log_store.s_blocks <> 16 then
              Alcotest.fail "the live set is 16 blocks";
            m1 -. m0))
  in
  let short = major_words ~rounds:20 and long = major_words ~rounds:200 in
  if long > 1.2 *. short then
    Alcotest.failf
      "a scan takes %.0f major words over 200 rounds of history, %.0f over \
       20 (at most 1.2x)"
      long short

(* A flush request and its completion with observation off: each emit
   site matches [obs] before it builds its event, and the completion
   walks its observers without building a closure, so the 81 words are
   the request's own (its table entry, its completion event and
   closure).  The three events it would build — request, start and
   done — cost 3, 3 and 4 words (96 when they were built for nobody),
   and the observer walk's closure 5 (86 with it), so the bound admits
   none of them. *)
let test_flush_event_words () =
  let module F = El_disk.Flush_array in
  let engine = El_sim.Engine.create ~seed:1 () in
  let f =
    F.create engine ~drives:1 ~transfer_time:(Time.of_ms 1)
      ~num_objects:1_000 ()
  in
  F.set_on_flush f (fun _ ~version:_ -> ());
  let round () =
    for i = 0 to 999 do
      F.request f (Ids.Oid.of_int i) ~version:1;
      El_sim.Engine.run_all engine
    done
  in
  round ();
  let per = minor_words round /. 1_000.0 in
  if per > 83.0 then
    Alcotest.failf
      "a flush request and its completion allocate %.1f minor words with \
       observation off (at most 83: no event built)"
      per

let suite =
  [
    QCheck_alcotest.to_alcotest prop_arena_roundtrip;
    Alcotest.test_case "arena recycles through the pool" `Quick
      test_arena_recycles;
    Alcotest.test_case "pin keeps a released segment readable" `Quick
      test_arena_pin_outlives_release;
    Alcotest.test_case "unpooled arena never reuses" `Quick
      test_arena_unpooled_never_reuses;
    Alcotest.test_case "segments don't alias; pool feeds round two" `Quick
      test_arena_segments_isolated;
    QCheck_alcotest.to_alcotest prop_bitset_model;
    Alcotest.test_case "pooled == unpooled (3 seeds x 3 kinds x 2 presets)"
      `Slow test_pooling_identity;
    Alcotest.test_case "hybrid append: at most 4 minor words per record"
      `Quick test_hybrid_append_words;
    Alcotest.test_case "tracker pause check: at most 64 minor words" `Quick
      test_tracker_pause_words;
    Alcotest.test_case "tracker crash check: at most 15 words per object"
      `Quick test_tracker_crash_words;
    Alcotest.test_case "crash point words: 320 s within 1.2x of 20 s" `Slow
      test_crash_point_words;
    Alcotest.test_case "restart scan: at most 16 minor words per segment"
      `Quick test_scan_words;
    Alcotest.test_case "encoding a header and an entry allocates 0 words"
      `Quick test_encode_words;
    Alcotest.test_case "store appends under Manual allocate 0 words" `Quick
      test_store_append_words;
    Alcotest.test_case "protocol: parse and answer allocate 0 words" `Quick
      test_protocol_words;
    Alcotest.test_case "served transaction: at most 1100 minor words" `Quick
      test_serve_tx_words;
    Alcotest.test_case "restart scan: major words flat over 10x history"
      `Quick test_scan_major_words;
    Alcotest.test_case "flush request + completion: no event words off"
      `Quick test_flush_event_words;
    Alcotest.test_case "audit: at most 4 minor words per live element"
      `Quick test_audit_words;
  ]

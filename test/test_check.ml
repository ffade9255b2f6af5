(* The model-checking subsystem's own tests: the crash-point sweep
   over every manager kind, determinism of the sweep itself, the
   differential oracle under randomised workloads, and negative tests
   proving the crash judge actually catches corruption. *)

open El_model
module Engine = El_sim.Engine
module Experiment = El_harness.Experiment
module Recovery = El_recovery.Recovery
module Sweep = El_check.Sweep
module Auditor = El_check.Auditor
module Spec_tracker = El_check.Spec_tracker

let pp_failures fs =
  String.concat "; "
    (List.map (fun (at, msg) -> Printf.sprintf "[event %d] %s" at msg) fs)

let check_clean ?(min_points = 100) (o : Sweep.outcome) =
  let label fmt = Printf.sprintf ("%s seed %d: " ^^ fmt) o.Sweep.kind o.Sweep.seed in
  Alcotest.(check string)
    (label "no audit failures")
    "" (pp_failures o.Sweep.failures);
  Alcotest.(check bool) (label "not overloaded") false o.Sweep.overloaded;
  Alcotest.(check bool)
    (label "at least %d pause points (got %d)" min_points o.Sweep.points)
    true
    (o.Sweep.points >= min_points);
  Alcotest.(check bool)
    (label "made progress (%d committed)" o.Sweep.committed)
    true (o.Sweep.committed > 0)

(* The acceptance bar: >= 3 seeds x >= 100 crash points per manager
   kind, zero audit failures.  Stride 25 over a 20 s / 40 TPS run
   dispatches well over 3000 events, so every kind clears 100 pauses. *)
let sweep_kind name () =
  let kind = List.assoc name (Sweep.standard_kinds ()) in
  List.iter
    (fun seed ->
      let cfg = Sweep.standard_config ~kind ~seed () in
      let o = Sweep.run ~stride:25 cfg in
      check_clean o;
      if name = "el" then
        Alcotest.(check bool)
          (Printf.sprintf "el seed %d: recovered at every pause" seed)
          true
          (o.Sweep.recoveries >= 100 && o.Sweep.max_records_scanned > 0))
    [ 1; 42; 1234 ]

let test_sweep_el () = sweep_kind "el" ()
let test_sweep_fw () = sweep_kind "fw" ()
let test_sweep_hybrid () = sweep_kind "hybrid" ()

let test_sweep_deterministic () =
  let kind = List.assoc "el" (Sweep.standard_kinds ()) in
  let once () = Sweep.run ~stride:50 (Sweep.standard_config ~kind ~seed:7 ()) in
  let a = once () and b = once () in
  Alcotest.(check (list (pair int string))) "same failures" a.Sweep.failures
    b.Sweep.failures;
  Alcotest.(check int) "same events" a.Sweep.events b.Sweep.events;
  Alcotest.(check int) "same pauses" a.Sweep.points b.Sweep.points;
  Alcotest.(check int) "same commits" a.Sweep.committed b.Sweep.committed;
  Alcotest.(check int) "same max scan" a.Sweep.max_records_scanned
    b.Sweep.max_records_scanned

(* Aborts and kills exercise the disposal cascades; recirculation off
   plus a tight log forces kills.  The auditor must stay silent. *)
let test_sweep_aborts_and_kills () =
  let policy =
    {
      (El_core.Policy.default ~generation_sizes:[| 6; 6 |]) with
      El_core.Policy.recirculate = false;
    }
  in
  let cfg =
    Sweep.standard_config
      ~kind:(Experiment.Ephemeral policy)
      ~seed:3 ~abort_fraction:0.2 ()
  in
  let o = Sweep.run ~stride:40 cfg in
  check_clean ~min_points:50 o

(* The DESIGN §11 regression: a 45 ms flush transfer under 40 TPS
   saturates the two database drives (44 flushes/s of capacity against
   ~88 committed writes/s), so records reach generation heads with
   their flushes still in flight and the Force_flush policy forces one
   at every head.  Sweeping crash points through such a run crashes
   mid-forced-flush over and over; every recovered image must still
   hold every acked commit, and the spec oracle replays the whole run.
   Before forced flushes pinned their records until completion this
   exact configuration lost acked data — the reason the old tests kept
   flush_transfer at 20 ms. *)
let scarce_45ms_config ?(eager = false) ~seed () =
  let policy =
    {
      (El_core.Policy.default ~generation_sizes:[| 20; 11 |]) with
      El_core.Policy.unflushed = El_core.Policy.Force_flush;
      unsafe_eager_dispose = eager;
    }
  in
  {
    (Sweep.standard_config
       ~kind:(Experiment.Ephemeral policy)
       ~runtime:(Time.of_sec 10) ~seed ())
    with
    Experiment.flush_transfer = Time.of_ms 45;
  }

let test_sweep_mid_forced_flush () =
  let cfg = scarce_45ms_config ~seed:7 () in
  let r = Experiment.run cfg in
  Alcotest.(check bool)
    (Printf.sprintf "forced flushes exercised (%d)" r.Experiment.forced_flushes)
    true
    (r.Experiment.forced_flushes > 0);
  let o = Sweep.run ~stride:25 ~spec:true cfg in
  check_clean ~min_points:50 o;
  Alcotest.(check bool) "recovered at every pause" true
    (o.Sweep.recoveries >= 50);
  Alcotest.(check bool)
    (Printf.sprintf "spec checks performed (%d)" o.Sweep.spec_checks)
    true
    (o.Sweep.spec_checks > o.Sweep.points)

(* The acceptance sweep: all three manager kinds at flush_transfer =
   45 ms, each against the spec oracle.  The arrival rate is scaled to
   16 TPS so the halved flush capacity stays sufficient (the managers
   must be feasible, not saturated, for FW and hybrid to finish
   clean). *)
let test_sweep_45ms_all_kinds () =
  List.iter
    (fun (name, kind) ->
      let cfg =
        {
          (Sweep.standard_config ~kind ~rate:16.0 ~seed:42 ()) with
          Experiment.flush_transfer = Time.of_ms 45;
        }
      in
      let o = Sweep.run ~stride:25 ~spec:true cfg in
      check_clean ~min_points:50 o;
      Alcotest.(check bool)
        (Printf.sprintf "%s: spec checks performed" name)
        true
        (o.Sweep.spec_checks > 0))
    (Sweep.standard_kinds ())

(* Negative: re-introduce the early dispose (the pre-fix behaviour,
   kept behind Policy.unsafe_eager_dispose) and the same sweep must
   diverge from the spec — a crash landing inside a forced flush's
   transfer window finds the record gone from the log and not yet in
   the stable database.  This pins that the crash judge actually has
   teeth: the hazard cannot be silently re-introduced.  The flags gate
   checks, not the judge: with the oracle and the spec off, every crash
   point is judged all the same and finds the same losses, in the one
   text.  It also pins the sweep's one-shard contract — a solo config
   is the 1-shard group: its failures name no shard and each crash
   point costs one recovery, with no extra settled-state recovery —
   while at two shards every failure names its shard. *)
let test_eager_dispose_caught_by_spec () =
  let cfg = scarce_45ms_config ~eager:true ~seed:7 () in
  let one_text (_, msg) =
    String.starts_with
      ~prefix:"crash recovery diverged: recovery audit: FAILED (" msg
  in
  let solo what (o : Sweep.outcome) =
    Alcotest.(check bool) (what ^ ": crash recovery diverges") true
      (o.Sweep.failures <> []);
    Alcotest.(check bool)
      (what ^ ": every failure is the judge's, unlabelled")
      true
      (List.for_all one_text o.Sweep.failures);
    Alcotest.(check int) (what ^ ": one recovery per crash point")
      o.Sweep.points o.Sweep.recoveries
  in
  solo "spec" (Sweep.run ~stride:25 ~spec:true cfg);
  let bare = Sweep.run ~stride:20 ~recover:true ~oracle:false ~spec:false cfg in
  solo "no oracle, no spec" bare;
  Alcotest.(check (pair int int))
    "no oracle, no spec: 40 divergences, the first at event 1160" (40, 1160)
    (List.length bare.Sweep.failures, fst (List.hd bare.Sweep.failures));
  Alcotest.(check (list (pair int string)))
    "oracle and spec on: the same findings" bare.Sweep.failures
    (Sweep.run ~stride:20 ~spec:true cfg).Sweep.failures;
  let o2 = Sweep.run ~stride:25 ~spec:true { cfg with Experiment.shards = 2 } in
  Alcotest.(check bool) "2 shards: crash recovery diverges" true
    (List.exists
       (fun (_, msg) -> Astring_like.contains msg "crash recovery diverged")
       o2.Sweep.failures);
  Alcotest.(check bool) "2 shards: every failure names its shard" true
    (List.for_all
       (fun (_, msg) -> String.starts_with ~prefix:"shard " msg)
       o2.Sweep.failures)

(* Differential oracle under randomised run parameters: seeds, abort
   fractions, arrival burstiness, and both flushing manager kinds. *)
let prop_sweep_random =
  QCheck.Test.make ~name:"random sweeps stay clean (differential oracle)"
    ~count:8
    QCheck.(
      quad (int_range 0 9_999)
        (oneofl [ 0.0; 0.1; 0.3 ])
        bool
        (oneofl [ "el"; "hybrid"; "fw" ]))
    (fun (seed, abort_fraction, poisson, kind_name) ->
      let kind = List.assoc kind_name (Sweep.standard_kinds ()) in
      let arrival_process =
        if poisson then El_workload.Generator.Poisson
        else El_workload.Generator.Deterministic
      in
      let cfg =
        Sweep.standard_config ~kind ~runtime:(Time.of_sec 8) ~seed
          ~abort_fraction ~arrival_process ()
      in
      let o = Sweep.run ~stride:200 cfg in
      if o.Sweep.failures <> [] then
        QCheck.Test.fail_reportf "%s seed %d: %s" kind_name seed
          (pp_failures o.Sweep.failures);
      not o.Sweep.overloaded)

(* Negative test: the crash judge must catch a semantically corrupted
   image.  We take a genuine crash image and bump the version of one
   durably committed data record, leaving its block whole — the record
   reads back intact, the content lies — and expect the judgement to
   fail: the recovered database now holds a version nobody committed.
   This pins down that the judge catches what the checksum layer
   cannot.  Targets come from the tracker's whole acked state: its
   unsettled versions name only the ones the stable database does not
   serve yet.  The second target is settled — installed in the stable
   database while its record still sits in a durable block — so the
   unsettled set does not name it, and only the judge's pass over the
   redo's objects can catch it. *)
let test_corrupted_image_caught () =
  let kind = List.assoc "el" (Sweep.standard_kinds ()) in
  let cfg = Sweep.standard_config ~kind ~seed:42 () in
  let run = Tracked.prepare cfg in
  Tracked.run_until run (Time.of_sec 15);
  let image = Tracked.crash run in
  let sane = Recovery.recover image in
  Alcotest.(check bool) "pristine image audits ok" true
    (Tracked.passes run image sane);
  let committed = Tracked.committed run in
  let unsettled = El_check.Spec_tracker.unsettled run.Tracked.tracker in
  let payloads =
    List.concat_map
      (fun (b : Recovery.block) -> b.Recovery.records)
      image.Recovery.blocks
  in
  (* Find a durable data record carrying the newest committed version
     of its object, written by a transaction whose COMMIT record is
     itself still in the scan (a record whose commit evidence has been
     overwritten is ignored by redo, so corrupting it proves nothing).
     That is the corruption target. *)
  let scanned_commits = Hashtbl.create 256 in
  List.iter
    (fun (r : Log_record.t) ->
      match r.Log_record.kind with
      | Log_record.Commit ->
        Hashtbl.replace scanned_commits (Ids.Tid.to_int r.Log_record.tid) ()
      | _ -> ())
    payloads;
  let is_target (r : Log_record.t) =
    match r.Log_record.kind with
    | Log_record.Data { oid; version } ->
      Hashtbl.mem scanned_commits (Ids.Tid.to_int r.Log_record.tid)
      && List.exists
           (fun (o, v) -> Ids.Oid.equal o oid && v = version)
           committed
    | _ -> false
  in
  let corrupted_verdict victim =
    let corrupt (r : Log_record.t) =
      if r == victim then
        match victim.Log_record.kind with
        | Log_record.Data { oid; version } ->
          {
            victim with
            Log_record.kind = Log_record.Data { oid; version = version + 1000 };
          }
        | _ -> assert false
      else r
    in
    let corrupted =
      {
        image with
        Recovery.blocks =
          List.map
            (fun (b : Recovery.block) ->
              { b with Recovery.records = List.map corrupt b.Recovery.records })
            image.Recovery.blocks;
      }
    in
    Tracked.judge run corrupted (Recovery.recover corrupted)
  in
  (match List.find_opt is_target payloads with
  | None -> Alcotest.fail "no committed data record in a 15 s image"
  | Some victim ->
    let verdict = corrupted_verdict victim in
    Alcotest.(check bool) "corruption detected" false (Spec_tracker.ok verdict);
    Alcotest.(check bool) "spurious version reported" true
      (verdict.Spec_tracker.spurious <> []));
  let settled (r : Log_record.t) =
    is_target r
    &&
    match r.Log_record.kind with
    | Log_record.Data { oid; version } ->
      El_disk.Stable_db.version image.Recovery.stable oid = Some version
      && not (List.mem_assoc oid unsettled)
    | _ -> false
  in
  match List.find_opt settled payloads with
  | None -> Alcotest.fail "no settled object with a durable record at 15 s"
  | Some victim ->
    let oid, version =
      match victim.Log_record.kind with
      | Log_record.Data { oid; version } -> (Ids.Oid.to_int oid, version)
      | _ -> assert false
    in
    let verdict = corrupted_verdict victim in
    let pairs = List.map (fun (o, v) -> (Ids.Oid.to_int o, v)) in
    Alcotest.(check bool) "settled corruption detected" false
      (Spec_tracker.ok verdict);
    Alcotest.(check (list (pair int int)))
      "the settled object's corrupt version is spurious"
      [ (oid, version + 1000) ]
      (pairs verdict.Spec_tracker.spurious);
    Alcotest.(check (list (pair int int)))
      "its committed version is missing"
      [ (oid, version) ]
      (pairs verdict.Spec_tracker.missing)

(* Torn-checksum negative: tear every durable block at its first copy
   of a committed-but-unflushed version, as a bad checksum there would.
   Those records (and everything behind them in their blocks) are
   lost, recovery counts the torn tails, and the judge reports the
   version missing — durability violations cannot hide behind the
   checksum layer.  The flush array is starved so such a version
   exists: once a version is flushed, the stable database alone can
   serve it and the log copies are expendable.  The 30 ms transfer
   does the starving (2 drives cannot keep up with 40 TPS); the
   generations are sized so the pinned backlog stays in the log —
   before forced flushes pinned their records, this config silently
   lost acked data, which is why the transfer used to be capped at
   20 ms. *)
let test_torn_checksum_caught () =
  let kind =
    Experiment.Ephemeral (El_core.Policy.default ~generation_sizes:[| 12; 24 |])
  in
  let cfg =
    {
      (Sweep.standard_config ~kind ~seed:11 ()) with
      Experiment.flush_transfer = Time.of_ms 30;
    }
  in
  let run = Tracked.prepare cfg in
  Tracked.run_until run (Time.of_sec 15);
  let image = Tracked.crash run in
  Alcotest.(check bool) "pristine image audits ok" true
    (Tracked.passes run image (Recovery.recover image));
  let payloads =
    List.concat_map
      (fun (b : Recovery.block) -> b.Recovery.records)
      image.Recovery.blocks
  in
  let has_copy (oid, v) (r : Log_record.t) =
    match r.Log_record.kind with
    | Log_record.Data { oid = o; version = w } -> Ids.Oid.equal o oid && w = v
    | _ -> false
  in
  let target =
    List.find_opt
      (fun (oid, v) ->
        El_disk.Stable_db.version image.Recovery.stable oid <> Some v
        && List.exists (has_copy (oid, v)) payloads)
      (El_check.Spec_tracker.unsettled run.Tracked.tracker)
  in
  match target with
  | None -> Alcotest.fail "no unflushed committed version in a 15 s image"
  | Some (oid, version) ->
    let hits = ref 0 in
    let tear (b : Recovery.block) =
      let rec cut kept = function
        | [] -> b
        | r :: rest when has_copy (oid, version) r ->
          incr hits;
          {
            Recovery.records = List.rev kept;
            torn = b.Recovery.torn + 1 + List.length rest;
          }
        | r :: rest -> cut (r :: kept) rest
      in
      cut [] b.Recovery.records
    in
    let corrupted =
      { image with Recovery.blocks = List.map tear image.Recovery.blocks }
    in
    Alcotest.(check bool) "found a durable copy to corrupt" true (!hits > 0);
    let r = Recovery.recover corrupted in
    Alcotest.(check bool) "discarded tails counted" true
      (r.Recovery.torn_blocks > 0 && r.Recovery.torn_records > 0);
    let verdict = Tracked.judge run corrupted r in
    Alcotest.(check bool) "lost durability detected" false
      (Spec_tracker.ok verdict);
    Alcotest.(check bool) "version reported missing" true
      (verdict.Spec_tracker.missing <> [])

(* The auditor also runs standalone against a healthy mid-flight
   manager of each kind. *)
let test_auditor_standalone () =
  List.iter
    (fun (_, kind) ->
      let cfg = Sweep.standard_config ~kind ~seed:5 () in
      let live = Experiment.prepare cfg in
      Engine.run live.Experiment.engine ~until:(Time.of_sec 10);
      Auditor.audit_manager live.Experiment.manager)
    (Sweep.standard_kinds ())

(* The stable database may lag the acked state but never lead it.  The
   tracker judges every install into it as it lands, whoever makes it:
   a version past an acked one, or any version of an object never
   acked, must fail the next pause's check. *)
let test_auditor_catches_stable_ahead () =
  let cfg =
    Sweep.standard_config ~kind:(List.assoc "el" (Sweep.standard_kinds ())) ()
  in
  let caught what corrupt =
    let run = Tracked.prepare cfg in
    Tracked.run_until run (Time.of_sec 10);
    let tracker = run.Tracked.tracker in
    El_check.Spec_tracker.check_installs tracker;
    let committed = Tracked.committed run in
    if committed = [] then Alcotest.fail "nothing committed in 10 s";
    corrupt (El_core.El_manager.stable run.Tracked.manager) committed;
    match El_check.Spec_tracker.check_installs tracker with
    | () -> Alcotest.failf "%s: the check passed" what
    | exception Auditor.Audit_failure msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S mentions stable holds" what msg)
        true
        (Astring_like.contains msg "stable holds")
  in
  caught "version ahead" (fun stable committed ->
      let oid, version = List.hd committed in
      El_disk.Stable_db.apply stable oid ~version:(version + 1));
  caught "never committed" (fun stable committed ->
      let rec fresh i =
        let oid = Ids.Oid.of_int i in
        if List.mem_assoc oid committed then fresh (i + 1) else oid
      in
      El_disk.Stable_db.apply stable (fresh 0) ~version:1)

(* The tracker's settled comparisons have teeth: one tracker driven
   by hand through a stub sink that keeps each commit's [on_ack], then
   held against stable databases that diverge from what it saw
   acked. *)
let test_tracker_settled_checks () =
  let module Spec_tracker = El_check.Spec_tracker in
  let module Generator = El_workload.Generator in
  let module Stable_db = El_disk.Stable_db in
  let acks = ref [] in
  let stub =
    {
      Generator.begin_tx = (fun ~tid:_ ~expected_duration:_ -> ());
      write_data = (fun ~tid:_ ~oid:_ ~version:_ ~size:_ -> ());
      request_commit = (fun ~tid:_ ~on_ack -> acks := on_ack :: !acks);
      request_abort = (fun ~tid:_ -> ());
    }
  in
  let t = Spec_tracker.create () in
  let sink = Spec_tracker.wrap t stub in
  let tid = Ids.Tid.of_int 1 in
  sink.Generator.begin_tx ~tid ~expected_duration:(Time.of_ms 400);
  sink.Generator.write_data ~tid ~oid:(Ids.Oid.of_int 5) ~version:1 ~size:100;
  sink.Generator.request_commit ~tid ~on_ack:ignore;
  let on_ack =
    match !acks with
    | [ f ] -> f
    | _ -> Alcotest.fail "one commit request expected"
  in
  on_ack Time.zero;
  Alcotest.(check int) "one ack counted" 1 (Spec_tracker.committed_count t);
  Alcotest.(check (list string)) "a legal run" [] (Spec_tracker.violations t);
  on_ack Time.zero;
  Alcotest.(check int) "a second ack is not counted" 1
    (Spec_tracker.committed_count t);
  Alcotest.(check int) "a second ack is a violation" 1
    (List.length (Spec_tracker.violations t));
  let db pairs =
    let versions = Ids.Oid.Table.create 4 in
    List.iter
      (fun (o, v) -> Ids.Oid.Table.replace versions (Ids.Oid.of_int o) v)
      pairs;
    Stable_db.of_table ~num_objects:16 versions
  in
  Spec_tracker.check_settled_stable t (db [ (5, 1) ]);
  let caught what pairs needle =
    match Spec_tracker.check_settled_stable t (db pairs) with
    | () -> Alcotest.failf "%s: the check passed" what
    | exception Auditor.Audit_failure msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S mentions %S" what msg needle)
        true
        (Astring_like.contains msg needle)
  in
  caught "empty db" [] "never reached the stable version";
  caught "newer version" [ (5, 2) ] "stable holds o5 v2";
  caught "extra object" [ (5, 1); (6, 1) ] "no transaction committed it"

(* A crash image of [stable] holding [blocks] (none by default), and
   its recovery: a redo overlay the test may raise by hand. *)
let crash_image ?(blocks = []) stable =
  let image =
    {
      Recovery.blocks;
      stable = El_disk.Stable_db.overlay stable;
      crash_time = Time.zero;
    }
  in
  (image, Recovery.recover image)

let verdict_text v = Format.asprintf "%a" Spec_tracker.pp_verdict v

(* The reverse passes that look for recovered objects nobody committed
   judge only what the recovery's overlay names; one extra object must
   still be caught, on a real crash image and on hand-built ones over
   the database a tracker watches.  A log-extended transaction's write
   may survive only where its COMMIT persisted, in a torn prefix. *)
let test_size_settled_skips_catch () =
  let module Generator = El_workload.Generator in
  let module Stable_db = El_disk.Stable_db in
  let kind = List.assoc "el" (Sweep.standard_kinds ()) in
  let run = Tracked.prepare (Sweep.standard_config ~kind ~seed:42 ()) in
  Tracked.run_until run (Time.of_sec 15);
  let image = Tracked.crash run in
  let r = Recovery.recover image in
  Alcotest.(check bool) "pristine image audits ok" true
    (Tracked.passes run image r);
  let rec fresh i =
    let oid = Ids.Oid.of_int i in
    if Stable_db.version r.Recovery.recovered oid = None then oid
    else fresh (i + 1)
  in
  let extra = fresh 0 in
  Stable_db.apply r.Recovery.recovered extra ~version:1;
  let v = Tracked.judge run image r in
  let pairs = List.map (fun (o, v) -> (Ids.Oid.to_int o, v)) in
  Alcotest.(check bool) "extra object fails the audit" false
    (Spec_tracker.ok v);
  Alcotest.(check (list (pair int int))) "nothing missing" []
    (pairs v.Spec_tracker.missing);
  Alcotest.(check (list (pair int int)))
    "the extra object is spurious"
    [ (Ids.Oid.to_int extra, 1) ]
    (pairs v.Spec_tracker.spurious);
  let acks = ref [] in
  let stub =
    {
      Generator.begin_tx = (fun ~tid:_ ~expected_duration:_ -> ());
      write_data = (fun ~tid:_ ~oid:_ ~version:_ ~size:_ -> ());
      request_commit = (fun ~tid:_ ~on_ack -> acks := on_ack :: !acks);
      request_abort = (fun ~tid:_ -> ());
    }
  in
  let t = Spec_tracker.create () in
  let sink = Spec_tracker.wrap t stub in
  let write tid oid version =
    let tid = Ids.Tid.of_int tid in
    sink.Generator.begin_tx ~tid ~expected_duration:(Time.of_ms 400);
    sink.Generator.write_data ~tid ~oid:(Ids.Oid.of_int oid) ~version
      ~size:100;
    sink.Generator.request_commit ~tid ~on_ack:ignore
  in
  let stable = Stable_db.create ~num_objects:16 in
  Spec_tracker.watch_stable t stable;
  write 1 5 1;
  List.iter (fun on_ack -> on_ack Time.zero) !acks;
  let judged ?blocks pairs =
    let image, r = crash_image ?blocks stable in
    List.iter
      (fun (o, v) ->
        Stable_db.apply r.Recovery.recovered (Ids.Oid.of_int o) ~version:v)
      pairs;
    Spec_tracker.judge t image r
  in
  Alcotest.(check string) "the acked object alone" "recovery audit: OK"
    (verdict_text (judged [ (5, 1) ]));
  Alcotest.(check (list (pair int int)))
    "an unacked extra object is spurious" [ (6, 1) ]
    (pairs (judged [ (5, 1); (6, 1) ]).Spec_tracker.spurious);
  write 2 7 9;
  Alcotest.(check bool)
    "a log-extended write whose COMMIT did not persist is spurious" false
    (Spec_tracker.ok (judged [ (5, 1); (7, 9) ]));
  let at = Time.zero and tid = Ids.Tid.of_int 2 in
  let torn =
    {
      Recovery.records =
        [
          Log_record.data ~tid ~oid:(Ids.Oid.of_int 7) ~version:9 ~size:100
            ~timestamp:at;
          Log_record.commit ~tid ~size:16 ~timestamp:at;
        ];
      torn = 1;
    }
  in
  Alcotest.(check string) "... and kept where it persisted in a torn prefix"
    "recovery audit: OK"
    (verdict_text (judged ~blocks:[ torn ] [ (5, 1) ]));
  Alcotest.(check (list string)) "a legal run" [] (Spec_tracker.violations t)

(* The tracker learns of installs from the stable database itself, so
   an install that bypasses the flush array fails the next judgement's
   floor check — even for a settled object that neither the unsettled
   set nor the redo names.  A tracker that learned of installs only
   from flush completions would pass both. *)
let test_tracker_catches_direct_install () =
  let module Generator = El_workload.Generator in
  let module Stable_db = El_disk.Stable_db in
  let stub =
    {
      Generator.begin_tx = (fun ~tid:_ ~expected_duration:_ -> ());
      write_data = (fun ~tid:_ ~oid:_ ~version:_ ~size:_ -> ());
      request_commit = (fun ~tid:_ ~on_ack -> on_ack Time.zero);
      request_abort = (fun ~tid:_ -> ());
    }
  in
  let caught what install =
    let t = Spec_tracker.create () in
    let stable = Stable_db.create ~num_objects:16 in
    Spec_tracker.watch_stable t stable;
    let sink = Spec_tracker.wrap t stub in
    let tid = Ids.Tid.of_int 1 and oid = Ids.Oid.of_int 5 in
    sink.Generator.begin_tx ~tid ~expected_duration:(Time.of_ms 400);
    sink.Generator.write_data ~tid ~oid ~version:1 ~size:100;
    sink.Generator.request_commit ~tid ~on_ack:ignore;
    Stable_db.apply stable oid ~version:1;
    Spec_tracker.observe_flush t oid ~version:1;
    let judged () =
      let image, r = crash_image stable in
      verdict_text (Spec_tracker.judge t image r)
    in
    Alcotest.(check string)
      (what ^ ": before") "recovery audit: OK" (judged ());
    install stable;
    let text = judged () in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %S names the floor" what text)
      true
      (Astring_like.contains text "superblock floor")
  in
  caught "an acked object's higher version" (fun stable ->
      Stable_db.apply stable (Ids.Oid.of_int 5) ~version:2);
  caught "a never-acked object" (fun stable ->
      Stable_db.apply stable (Ids.Oid.of_int 6) ~version:1)

(* The judge compares the redo's objects as well as the unsettled
   ones: a settled object the redo raised past its ack, to a version no
   log-extended transaction wrote, must fail the judgement. *)
let test_tracker_judges_redo () =
  let module Generator = El_workload.Generator in
  let module Stable_db = El_disk.Stable_db in
  let t = Spec_tracker.create () in
  let stable = Stable_db.create ~num_objects:16 in
  Spec_tracker.watch_stable t stable;
  let sink =
    Spec_tracker.wrap t
      {
        Generator.begin_tx = (fun ~tid:_ ~expected_duration:_ -> ());
        write_data = (fun ~tid:_ ~oid:_ ~version:_ ~size:_ -> ());
        request_commit = (fun ~tid:_ ~on_ack -> on_ack Time.zero);
        request_abort = (fun ~tid:_ -> ());
      }
  in
  let tid = Ids.Tid.of_int 1 and oid = Ids.Oid.of_int 5 in
  sink.Generator.begin_tx ~tid ~expected_duration:(Time.of_ms 400);
  sink.Generator.write_data ~tid ~oid ~version:1 ~size:100;
  sink.Generator.request_commit ~tid ~on_ack:ignore;
  Stable_db.apply stable oid ~version:1;
  Spec_tracker.observe_flush t oid ~version:1;
  let image, redo = crash_image stable in
  Alcotest.(check string) "the settled state" "recovery audit: OK"
    (verdict_text (Spec_tracker.judge t image redo));
  Stable_db.apply redo.Recovery.recovered oid ~version:3;
  let text = verdict_text (Spec_tracker.judge t image redo) in
  Alcotest.(check bool)
    (Printf.sprintf "%S names the advance" text)
    true
    (Astring_like.contains text "o5 committed v1, recovered v3")

(* A floor lag at a crash point is the judge's to find, with none of
   the spec's own checks run (a sweep with [~spec:false]): a flush
   completion that installs one version below the one it completes
   (the tracker observes the completed one) leaves the stable database
   behind its superblock floor, and the next crash point fails. *)
let test_floor_lag_caught_without_spec () =
  let cfg =
    Sweep.standard_config ~kind:(List.assoc "el" (Sweep.standard_kinds ()))
      ~runtime:(Time.of_sec 4) ~seed:42 ()
  in
  let sg, trackers = Spec_tracker.prepare cfg in
  Fun.protect
    ~finally:(fun () -> El_shard.Shard_group.dispose sg)
    (fun () ->
      let inst = (El_shard.Shard_group.instances sg).(0) in
      let engine = El_shard.Shard_group.engine sg in
      let manager =
        match inst.Experiment.i_manager with
        | Experiment.El_log m -> m
        | Experiment.Fw_log _ | Experiment.Hybrid_log _ -> assert false
      in
      let judge () =
        let image = Recovery.crash engine manager in
        Spec_tracker.judge trackers.(0) image (Recovery.recover image)
      in
      El_sim.Engine.run engine ~until:(Time.of_sec 2);
      Alcotest.(check string) "clean at 2 s" "recovery audit: OK"
        (verdict_text (judge ()));
      (* The lag a mis-installing flush completion leaves behind: the
         tracker observes [version], the database keeps [version - 1]. *)
      let lagging =
        List.find_map
          (fun (oid, v) ->
            let stable = inst.Experiment.i_stable in
            if v > 1 && El_disk.Stable_db.version stable oid = None then
              Some (oid, v)
            else None)
          (Spec_tracker.unsettled trackers.(0))
      in
      match lagging with
      | None -> Alcotest.fail "no unsettled object above v1 at 2 s"
      | Some (oid, v) ->
        El_disk.Stable_db.apply inst.Experiment.i_stable oid ~version:(v - 1);
        Spec_tracker.observe_flush trackers.(0) oid ~version:v;
        let text = verdict_text (judge ()) in
        Alcotest.(check bool)
          (Printf.sprintf "%S names the floor" text)
          true
          (Astring_like.contains text "but the superblock floor is"))

(* The atomic-commit check judges only the open cross-shard
   transactions; a test-local re-check of every cross view at every
   crash point (the test keeps its own handle on every transaction
   that entered 2PC) must reach the same verdicts, and the check must
   judge only what was open at the previous point plus what is new. *)
let test_atomic_open_matches_full () =
  let module Shard_group = El_shard.Shard_group in
  let module Two_pc = El_shard.Two_pc in
  let module Preset = El_workload.Workload_preset in
  let el = List.assoc "el" (Sweep.standard_kinds ()) in
  let full_verdicts crosses (results : Recovery.result array) =
    let committed shard tid =
      List.exists (Ids.Tid.equal tid) results.(shard).Recovery.committed_tids
    in
    let durable shard oid gtid =
      match
        El_disk.Stable_db.version results.(shard).Recovery.recovered oid
      with
      | Some v -> v >= Shard_group.ctl_version ~gtid
      | None -> false
    in
    List.concat_map
      (fun x ->
        let v = Shard_group.cross_view x in
        let gtid = v.Shard_group.v_gtid in
        let decided =
          committed v.Shard_group.v_coordinator (Two_pc.decision_tid ~gtid)
          ||
          match v.Shard_group.v_decision_oid with
          | Some oid -> durable v.Shard_group.v_coordinator oid gtid
          | None -> false
        in
        let branches =
          List.map
            (fun p ->
              committed p (Ids.Tid.of_int gtid)
              ||
              match List.assoc_opt p v.Shard_group.v_marker_oids with
              | Some oid -> durable p oid gtid
              | None -> false)
            v.Shard_group.v_participants
        in
        (if
           Two_pc.atomic_ok ~decision_durable:decided
             ~branches_durable:branches
         then []
         else [ gtid ])
        @
        if v.Shard_group.v_phase = Two_pc.Acked && not decided then [ gtid ]
        else [])
      crosses
  in
  let open_views sg crosses =
    let installed shard oid gtid =
      match
        El_disk.Stable_db.version
          (Shard_group.instances sg).(shard).Experiment.i_stable oid
      with
      | Some v -> v >= Shard_group.ctl_version ~gtid
      | None -> false
    in
    List.length
      (List.filter
         (fun x ->
           let v = Shard_group.cross_view x in
           let gtid = v.Shard_group.v_gtid in
           not
             (v.Shard_group.v_phase = Two_pc.Acked
             && (match v.Shard_group.v_decision_oid with
                | Some oid -> installed v.Shard_group.v_coordinator oid gtid
                | None -> false)
             && List.for_all
                  (fun p ->
                    match List.assoc_opt p v.Shard_group.v_marker_oids with
                    | Some oid -> installed p oid gtid
                    | None -> false)
                  v.Shard_group.v_participants))
         crosses)
  in
  List.iter
    (fun (pname, preset) ->
      List.iter
        (fun seed ->
          let cfg =
            {
              (Sweep.standard_config ~kind:el ~seed ~preset ()) with
              Experiment.shards = 2;
            }
          in
          let label = Printf.sprintf "%s seed %d" pname seed in
          let atomic = Sweep.Atomic.create () in
          let crosses = ref [] in
          let on_cross x =
            Sweep.Atomic.add atomic x;
            crosses := x :: !crosses
          in
          let sg = Shard_group.prepare ~on_cross cfg in
          let engine = Shard_group.engine sg in
          let judged = ref 0 and views = ref 0 in
          let prev_open = ref 0 and prev_count = ref 0 in
          let rec loop () =
            let n =
              Engine.run_steps engine ~until:cfg.Experiment.runtime
                ~max_steps:20
            in
            let results =
              Array.map Recovery.recover (Shard_group.crash_images sg)
            in
            let delta = List.map fst (Sweep.Atomic.check atomic sg results) in
            Alcotest.(check (list int))
              (label ^ ": open verdicts = full verdicts")
              (full_verdicts (List.rev !crosses) results)
              delta;
            let count = Shard_group.cross_count sg in
            if Sweep.Atomic.judged atomic <> !prev_open + count - !prev_count
            then
              Alcotest.failf "%s: judged %d, open %d + new %d" label
                (Sweep.Atomic.judged atomic)
                !prev_open (count - !prev_count);
            judged := !judged + Sweep.Atomic.judged atomic;
            views := !views + count;
            prev_open := open_views sg (List.rev !crosses);
            prev_count := count;
            if n = 20 then loop ()
          in
          (try loop () with El_core.El_manager.Log_overloaded _ -> ());
          if !views > 0 && !judged * 2 > !views then
            Alcotest.failf "%s: judged %d of %d cross views" label !judged
              !views;
          Shard_group.dispose sg)
        [ 1; 2; 3 ])
    [ ("uniform", Preset.uniform); ("storm", Preset.storm) ]

let suite =
  [
    Alcotest.test_case "crash sweep: EL, 3 seeds x 100+ points" `Slow
      test_sweep_el;
    Alcotest.test_case "crash sweep: FW, 3 seeds x 100+ points" `Slow
      test_sweep_fw;
    Alcotest.test_case "crash sweep: hybrid, 3 seeds x 100+ points" `Slow
      test_sweep_hybrid;
    Alcotest.test_case "sweep is deterministic" `Quick test_sweep_deterministic;
    Alcotest.test_case "sweep with aborts and kills" `Quick
      test_sweep_aborts_and_kills;
    Alcotest.test_case "crash mid-forced-flush at 45 ms stays durable" `Quick
      test_sweep_mid_forced_flush;
    Alcotest.test_case "45 ms sweep: all kinds pass the spec oracle" `Slow
      test_sweep_45ms_all_kinds;
    Alcotest.test_case "eager dispose diverges from the spec" `Quick
      test_eager_dispose_caught_by_spec;
    QCheck_alcotest.to_alcotest prop_sweep_random;
    Alcotest.test_case "corrupted image is caught" `Quick
      test_corrupted_image_caught;
    Alcotest.test_case "torn checksums are caught" `Quick
      test_torn_checksum_caught;
    Alcotest.test_case "auditor runs standalone on all kinds" `Quick
      test_auditor_standalone;
    Alcotest.test_case "auditor catches a stable version ahead of commits"
      `Quick test_auditor_catches_stable_ahead;
    Alcotest.test_case "tracker's settled checks catch a diverged stable db"
      `Quick test_tracker_settled_checks;
    Alcotest.test_case "size-settled reverse passes still catch an extra object"
      `Quick test_size_settled_skips_catch;
    Alcotest.test_case "tracker's floor check catches a direct install" `Quick
      test_tracker_catches_direct_install;
    Alcotest.test_case "tracker's crash check judges what the redo raised"
      `Quick test_tracker_judges_redo;
    Alcotest.test_case "a floor lag fails the next crash judgement" `Quick
      test_floor_lag_caught_without_spec;
    Alcotest.test_case "atomic check by open transaction = full re-check"
      `Slow test_atomic_open_matches_full;
  ]

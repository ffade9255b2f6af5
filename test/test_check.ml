(* The model-checking subsystem's own tests: the crash-point sweep
   over every manager kind, determinism of the sweep itself, the
   differential oracle under randomised workloads, and a negative test
   proving the recovery auditor actually catches corruption. *)

open El_model
module Engine = El_sim.Engine
module Experiment = El_harness.Experiment
module Recovery = El_recovery.Recovery
module Sweep = El_check.Sweep
module Auditor = El_check.Auditor
module Reference = El_check.Reference

let el_manager (live : Experiment.live) =
  match live.Experiment.manager with
  | Experiment.El_log m -> m
  | Experiment.Fw_log _ | Experiment.Hybrid_log _ ->
    Alcotest.fail "an EL run expected"

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
   the stable database.  This pins that the spec oracle actually has
   teeth: the hazard cannot be silently re-introduced.  It also pins
   the sweep's one-shard contract — a solo config is the 1-shard
   group: its failures name no shard and each crash point costs one
   recovery, with no extra settled-state recovery — while at two
   shards every crash-recovery divergence keeps its shard label. *)
let test_eager_dispose_caught_by_spec () =
  let cfg = scarce_45ms_config ~eager:true ~seed:7 () in
  let o = Sweep.run ~stride:25 ~spec:true cfg in
  Alcotest.(check bool) "divergences found" true (o.Sweep.failures <> []);
  let is_spec (_, msg) = Astring_like.contains msg "spec:" in
  Alcotest.(check bool)
    "at least one divergence is a spec-oracle finding" true
    (List.exists is_spec o.Sweep.failures);
  let crash_diverged (_, msg) =
    Astring_like.contains msg "crash recovery diverged"
  in
  let names_shard (_, msg) = String.starts_with ~prefix:"shard" msg in
  Alcotest.(check bool) "solo: crash recovery diverges" true
    (List.exists crash_diverged o.Sweep.failures);
  Alcotest.(check bool) "solo: no failure names a shard" false
    (List.exists names_shard o.Sweep.failures);
  Alcotest.(check int) "solo: one recovery per crash point" o.Sweep.points
    o.Sweep.recoveries;
  let o2 = Sweep.run ~stride:25 ~spec:true { cfg with Experiment.shards = 2 } in
  let diverged = List.filter crash_diverged o2.Sweep.failures in
  Alcotest.(check bool) "2 shards: crash recovery diverges" true
    (diverged <> []);
  Alcotest.(check bool) "2 shards: each divergence names its shard" true
    (List.for_all names_shard diverged)

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

(* Negative test: the recovery auditor must catch a semantically
   corrupted image.  We take a genuine crash image, bump the version
   of one durably committed data record and RE-SEAL it — the checksum
   validates, the content lies — and expect the audit to fail: the
   recovered database now holds a version nobody committed.  This
   pins down that the differential audit catches what the CRC layer
   cannot. *)
let test_corrupted_image_caught () =
  let kind = List.assoc "el" (Sweep.standard_kinds ()) in
  let cfg = Sweep.standard_config ~kind ~seed:42 () in
  let live = Experiment.prepare cfg in
  Engine.run live.Experiment.engine ~until:(Time.of_sec 15);
  let image =
    Recovery.crash live.Experiment.engine (el_manager live)
  in
  let sane = Recovery.recover image in
  Alcotest.(check bool) "pristine image audits ok" true
    (Recovery.audit image sane).Recovery.ok;
  let payloads =
    List.concat_map
      (List.map (fun (s : Recovery.sealed) -> s.Recovery.payload))
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
           image.Recovery.reference
    | _ -> false
  in
  (match List.find_opt is_target payloads with
  | None -> Alcotest.fail "no committed data record in a 15 s image"
  | Some victim ->
    let corrupt (s : Recovery.sealed) =
      if s.Recovery.payload == victim then
        match victim.Log_record.kind with
        | Log_record.Data { oid; version } ->
          Recovery.seal
            {
              victim with
              Log_record.kind =
                Log_record.Data { oid; version = version + 1000 };
            }
        | _ -> assert false
      else s
    in
    let corrupted =
      {
        image with
        Recovery.blocks = List.map (List.map corrupt) image.Recovery.blocks;
      }
    in
    let r = Recovery.recover corrupted in
    let audit = Recovery.audit corrupted r in
    Alcotest.(check bool) "corruption detected" false audit.Recovery.ok;
    Alcotest.(check bool) "spurious version reported" true
      (audit.Recovery.spurious <> []))

(* Torn-checksum negative: invalidate the stamps on every durable copy
   of a committed-but-unflushed version.  Prefix validation must
   discard those records (and everything behind them in their blocks),
   recovery counts the discarded tails, and the audit reports the
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
  let live = Experiment.prepare cfg in
  Engine.run live.Experiment.engine ~until:(Time.of_sec 15);
  let image =
    Recovery.crash live.Experiment.engine (el_manager live)
  in
  Alcotest.(check bool) "pristine image audits ok" true
    (Recovery.audit image (Recovery.recover image)).Recovery.ok;
  let payloads =
    List.concat_map
      (List.map (fun (s : Recovery.sealed) -> s.Recovery.payload))
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
      image.Recovery.reference
  in
  match target with
  | None -> Alcotest.fail "no unflushed committed version in a 15 s image"
  | Some (oid, version) ->
    let hits = ref 0 in
    let corrupt (s : Recovery.sealed) =
      match s.Recovery.payload.Log_record.kind with
      | Log_record.Data { oid = o; version = v }
        when Ids.Oid.equal o oid && v = version ->
        incr hits;
        Recovery.corrupt_seal s.Recovery.payload
      | _ -> s
    in
    let corrupted =
      {
        image with
        Recovery.blocks = List.map (List.map corrupt) image.Recovery.blocks;
      }
    in
    Alcotest.(check bool) "found a durable copy to corrupt" true (!hits > 0);
    let r = Recovery.recover corrupted in
    Alcotest.(check bool) "discarded tails counted" true
      (r.Recovery.torn_blocks > 0 && r.Recovery.torn_records > 0);
    let audit = Recovery.audit corrupted r in
    Alcotest.(check bool) "lost durability detected" false audit.Recovery.ok;
    Alcotest.(check bool) "version reported missing" true
      (audit.Recovery.missing <> [])

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
  ]

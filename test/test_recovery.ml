open El_model
module Experiment = El_harness.Experiment
module Policy = El_core.Policy
module Recovery = El_recovery.Recovery
module Spec_tracker = El_check.Spec_tracker
module Mix = El_workload.Mix
module Tx = El_workload.Tx_type

let el_manager (live : Experiment.live) =
  match live.Experiment.manager with
  | Experiment.El_log m -> m
  | Experiment.Fw_log _ | Experiment.Hybrid_log _ ->
    Alcotest.fail "an EL run expected"

let el_config ?(sizes = [| 8; 8 |]) ?(recirculate = true) ?(runtime = 30)
    ?(seed = 42) ?(abort_fraction = 0.0) ?(rate = 40.0) () =
  let mix =
    Mix.create
      [
        Tx.make ~name:"s" ~probability:0.9 ~duration:(Time.of_ms 400)
          ~num_records:2 ~record_size:100;
        Tx.make ~name:"l" ~probability:0.1 ~duration:(Time.of_sec 4)
          ~num_records:4 ~record_size:100;
      ]
  in
  let policy =
    { (Policy.default ~generation_sizes:sizes) with Policy.recirculate }
  in
  {
    (Experiment.default_config ~kind:(Experiment.Ephemeral policy) ~mix) with
    Experiment.runtime = Time.of_sec runtime;
    num_objects = 10_000;
    flush_drives = 2;
    flush_transfer = Time.of_ms 8;
    seed;
    arrival_rate = rate;
    abort_fraction;
  }

let crash_and_judge cfg ~crash_at =
  let _result, recovery, verdict, _ =
    El_check.Sweep.run_with_crash cfg ~crash_at
  in
  (recovery, Spec_tracker.ok verdict)

let test_audit_ok_midrun () =
  let recovery, ok =
    crash_and_judge (el_config ()) ~crash_at:(Time.of_sec 20)
  in
  Alcotest.(check bool) "atomic and durable" true ok;
  Alcotest.(check bool) "scanned something" true
    (recovery.Recovery.records_scanned > 0)

let test_audit_ok_early () =
  (* Crash before the first group commit has even sealed: nothing is
     durable, recovery must produce exactly the (empty) reference. *)
  let recovery, ok =
    crash_and_judge (el_config ()) ~crash_at:(Time.of_ms 20)
  in
  Alcotest.(check bool) "ok" true ok;
  Alcotest.(check int) "no committed txs" 0
    (List.length recovery.Recovery.committed_tids)

let test_audit_ok_with_aborts () =
  let cfg = el_config ~abort_fraction:0.3 ~seed:7 () in
  let _, ok = crash_and_judge cfg ~crash_at:(Time.of_sec 20) in
  Alcotest.(check bool) "aborted txs never recovered" true ok

let test_audit_ok_no_recirc () =
  (* Recirculation off with a tight log: long transactions get killed;
     killed transactions must not resurface in recovery. *)
  let cfg = el_config ~sizes:[| 4; 4 |] ~recirculate:false ~seed:3 () in
  let _, ok = crash_and_judge cfg ~crash_at:(Time.of_sec 20) in
  Alcotest.(check bool) "kills stay dead" true ok

let test_recovered_equals_reference_db () =
  let cfg = el_config () in
  let _result, recovery, verdict, _ =
    El_check.Sweep.run_with_crash cfg ~crash_at:(Time.of_sec 15)
  in
  Alcotest.(check bool) "audit ok" true (Spec_tracker.ok verdict);
  (* cross-check through the db interface too *)
  List.iter
    (fun (_oid, v) -> Alcotest.(check bool) "versions positive" true (v > 0))
    (El_disk.Stable_db.snapshot recovery.Recovery.recovered)

let test_redo_idempotent () =
  let cfg = el_config () in
  let live = Experiment.prepare cfg in
  El_sim.Engine.run live.Experiment.engine ~until:(Time.of_sec 20);
  let image =
    Recovery.crash live.Experiment.engine (el_manager live)
  in
  let r1 = Recovery.recover image in
  let r2 = Recovery.recover image in
  Alcotest.(check bool) "recovery is deterministic" true
    (El_disk.Stable_db.equal r1.Recovery.recovered r2.Recovery.recovered);
  (* replaying the recovered log onto the recovered state changes
     nothing (idempotence of version-checked redo) *)
  let again = { image with Recovery.stable = r1.Recovery.recovered } in
  let r3 = Recovery.recover again in
  Alcotest.(check bool) "idempotent" true
    (El_disk.Stable_db.equal r1.Recovery.recovered r3.Recovery.recovered)

let test_stale_copies_do_not_regress () =
  (* Recirculation leaves old copies in freed slots; recovery must let
     the newest committed version win regardless of scan order. *)
  let cfg = el_config ~sizes:[| 4; 4 |] ~seed:11 () in
  let _, ok = crash_and_judge cfg ~crash_at:(Time.of_sec 25) in
  Alcotest.(check bool) "version ordering beats physical order" true ok

let prop_crash_anytime =
  QCheck.Test.make ~name:"recovery audit holds at random crash points"
    ~count:12
    QCheck.(pair (int_range 1 28) (int_bound 1000))
    (fun (crash_s, seed) ->
      let cfg = el_config ~seed () in
      let _, ok = crash_and_judge cfg ~crash_at:(Time.of_sec crash_s) in
      ok)

let prop_crash_tight_log =
  QCheck.Test.make
    ~name:"recovery audit holds under heavy recirculation (tight log)"
    ~count:8
    QCheck.(int_bound 1000)
    (fun seed ->
      let cfg = el_config ~sizes:[| 4; 4 |] ~seed ~rate:30.0 () in
      let _, ok = crash_and_judge cfg ~crash_at:(Time.of_sec 22) in
      ok)

let test_audit_ok_poisson () =
  (* Bursty arrivals stress group commit and recirculation timing; the
     atomicity/durability audit must be insensitive to them. *)
  let cfg =
    {
      (el_config ~seed:21 ()) with
      Experiment.arrival_process = El_workload.Generator.Poisson;
    }
  in
  let _, ok = crash_and_judge cfg ~crash_at:(Time.of_sec 18) in
  Alcotest.(check bool) "audit ok under bursts" true ok

let test_audit_with_invariants () =
  (* Crash, audit, and additionally deep-check the live structures at
     the crash instant: recovery correctness and in-memory consistency
     are independent claims. *)
  let cfg = el_config ~sizes:[| 5; 5 |] ~seed:13 () in
  let run = Tracked.prepare cfg in
  Tracked.run_until run (Time.of_sec 17);
  El_core.El_manager.check_invariants run.Tracked.manager;
  let image = Tracked.crash run in
  let result = Recovery.recover image in
  Alcotest.(check bool) "audit ok at a tight 10-block log" true
    (Tracked.passes run image result)

let test_fw_rejected () =
  let cfg =
    Experiment.default_config ~kind:(Experiment.Firewall 100)
      ~mix:(Mix.short_long ~long_fraction:0.05)
  in
  Alcotest.check_raises "FW has no recovery"
    (Invalid_argument "Sweep.run_with_crash: fw has no crash image (EL only)")
    (fun () ->
      ignore (El_check.Sweep.run_with_crash cfg ~crash_at:(Time.of_sec 1)))

(* Each refusal names the kind it refuses: a single crash run, and the
   crash capture of a shard group, of the FW and hybrid sweep kinds. *)
let test_refusals_name_the_kind () =
  List.iter
    (fun name ->
      let kind = List.assoc name (El_check.Sweep.standard_kinds ()) in
      let cfg = El_check.Sweep.standard_config ~kind () in
      Alcotest.check_raises (name ^ ": crash run")
        (Invalid_argument
           (Printf.sprintf
              "Sweep.run_with_crash: %s has no crash image (EL only)" name))
        (fun () ->
          ignore (El_check.Sweep.run_with_crash cfg ~crash_at:(Time.of_sec 1)));
      let sg = El_shard.Shard_group.prepare cfg in
      Fun.protect
        ~finally:(fun () -> El_shard.Shard_group.dispose sg)
        (fun () ->
          Alcotest.check_raises (name ^ ": crash images")
            (Invalid_argument
               (Printf.sprintf
                  "Shard_group.crash_images: shard 0 is %s, which has no crash \
                   image (EL only)"
                  name))
            (fun () -> ignore (El_shard.Shard_group.crash_images sg))))
    [ "fw"; "hybrid" ]

(* Recovery must be a pure function of the crash image: running it
   twice gives identical results, and the physical order of the
   scanned blocks (which recirculation shuffles arbitrarily) must not
   matter. *)
let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

let prop_recover_idempotent_order_insensitive =
  QCheck.Test.make
    ~name:"recover is idempotent and insensitive to record order" ~count:10
    QCheck.(pair (int_range 0 9_999) (int_range 5 25))
    (fun (seed, crash_s) ->
      let cfg = el_config ~seed () in
      let live = Experiment.prepare cfg in
      El_sim.Engine.run live.Experiment.engine ~until:(Time.of_sec crash_s);
      let image =
        Recovery.crash live.Experiment.engine (el_manager live)
      in
      let sorted_tids (r : Recovery.result) =
        List.sort Ids.Tid.compare r.Recovery.committed_tids
      in
      let r1 = Recovery.recover image in
      let r2 = Recovery.recover image in
      let rng = Random.State.make [| seed; crash_s |] in
      let r3 =
        Recovery.recover
          { image with Recovery.blocks = shuffle rng image.Recovery.blocks }
      in
      El_disk.Stable_db.equal r1.Recovery.recovered r2.Recovery.recovered
      && El_disk.Stable_db.equal r1.Recovery.recovered r3.Recovery.recovered
      && sorted_tids r1 = sorted_tids r2
      && sorted_tids r1 = sorted_tids r3
      && r1.Recovery.records_scanned = r3.Recovery.records_scanned)

(* Negative case for torn blocks: an image whose every block tore at
   its first record recovers nothing, counts every non-empty block as
   a torn tail, and fails the audit — the durably committed state is
   missing from the recovered database.  The flush array is starved
   so that committed state provably lags the stable version: a fully
   caught-up stable database would survive the loss of the log.  The
   30 ms transfer makes the starvation real (2 drives cannot keep up
   with 40 TPS); the generations are sized so the pinned backlog stays
   in the log — before forced flushes pinned their records, this
   config silently lost acked data, which is why the transfer used to
   be capped at 20 ms. *)
let test_corrupted_checksums_caught () =
  let cfg =
    {
      (el_config ~sizes:[| 12; 24 |] ()) with
      Experiment.flush_transfer = Time.of_ms 30;
    }
  in
  let run = Tracked.prepare cfg in
  Tracked.run_until run (Time.of_sec 15);
  let image = Tracked.crash run in
  Alcotest.(check bool) "pristine image audits ok" true
    (Tracked.passes run image (Recovery.recover image));
  Alcotest.(check bool) "unflushed committed state exists at 15 s" true
    (List.exists
       (fun (oid, v) ->
         El_disk.Stable_db.version image.Recovery.stable oid <> Some v)
       (El_check.Spec_tracker.unsettled run.Tracked.tracker));
  let corrupted =
    {
      image with
      Recovery.blocks =
        List.map
          (fun (b : Recovery.block) ->
            { Recovery.records = []; torn = List.length b.Recovery.records })
          image.Recovery.blocks;
    }
  in
  let r = Recovery.recover corrupted in
  Alcotest.(check int) "nothing survives the scan" 0 r.Recovery.records_scanned;
  Alcotest.(check bool) "torn blocks counted" true (r.Recovery.torn_blocks > 0);
  let verdict = Tracked.judge run corrupted r in
  Alcotest.(check bool) "audit fails" false (Spec_tracker.ok verdict);
  Alcotest.(check bool) "committed versions reported missing" true
    (verdict.Spec_tracker.missing <> [])

let suite =
  [
    Alcotest.test_case "audit ok mid-run" `Quick test_audit_ok_midrun;
    Alcotest.test_case "audit ok before first commit" `Quick
      test_audit_ok_early;
    Alcotest.test_case "audit ok with aborts" `Quick test_audit_ok_with_aborts;
    Alcotest.test_case "audit ok with kills (no recirculation)" `Quick
      test_audit_ok_no_recirc;
    Alcotest.test_case "recovered db sanity" `Quick
      test_recovered_equals_reference_db;
    Alcotest.test_case "redo is deterministic and idempotent" `Quick
      test_redo_idempotent;
    Alcotest.test_case "stale recirculated copies never regress state" `Quick
      test_stale_copies_do_not_regress;
    QCheck_alcotest.to_alcotest prop_crash_anytime;
    QCheck_alcotest.to_alcotest prop_crash_tight_log;
    Alcotest.test_case "audit ok under Poisson bursts" `Quick
      test_audit_ok_poisson;
    Alcotest.test_case "audit + deep invariants on a tight log" `Quick
      test_audit_with_invariants;
    Alcotest.test_case "firewall configs are rejected" `Quick test_fw_rejected;
    Alcotest.test_case "FW and hybrid refusals name the kind" `Quick
      test_refusals_name_the_kind;
    QCheck_alcotest.to_alcotest prop_recover_idempotent_order_insensitive;
    Alcotest.test_case "corrupted checksums are caught" `Quick
      test_corrupted_checksums_caught;
  ]

open El_model
module Engine = El_sim.Engine
module M = El_core.El_manager
module Policy = El_core.Policy
module Flush = El_disk.Flush_array
module Stable = El_disk.Stable_db

let tid n = Ids.Tid.of_int n
let oid n = Ids.Oid.of_int n

type rig = {
  engine : Engine.t;
  manager : M.t;
  stable : Stable.t;
  flush : Flush.t;
  mutable killed : int list;
}

let make_rig ?(sizes = [| 6; 6 |]) ?(recirculate = true)
    ?(unflushed = Policy.Keep_in_log) ?(placement = Policy.Youngest)
    ?(group_commit_timeout = None) ?(payload = 200) ?(num_objects = 1000)
    ?(flush_ms = 5) () =
  let engine = Engine.create () in
  let stable = Stable.create ~num_objects in
  let flush =
    Flush.create engine ~drives:1 ~transfer_time:(Time.of_ms flush_ms)
      ~num_objects ()
  in
  let policy =
    {
      (Policy.default ~generation_sizes:sizes) with
      Policy.recirculate;
      unflushed;
      placement;
      group_commit_timeout;
      block_payload = payload;
    }
  in
  let manager = M.create engine ~policy ~flush ~stable () in
  let rig = { engine; manager; stable; flush; killed = [] } in
  M.set_on_kill manager (fun t -> rig.killed <- Ids.Tid.to_int t :: rig.killed);
  rig

(* Convenience: start a tx and write [n] data records of [size]. *)
let tx rig ~n ~oids ~size =
  M.begin_tx rig.manager ~tid:(tid n) ~expected_duration:(Time.of_sec 1);
  List.iteri
    (fun i o ->
      M.write_data rig.manager ~tid:(tid n) ~oid:(oid o) ~version:(i + 1) ~size)
    oids

let commit rig ~n acks =
  M.request_commit rig.manager ~tid:(tid n) ~on_ack:(fun at ->
      acks := (n, Time.to_us at) :: !acks)

let test_group_commit_ack () =
  let rig = make_rig ~payload:200 () in
  let acks = ref [] in
  tx rig ~n:1 ~oids:[ 10 ] ~size:100;
  commit rig ~n:1 acks;
  (* Buffer: BEGIN(8) + DATA(100) + COMMIT(8) = 116 of 200: not sealed
     yet, so no ack however long we wait. *)
  Engine.run rig.engine ~until:(Time.of_ms 100);
  Alcotest.(check (list (pair int int))) "no ack before seal" [] !acks;
  (* A record that does not fit (100 > 200-116) seals the buffer; the
     ack comes one disk write (15 ms) later. *)
  M.begin_tx rig.manager ~tid:(tid 2) ~expected_duration:(Time.of_sec 1);
  M.write_data rig.manager ~tid:(tid 2) ~oid:(oid 20) ~version:1 ~size:100;
  Engine.run rig.engine ~until:(Time.of_ms 200);
  (match !acks with
  | [ (1, at) ] -> Alcotest.(check int) "ack 15ms after seal" 115_000 at
  | _ -> Alcotest.fail "expected exactly one ack");
  Alcotest.(check int) "one block written" 1 (M.stats rig.manager).M.total_log_writes

let test_drain_acks () =
  let rig = make_rig () in
  let acks = ref [] in
  tx rig ~n:1 ~oids:[ 10 ] ~size:50;
  commit rig ~n:1 acks;
  Engine.run rig.engine ~until:(Time.of_ms 10);
  M.drain rig.manager;
  Engine.run_all rig.engine;
  Alcotest.(check int) "drain forces the ack" 1 (List.length !acks)

let test_group_timeout () =
  let rig = make_rig ~group_commit_timeout:(Some (Time.of_ms 30)) () in
  let acks = ref [] in
  tx rig ~n:1 ~oids:[ 10 ] ~size:50;
  commit rig ~n:1 acks;
  Engine.run rig.engine ~until:(Time.of_sec 1);
  (match !acks with
  | [ (1, at) ] ->
    (* sealed by the 30 ms timeout armed at buffer creation (t=0),
       durable 15 ms later *)
    Alcotest.(check int) "ack after timeout+write" 45_000 at
  | _ -> Alcotest.fail "expected one ack without a second transaction")

let test_flush_cycle_to_stable () =
  let rig = make_rig () in
  let acks = ref [] in
  tx rig ~n:1 ~oids:[ 42 ] ~size:50;
  commit rig ~n:1 acks;
  M.drain rig.manager;
  Engine.run_all rig.engine;
  Alcotest.(check (option int)) "update reached the stable version" (Some 1)
    (Stable.version rig.stable (oid 42));
  Alcotest.(check int) "flush accounted" 1 (Flush.flushes_completed rig.flush);
  let stats = M.stats rig.manager in
  Alcotest.(check int) "LOT drained" 0 stats.M.lot_entries;
  Alcotest.(check int) "LTT drained" 0 stats.M.ltt_entries

let test_abort_record_written () =
  let rig = make_rig () in
  tx rig ~n:1 ~oids:[ 5 ] ~size:50;
  M.request_abort rig.manager ~tid:(tid 1);
  M.drain rig.manager;
  Engine.run_all rig.engine;
  let records = M.durable_records rig.manager in
  let aborts =
    List.filter (fun (r : Log_record.t) -> r.kind = Log_record.Abort) records
  in
  Alcotest.(check int) "ABORT in the log" 1 (List.length aborts);
  Alcotest.(check (option int)) "no stable update" None
    (Stable.version rig.stable (oid 5));
  Alcotest.(check int) "tables empty" 0
    ((M.stats rig.manager).M.lot_entries + (M.stats rig.manager).M.ltt_entries)

(* Fill generation 0 with garbage (committed+flushed) records and
   check heads advance by discarding, never forwarding. *)
let test_discard_without_forward () =
  let rig = make_rig ~sizes:[| 4; 4 |] ~payload:200 () in
  let acks = ref [] in
  for n = 1 to 30 do
    tx rig ~n ~oids:[ n ] ~size:180;
    commit rig ~n acks;
    (* run long enough that the commit seals, flushes complete and the
       records rot to garbage before the head ever reaches them *)
    Engine.run rig.engine
      ~until:(Time.add (Engine.now rig.engine) (Time.of_ms 100))
  done;
  let stats = M.stats rig.manager in
  Alcotest.(check int) "nothing forwarded" 0 stats.M.forwarded_records;
  Alcotest.(check int) "no kills" 0 stats.M.kills;
  Alcotest.(check bool) "gen0 wrote blocks" true
    (stats.M.log_writes_per_gen.(0) > 10);
  Alcotest.(check int) "gen1 never written" 0 stats.M.log_writes_per_gen.(1)

(* Run a churn workload in which a rolling population of [population]
   long-lived transactions (ids 1000, 1001, ...) is kept alive while
   short transactions push the log forward.  Long transactions keep
   generation 1 receiving forwarded blocks, so its ring wraps and must
   recirculate (or kill, without recirculation). *)
let churn_with_long_population rig ~population ~rounds ~retire acks =
  let next_long = ref 1000 in
  let live_longs = Queue.create () in
  for n = 1 to rounds do
    (* retire the oldest long transaction once the population is full
       (when [retire]), then admit a new one *)
    if retire && Queue.length live_longs >= population then begin
      let old = Queue.pop live_longs in
      if not (List.mem old rig.killed) then commit rig ~n:old acks
    end;
    if retire || Queue.length live_longs < population || n mod 5 = 0 then begin
      let long_id = !next_long in
      incr next_long;
      Queue.push long_id live_longs;
      (* long transactions update the upper half of the object space *)
      tx rig ~n:long_id ~oids:[ 500 + (long_id mod 400) ] ~size:100
    end;
    (* short churn *)
    tx rig ~n ~oids:[ n ] ~size:180;
    commit rig ~n acks;
    Engine.run rig.engine
      ~until:(Time.add (Engine.now rig.engine) (Time.of_ms 50))
  done

let test_forward_and_recirculate () =
  let rig = make_rig ~sizes:[| 4; 6 |] ~payload:200 () in
  let acks = ref [] in
  churn_with_long_population rig ~population:3 ~rounds:60 ~retire:true acks;
  let stats = M.stats rig.manager in
  Alcotest.(check bool) "records were forwarded" true
    (stats.M.forwarded_records > 0);
  Alcotest.(check bool) "records recirculated in the last generation" true
    (stats.M.recirculated_records > 0);
  Alcotest.(check (list int)) "no long transaction was killed" [] rig.killed;
  Alcotest.(check int) "no evictions" 0 stats.M.evictions

let test_no_recirc_kills () =
  (* Long transactions here never commit: without recirculation their
     records reach the last head while they are still running, which
     is exactly the paper's kill rule. *)
  let rig = make_rig ~sizes:[| 4; 6 |] ~recirculate:false ~payload:200 () in
  let acks = ref [] in
  churn_with_long_population rig ~population:3 ~rounds:60 ~retire:false acks;
  Alcotest.(check bool) "long transactions were killed" true
    (List.length rig.killed > 0);
  Alcotest.(check bool) "only long transactions were killed" true
    (List.for_all (fun t -> t >= 1000) rig.killed);
  Alcotest.(check int) "kills counted" (List.length rig.killed)
    (M.stats rig.manager).M.kills

let test_memory_accounting_matches_ledger () =
  let rig = make_rig () in
  let acks = ref [] in
  for n = 1 to 5 do
    tx rig ~n ~oids:[ n * 2; (n * 2) + 1 ] ~size:50
  done;
  commit rig ~n:1 acks;
  Engine.run rig.engine ~until:(Time.of_ms 1);
  let ledger = M.ledger rig.manager in
  Alcotest.(check int) "memory formula"
    ((40 * El_core.Ledger.ltt_size ledger)
    + (40 * El_core.Ledger.lot_size ledger))
    (El_core.Ledger.memory_bytes ledger);
  El_core.Ledger.check_invariants ledger

let test_durable_records_only_after_write () =
  let rig = make_rig () in
  tx rig ~n:1 ~oids:[ 1 ] ~size:50;
  Alcotest.(check int) "nothing durable before any write" 0
    (List.length (M.durable_records rig.manager));
  M.drain rig.manager;
  Engine.run_all rig.engine;
  Alcotest.(check int) "begin+data durable after drain" 2
    (List.length (M.durable_records rig.manager))

let test_occupancy_bounded () =
  let rig = make_rig ~sizes:[| 4; 4 |] ~payload:200 () in
  let acks = ref [] in
  for n = 1 to 40 do
    tx rig ~n ~oids:[ n ] ~size:180;
    commit rig ~n acks;
    Engine.run rig.engine
      ~until:(Time.add (Engine.now rig.engine) (Time.of_ms 50))
  done;
  let stats = M.stats rig.manager in
  Array.iteri
    (fun i peak ->
      Alcotest.(check bool)
        (Printf.sprintf "generation %d occupancy within size" i)
        true
        (peak <= stats.M.generation_sizes.(i)))
    stats.M.peak_occupancy_per_gen

let test_invariants_after_runs () =
  (* Deep structural audit after full simulations in every regime:
     plain, recirculating hard, no-recirculation kills, hinted. *)
  let audit policy ~seed =
    let cfg =
      {
        (El_harness.Experiment.default_config
           ~kind:(El_harness.Experiment.Ephemeral policy)
           ~mix:(El_workload.Mix.short_long ~long_fraction:0.05)) with
        El_harness.Experiment.runtime = Time.of_sec 40;
        seed;
      }
    in
    let live = El_harness.Experiment.prepare cfg in
    ignore (live.El_harness.Experiment.finish ());
    match live.El_harness.Experiment.manager with
    | El_harness.Experiment.El_log m -> M.check_invariants m
    | El_harness.Experiment.Fw_log _ | El_harness.Experiment.Hybrid_log _ ->
      Alcotest.fail "an EL run expected"
  in
  audit (Policy.default ~generation_sizes:[| 18; 16 |]) ~seed:1;
  audit (Policy.default ~generation_sizes:[| 18; 10 |]) ~seed:2;
  audit
    {
      (Policy.default ~generation_sizes:[| 6; 6 |]) with
      Policy.recirculate = false;
    }
    ~seed:3;
  audit
    {
      (Policy.default ~generation_sizes:[| 18; 16 |]) with
      Policy.placement = Policy.Lifetime_hint;
    }
    ~seed:4

let test_policy_validation () =
  Alcotest.check_raises "generation smaller than gap+1"
    (Invalid_argument "Policy: generation 0 has 2 blocks; needs at least gap+1 = 3")
    (fun () -> ignore (Policy.default ~generation_sizes:[| 2 |]))

let suite =
  [
    Alcotest.test_case "group commit acks on durability" `Quick
      test_group_commit_ack;
    Alcotest.test_case "drain flushes pending buffers" `Quick test_drain_acks;
    Alcotest.test_case "group-commit timeout" `Quick test_group_timeout;
    Alcotest.test_case "commit -> flush -> stable version" `Quick
      test_flush_cycle_to_stable;
    Alcotest.test_case "abort writes a record, installs nothing" `Quick
      test_abort_record_written;
    Alcotest.test_case "garbage is discarded, not forwarded" `Quick
      test_discard_without_forward;
    Alcotest.test_case "long transactions forward and recirculate" `Quick
      test_forward_and_recirculate;
    Alcotest.test_case "recirculation off kills long transactions" `Quick
      test_no_recirc_kills;
    Alcotest.test_case "memory accounting matches the ledger" `Quick
      test_memory_accounting_matches_ledger;
    Alcotest.test_case "durable view lags buffered records" `Quick
      test_durable_records_only_after_write;
    Alcotest.test_case "occupancy never exceeds configured size" `Quick
      test_occupancy_bounded;
    Alcotest.test_case "deep invariants hold after whole simulations" `Quick
      test_invariants_after_runs;
    Alcotest.test_case "policy validation" `Quick test_policy_validation;
  ]

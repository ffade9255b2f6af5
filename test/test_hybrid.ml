open El_model
module Experiment = El_harness.Experiment
module Policy = El_core.Policy
module Hybrid = El_core.Hybrid_manager
module Mix = El_workload.Mix
module Tx = El_workload.Tx_type

(* A workload with many updates per transaction, where the hybrid's
   one-anchor-per-transaction memory model should shine (§6: "can
   drastically reduce main memory consumption if each transaction
   updates many objects, but at a price of higher bandwidth"). *)
let wide_mix =
  Mix.create
    [
      Tx.make ~name:"wide" ~probability:0.9 ~duration:(Time.of_sec 1)
        ~num_records:12 ~record_size:100;
      Tx.make ~name:"wide-long" ~probability:0.1 ~duration:(Time.of_sec 6)
        ~num_records:20 ~record_size:100;
    ]

let config kind =
  {
    (Experiment.default_config ~kind ~mix:wide_mix) with
    Experiment.runtime = Time.of_sec 60;
    arrival_rate = 40.0;
    num_objects = 100_000;
    flush_drives = 10;
    flush_transfer = Time.of_ms 8;
  }

let test_hybrid_runs_clean () =
  let r = Experiment.run (config (Experiment.Hybrid [| 64; 64 |])) in
  Alcotest.(check bool) "feasible" true r.Experiment.feasible;
  Alcotest.(check bool) "committed most transactions" true
    (r.Experiment.committed > 2200);
  match r.Experiment.stats with
  | [ Experiment.Hybrid_log_stats s ] ->
    Alcotest.(check int) "no queue unaccounted" r.Experiment.log_writes_total
      s.Hybrid.total_log_writes
  | _ -> Alcotest.fail "hybrid stats expected"

let test_hybrid_memory_beats_el () =
  let hybrid = Experiment.run (config (Experiment.Hybrid [| 64; 64 |])) in
  let el =
    Experiment.run
      (config (Experiment.Ephemeral (Policy.default ~generation_sizes:[| 64; 64 |])))
  in
  Alcotest.(check bool)
    (Printf.sprintf "hybrid uses less memory: %d vs %d"
       hybrid.Experiment.peak_memory_bytes el.Experiment.peak_memory_bytes)
    true
    (hybrid.Experiment.peak_memory_bytes
    < el.Experiment.peak_memory_bytes / 2)

let test_hybrid_pays_bandwidth_under_pressure () =
  (* Small queues force regeneration traffic: whole transactions are
     rewritten wholesale, so pressure costs bandwidth — the price §6
     predicts for the memory savings. *)
  let pressured = Experiment.run (config (Experiment.Hybrid [| 12; 24 |])) in
  let relaxed = Experiment.run (config (Experiment.Hybrid [| 64; 64 |])) in
  (match pressured.Experiment.stats with
  | [ Experiment.Hybrid_log_stats s ] ->
    Alcotest.(check bool) "regenerations happened" true
      (s.Hybrid.regenerations > 0);
    Alcotest.(check bool) "many records rewritten" true
      (s.Hybrid.regenerated_records > s.Hybrid.regenerations)
  | _ -> Alcotest.fail "hybrid stats expected");
  Alcotest.(check bool)
    (Printf.sprintf "regeneration premium: %.1f vs %.1f w/s"
       pressured.Experiment.log_write_rate relaxed.Experiment.log_write_rate)
    true
    (pressured.Experiment.log_write_rate > relaxed.Experiment.log_write_rate)

let test_hybrid_kills_when_hopeless () =
  (* Long transactions that outlive a tiny last queue get killed, like
     System R, when regeneration runs out of room. *)
  let mix =
    Mix.create
      [
        Tx.make ~name:"eternal" ~probability:0.1 ~duration:(Time.of_sec 50)
          ~num_records:30 ~record_size:100;
        Tx.make ~name:"short" ~probability:0.9 ~duration:(Time.of_ms 500)
          ~num_records:8 ~record_size:100;
      ]
  in
  let cfg =
    { (config (Experiment.Hybrid [| 6; 6 |])) with Experiment.mix = mix }
  in
  let r = Experiment.run cfg in
  Alcotest.(check bool) "kills recorded" true
    (r.Experiment.killed > 0 || r.Experiment.overloaded)

let test_validation () =
  let engine = El_sim.Engine.create () in
  let stable = El_disk.Stable_db.create ~num_objects:100 in
  let flush =
    El_disk.Flush_array.create engine ~drives:1
      ~transfer_time:(Time.of_ms 1) ~num_objects:100 ()
  in
  Alcotest.check_raises "queue too small"
    (Invalid_argument "Hybrid_manager.create: queue needs at least gap+2 blocks")
    (fun () ->
      ignore (Hybrid.create engine ~queue_sizes:[| 3 |] ~flush ~stable ()));
  let h = Hybrid.create engine ~queue_sizes:[| 8 |] ~flush ~stable () in
  Alcotest.check_raises "unknown tx"
    (Invalid_argument "Hybrid_manager: unknown transaction") (fun () ->
      Hybrid.write_data h ~tid:(Ids.Tid.of_int 7) ~oid:(Ids.Oid.of_int 1)
        ~version:1 ~size:10)

let suite =
  [
    Alcotest.test_case "hybrid completes a clean run" `Quick
      test_hybrid_runs_clean;
    Alcotest.test_case "hybrid memory beats EL on wide transactions" `Quick
      test_hybrid_memory_beats_el;
    Alcotest.test_case "hybrid pays bandwidth for regeneration" `Quick
      test_hybrid_pays_bandwidth_under_pressure;
    Alcotest.test_case "hybrid kills when regeneration cannot fit" `Quick
      test_hybrid_kills_when_hopeless;
    Alcotest.test_case "validation" `Quick test_validation;
  ]

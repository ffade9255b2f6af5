(* Tests for the extensions beyond the paper's base system: Poisson
   arrivals, FW checkpointing, recovery timing, adaptive sizing. *)

open El_model
module Experiment = El_harness.Experiment
module Policy = El_core.Policy
module Mix = El_workload.Mix
module G = El_workload.Generator

let el_manager (live : Experiment.live) =
  match live.Experiment.manager with
  | Experiment.El_log m -> m
  | Experiment.Fw_log _ | Experiment.Hybrid_log _ ->
    Alcotest.fail "an EL run expected"

(* ---- Poisson arrivals ---- *)

let count_arrivals ~process ~seed =
  let engine = El_sim.Engine.create ~seed () in
  let begins = ref [] in
  let sink =
    {
      G.begin_tx =
        (fun ~tid:_ ~expected_duration:_ ->
          begins := Time.to_us (El_sim.Engine.now engine) :: !begins);
      write_data = (fun ~tid:_ ~oid:_ ~version:_ ~size:_ -> ());
      request_commit = (fun ~tid:_ ~on_ack:_ -> ());
      request_abort = (fun ~tid:_ -> ());
    }
  in
  let _gen =
    G.create engine ~sink
      ~mix:(Mix.short_long ~long_fraction:0.0)
      ~arrival_rate:100.0 ~runtime:(Time.of_sec 20) ~arrival_process:process
      ~num_objects:1000 ()
  in
  El_sim.Engine.run engine ~until:(Time.of_sec 20);
  List.rev !begins

let test_poisson_rate () =
  let arrivals = count_arrivals ~process:G.Poisson ~seed:5 in
  let n = List.length arrivals in
  (* 100/s over 20 s: expect 2000 +- ~4.5 sigma *)
  Alcotest.(check bool) (Printf.sprintf "count ~2000 (got %d)" n) true
    (n > 1800 && n < 2200)

let test_poisson_is_irregular () =
  let arrivals = count_arrivals ~process:G.Poisson ~seed:5 in
  let gaps =
    List.map2
      (fun a b -> b - a)
      (List.filteri (fun i _ -> i < List.length arrivals - 1) arrivals)
      (List.tl arrivals)
  in
  let distinct = List.sort_uniq compare gaps in
  Alcotest.(check bool) "inter-arrival times vary" true
    (List.length distinct > 100);
  (* coefficient of variation of an exponential is 1 *)
  let n = float_of_int (List.length gaps) in
  let mean = List.fold_left ( + ) 0 gaps |> float_of_int |> fun s -> s /. n in
  let var =
    List.fold_left (fun acc g -> acc +. ((float_of_int g -. mean) ** 2.0)) 0.0 gaps
    /. n
  in
  let cv = sqrt var /. mean in
  Alcotest.(check bool) (Printf.sprintf "CV ~1 (got %.2f)" cv) true
    (cv > 0.85 && cv < 1.15)

let test_deterministic_is_regular () =
  let arrivals = count_arrivals ~process:G.Deterministic ~seed:5 in
  let gaps =
    List.map2
      (fun a b -> b - a)
      (List.filteri (fun i _ -> i < List.length arrivals - 1) arrivals)
      (List.tl arrivals)
  in
  Alcotest.(check (list int)) "single gap value" [ 10_000 ]
    (List.sort_uniq compare gaps)

let test_poisson_seeded_determinism () =
  Alcotest.(check (list int)) "same seed, same process"
    (count_arrivals ~process:G.Poisson ~seed:9)
    (count_arrivals ~process:G.Poisson ~seed:9)

let test_poisson_needs_more_space () =
  (* Burstiness raises the instantaneous span the FW log must cover. *)
  let cfg process =
    {
      (Experiment.default_config ~kind:(Experiment.Firewall 512)
         ~mix:(Mix.short_long ~long_fraction:0.05)) with
      Experiment.runtime = Time.of_sec 120;
      arrival_process = process;
    }
  in
  let peak process =
    match (Experiment.run (cfg process)).Experiment.stats with
    | [ Experiment.Fw_log_stats s ] -> s.El_core.Fw_manager.peak_occupancy
    | _ -> Alcotest.fail "fw stats"
  in
  let det = peak G.Deterministic and poisson = peak G.Poisson in
  Alcotest.(check bool)
    (Printf.sprintf "poisson peak >= deterministic (%d vs %d)" poisson det)
    true (poisson >= det)

(* ---- FW checkpointing ---- *)

let fw_cfg ?checkpointing () =
  let engine = El_sim.Engine.create () in
  let fw =
    El_core.Fw_manager.create engine ~size_blocks:64 ~block_payload:100
      ?checkpointing ()
  in
  (engine, fw)

let test_checkpoint_retains_committed () =
  (* Without checkpoints a committed tx releases its space at once;
     with them, release waits for the next checkpoint tick. *)
  let engine, fw =
    fw_cfg
      ~checkpointing:
        { El_core.Fw_manager.interval = Time.of_ms 500; cost_blocks = 2 }
      ()
  in
  let acks = ref 0 in
  for n = 1 to 10 do
    El_core.Fw_manager.begin_tx fw ~tid:(Ids.Tid.of_int n)
      ~expected_duration:(Time.of_sec 1);
    El_core.Fw_manager.write_data fw ~tid:(Ids.Tid.of_int n)
      ~oid:(Ids.Oid.of_int n) ~version:1 ~size:80;
    El_core.Fw_manager.request_commit fw ~tid:(Ids.Tid.of_int n)
      ~on_ack:(fun _ -> incr acks)
  done;
  El_sim.Engine.run engine ~until:(Time.of_ms 400);
  let before = (El_core.Fw_manager.stats fw).El_core.Fw_manager.peak_occupancy in
  Alcotest.(check bool) "space held before the checkpoint" true (before >= 9);
  El_sim.Engine.run engine ~until:(Time.of_sec 2);
  let stats = El_core.Fw_manager.stats fw in
  Alcotest.(check bool) "checkpoints ticked" true
    (stats.El_core.Fw_manager.checkpoints >= 3);
  Alcotest.(check int) "each cost 2 writes"
    (stats.El_core.Fw_manager.checkpoints * 2)
    stats.El_core.Fw_manager.checkpoint_writes

let test_checkpoint_bandwidth_overhead () =
  let mix = Mix.short_long ~long_fraction:0.05 in
  let base =
    {
      (Experiment.default_config ~kind:(Experiment.Firewall 512) ~mix) with
      Experiment.runtime = Time.of_sec 60;
    }
  in
  let ideal = Experiment.run base in
  (* checkpointed FW is not in Experiment's kind; drive it directly *)
  let engine = El_sim.Engine.create () in
  let fw =
    El_core.Fw_manager.create engine ~size_blocks:512
      ~checkpointing:
        { El_core.Fw_manager.interval = Time.of_sec 5; cost_blocks = 4 }
      ()
  in
  let sink =
    {
      G.begin_tx =
        (fun ~tid ~expected_duration ->
          El_core.Fw_manager.begin_tx fw ~tid ~expected_duration);
      write_data =
        (fun ~tid ~oid ~version ~size ->
          El_core.Fw_manager.write_data fw ~tid ~oid ~version ~size);
      request_commit =
        (fun ~tid ~on_ack -> El_core.Fw_manager.request_commit fw ~tid ~on_ack);
      request_abort = (fun ~tid -> El_core.Fw_manager.request_abort fw ~tid);
    }
  in
  let generator =
    G.create engine ~sink ~mix ~arrival_rate:100.0 ~runtime:(Time.of_sec 60)
      ~num_objects:Params.num_objects ()
  in
  El_core.Fw_manager.set_on_kill fw (fun tid -> G.kill generator tid);
  El_sim.Engine.run engine ~until:(Time.of_sec 60);
  let stats = El_core.Fw_manager.stats fw in
  Alcotest.(check int) "12 checkpoints in 60 s" 12
    stats.El_core.Fw_manager.checkpoints;
  Alcotest.(check bool)
    (Printf.sprintf "bandwidth exceeds the ideal FW's (%d vs %d writes)"
       stats.El_core.Fw_manager.log_writes ideal.Experiment.log_writes_total)
    true
    (stats.El_core.Fw_manager.log_writes
    > ideal.Experiment.log_writes_total + 40);
  Alcotest.(check bool)
    (Printf.sprintf "space exceeds the ideal FW's (%d vs ~121)"
       stats.El_core.Fw_manager.peak_occupancy)
    true
    (stats.El_core.Fw_manager.peak_occupancy > 121)

(* ---- recovery timing ---- *)

let test_timing_model () =
  let open El_recovery.Timing in
  let t = single_pass ~regions:2 ~blocks:28 ~records:500 () in
  (* 2*15ms + 28*1ms + 500*20us = 68 ms: well under a second, the
     paper's claim for a 28-block log *)
  Alcotest.(check int) "EL estimate" 68_000 (Time.to_us t);
  let fw = fw_two_pass ~blocks:123 ~records:2400 () in
  Alcotest.(check int) "FW two-pass estimate" 372_000 (Time.to_us fw);
  Alcotest.(check bool) "EL recovers much faster" true Time.(t < fw)

let test_timing_estimate_from_image () =
  let policy = Policy.default ~generation_sizes:[| 8; 8 |] in
  let cfg =
    {
      (Experiment.default_config ~kind:(Experiment.Ephemeral policy)
         ~mix:(Mix.short_long ~long_fraction:0.05)) with
      Experiment.runtime = Time.of_sec 30;
    }
  in
  let live = Experiment.prepare cfg in
  El_sim.Engine.run live.Experiment.engine ~until:(Time.of_sec 20);
  let image =
    El_recovery.Recovery.crash live.Experiment.engine (el_manager live)
  in
  let result = El_recovery.Recovery.recover image in
  let t = El_recovery.Timing.estimate image result in
  Alcotest.(check bool)
    (Format.asprintf "sub-second recovery (%a)" El_recovery.Timing.pp t)
    true
    Time.(t < Time.of_sec 1)

let test_timing_validation () =
  Alcotest.check_raises "negative inputs"
    (Invalid_argument "Timing.single_pass: negative inputs") (fun () ->
      ignore (El_recovery.Timing.single_pass ~regions:(-1) ~blocks:0 ~records:0 ()))

(* ---- adaptive sizing ---- *)

let adaptive_cfg () =
  {
    (Experiment.default_config
       ~kind:
         (Experiment.Ephemeral (Policy.default ~generation_sizes:[| 30; 60 |]))
       ~mix:(Mix.short_long ~long_fraction:0.05)) with
    Experiment.runtime = Time.of_sec 60;
  }

let test_adaptive_shrinks () =
  let outcome =
    El_harness.Adaptive.tune (adaptive_cfg ()) ~initial:[| 30; 60 |] ()
  in
  let total = Array.fold_left ( + ) 0 outcome.El_harness.Adaptive.final_sizes in
  Alcotest.(check bool) "converged" true outcome.El_harness.Adaptive.converged;
  Alcotest.(check bool) (Printf.sprintf "shrank 90 -> %d" total) true
    (total < 60);
  Alcotest.(check bool) "final configuration healthy" true
    outcome.El_harness.Adaptive.final_result.Experiment.feasible;
  (* the trajectory must never report an infeasible *final*: the best
     recorded configuration is feasible by construction *)
  Alcotest.(check bool) "trajectory non-empty" true
    (List.length outcome.El_harness.Adaptive.trajectory > 2)

let test_adaptive_near_optimal () =
  let outcome =
    El_harness.Adaptive.tune (adaptive_cfg ()) ~initial:[| 24; 40 |]
      ~shrink_step:2 ()
  in
  let total = Array.fold_left ( + ) 0 outcome.El_harness.Adaptive.final_sizes in
  (* the paper's minimum at this mix is 28 with recirculation; the
     greedy controller should land within a handful of blocks *)
  Alcotest.(check bool) (Printf.sprintf "close to minimal (%d)" total) true
    (total <= 40)

let test_adaptive_rejects_bad_start () =
  Alcotest.check_raises "unhealthy start"
    (Invalid_argument "Adaptive.tune: initial configuration is already unhealthy")
    (fun () ->
      ignore
        (El_harness.Adaptive.tune
           { (adaptive_cfg ()) with Experiment.runtime = Time.of_sec 30 }
           ~make_policy:(fun sizes ->
             {
               (Policy.default ~generation_sizes:sizes) with
               Policy.recirculate = false;
             })
           ~initial:[| 4; 4 |] ()))

(* The controller sizes EL generations only: another kind is refused,
   not silently replaced by EL. *)
let test_adaptive_rejects_other_kinds () =
  List.iter
    (fun kind ->
      Alcotest.check_raises "non-EL kind"
        (Invalid_argument "Adaptive.tune: only an EL log has generations to tune")
        (fun () ->
          ignore
            (El_harness.Adaptive.tune
               { (adaptive_cfg ()) with Experiment.kind }
               ~initial:[| 30; 60 |] ())))
    [ Experiment.Firewall 200; Experiment.Hybrid [| 12; 12 |] ]

(* Statistical pin on the Poisson process: at 100 TPS the mean
   inter-arrival time must sit within 5 % of 1/rate = 10 ms (for
   ~2000 samples the standard error is ~224 us, so 500 us is a
   comfortable bound for a fixed seed), and the whole arrival sequence
   must be reproducible from the seed. *)
let test_poisson_mean_interarrival () =
  let arrivals = count_arrivals ~process:G.Poisson ~seed:11 in
  Alcotest.(check (list int)) "same seed, identical arrival times" arrivals
    (count_arrivals ~process:G.Poisson ~seed:11);
  let gaps =
    List.map2
      (fun a b -> b - a)
      (List.filteri (fun i _ -> i < List.length arrivals - 1) arrivals)
      (List.tl arrivals)
  in
  let n = float_of_int (List.length gaps) in
  let mean = float_of_int (List.fold_left ( + ) 0 gaps) /. n in
  Alcotest.(check bool)
    (Printf.sprintf "mean inter-arrival within 5%% of 10ms (got %.0f us)" mean)
    true
    (abs_float (mean -. 10_000.0) < 500.0)

let suite =
  [
    Alcotest.test_case "poisson arrival rate" `Quick test_poisson_rate;
    Alcotest.test_case "poisson mean inter-arrival ~ 1/rate" `Quick
      test_poisson_mean_interarrival;
    Alcotest.test_case "poisson irregularity (CV~1)" `Quick
      test_poisson_is_irregular;
    Alcotest.test_case "deterministic regularity" `Quick
      test_deterministic_is_regular;
    Alcotest.test_case "poisson is seeded-deterministic" `Quick
      test_poisson_seeded_determinism;
    Alcotest.test_case "burstiness costs FW space" `Quick
      test_poisson_needs_more_space;
    Alcotest.test_case "checkpoints retain committed records" `Quick
      test_checkpoint_retains_committed;
    Alcotest.test_case "checkpointing costs bandwidth and space" `Quick
      test_checkpoint_bandwidth_overhead;
    Alcotest.test_case "recovery timing model" `Quick test_timing_model;
    Alcotest.test_case "sub-second recovery from a real image" `Quick
      test_timing_estimate_from_image;
    Alcotest.test_case "timing validation" `Quick test_timing_validation;
    Alcotest.test_case "adaptive controller shrinks to health" `Slow
      test_adaptive_shrinks;
    Alcotest.test_case "adaptive controller lands near minimal" `Slow
      test_adaptive_near_optimal;
    Alcotest.test_case "adaptive controller rejects unhealthy starts" `Quick
      test_adaptive_rejects_bad_start;
    Alcotest.test_case "adaptive controller refuses non-EL kinds" `Quick
      test_adaptive_rejects_other_kinds;
  ]

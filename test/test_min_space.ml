open El_model
module Experiment = El_harness.Experiment
module Min_space = El_harness.Min_space
module Policy = El_core.Policy
module Mix = El_workload.Mix

(* A synthetic result for exercising the search logic without
   simulations. *)
let fake_result ~feasible =
  let probe_cfg =
    Experiment.default_config ~kind:(Experiment.Firewall 8)
      ~mix:(Mix.short_long ~long_fraction:0.05)
  in
  let cfg = { probe_cfg with Experiment.runtime = Time.of_ms 1 } in
  let r = Experiment.run cfg in
  (* runtime 1 ms: nothing happened; doctor the feasibility flag *)
  { r with Experiment.feasible }

let test_binary_search_logic () =
  let calls = ref [] in
  let threshold = 37 in
  let probe n =
    calls := n :: !calls;
    fake_result ~feasible:(n >= threshold)
  in
  (match Min_space.min_feasible ~lo:4 ~hi:128 probe with
  | Some (n, r) ->
    Alcotest.(check int) "finds the threshold" threshold n;
    Alcotest.(check bool) "result is the feasible one" true r.Experiment.feasible
  | None -> Alcotest.fail "expected a result");
  Alcotest.(check bool) "logarithmic probe count" true (List.length !calls <= 9)

let test_search_all_infeasible () =
  let probe _ = fake_result ~feasible:false in
  Alcotest.(check bool) "None when hi infeasible" true
    (Min_space.min_feasible ~lo:4 ~hi:64 probe = None)

let test_search_all_feasible () =
  match Min_space.min_feasible ~lo:4 ~hi:64 (fun _ -> fake_result ~feasible:true) with
  | Some (n, _) -> Alcotest.(check int) "lo returned" 4 n
  | None -> Alcotest.fail "expected lo"

let test_bracket_mode_logic () =
  (* Speculative bracket mode (jobs > 1) must land on the same
     boundary as the serial binary search; an odd job count exercises
     uneven candidate spacing. *)
  El_par.Pool.with_pool ~jobs:3 (fun pool ->
      let threshold = 37 in
      let probe n = fake_result ~feasible:(n >= threshold) in
      (match Min_space.min_feasible ~pool ~lo:4 ~hi:128 probe with
      | Some (n, r) ->
        Alcotest.(check int) "bracket finds the threshold" threshold n;
        Alcotest.(check bool) "result is the feasible one" true
          r.Experiment.feasible
      | None -> Alcotest.fail "expected a result");
      (match Min_space.min_feasible ~pool ~lo:4 ~hi:64 (fun _ ->
                 fake_result ~feasible:true)
       with
      | Some (n, _) -> Alcotest.(check int) "all-feasible returns lo" 4 n
      | None -> Alcotest.fail "expected lo");
      Alcotest.(check bool) "all-infeasible returns None" true
        (Min_space.min_feasible ~pool ~lo:4 ~hi:64 (fun _ ->
             fake_result ~feasible:false)
        = None))

let test_empty_range () =
  Alcotest.check_raises "lo>hi"
    (Invalid_argument "Min_space.min_feasible: empty range") (fun () ->
      ignore
        (Min_space.min_feasible ~lo:5 ~hi:4 (fun _ ->
             fake_result ~feasible:true)))

(* Real (short) searches: 30 s runs with a fast mix so the suite stays
   quick while exercising the full pipeline. *)

let quick_cfg () =
  {
    (Experiment.default_config ~kind:(Experiment.Firewall 64)
       ~mix:(Mix.short_long ~long_fraction:0.05)) with
    Experiment.runtime = Time.of_sec 30;
  }

let test_min_fw_end_to_end () =
  let blocks, result = Min_space.min_fw (quick_cfg ()) in
  Alcotest.(check bool)
    (Printf.sprintf "FW minimum near 123 (got %d)" blocks)
    true
    (blocks >= 110 && blocks <= 135);
  Alcotest.(check bool) "result feasible" true result.Experiment.feasible;
  (* One block less must be infeasible: minimality. *)
  let r =
    Experiment.run
      { (quick_cfg ()) with Experiment.kind = Experiment.Firewall (blocks - 1) }
  in
  Alcotest.(check bool) "one less kills" true (not r.Experiment.feasible)

(* A sharded search sizes every shard's log alike and brackets on the
   largest shard's peak occupancy. *)
let test_min_fw_sharded () =
  let cfg =
    {
      (El_check.Sweep.standard_config ~kind:(Experiment.Firewall 120) ~seed:3
         ())
      with
      Experiment.shards = 2;
    }
  in
  let run = El_shard.Shard_group.run_global in
  let blocks, result = Min_space.min_fw ~run cfg in
  Alcotest.(check int) "13 blocks per shard" 13 blocks;
  Alcotest.(check bool) "result feasible" true result.Experiment.feasible;
  Alcotest.(check int) "stats for each shard" 2
    (List.length result.Experiment.stats);
  let r = run { cfg with Experiment.kind = Experiment.Firewall 12 } in
  Alcotest.(check bool) "12 blocks per shard kill" false r.Experiment.feasible

let test_min_el_last_gen_end_to_end () =
  let make_policy sizes =
    { (Policy.default ~generation_sizes:sizes) with Policy.recirculate = false }
  in
  match
    Min_space.min_el_last_gen (quick_cfg ()) ~make_policy ~leading:[| 18 |]
      ~hi:64
  with
  | Some (g1, result) ->
    Alcotest.(check bool)
      (Printf.sprintf "gen1 minimum near 16 (got %d)" g1)
      true (g1 >= 10 && g1 <= 22);
    Alcotest.(check bool) "feasible" true result.Experiment.feasible
  | None -> Alcotest.fail "expected a feasible last-generation size"

let suite =
  [
    Alcotest.test_case "binary search finds the boundary" `Quick
      test_binary_search_logic;
    Alcotest.test_case "all-infeasible returns None" `Quick
      test_search_all_infeasible;
    Alcotest.test_case "all-feasible returns lo" `Quick test_search_all_feasible;
    Alcotest.test_case "empty range rejected" `Quick test_empty_range;
    Alcotest.test_case "bracket mode matches binary search" `Quick
      test_bracket_mode_logic;
    Alcotest.test_case "FW minimum-space search (30s runs)" `Slow
      test_min_fw_end_to_end;
    Alcotest.test_case "FW minimum-space search at 2 shards" `Quick
      test_min_fw_sharded;
    Alcotest.test_case "EL last-generation search (30s runs)" `Slow
      test_min_el_last_gen_end_to_end;
  ]

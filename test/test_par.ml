(* The parallel sweep runner's tests: Pool.map laws (submission-order
   results, exception propagation after the batch drains, jobs = 1 =
   List.map), and the differential harness proving serial ≡ parallel
   for whole experiments, min-space searches and crash-point sweeps —
   parallelism must never change a result, mask a violation or
   reorder a finding. *)

open El_model
module Pool = El_par.Pool
module Experiment = El_harness.Experiment
module Min_space = El_harness.Min_space
module Paper = El_harness.Paper
module Policy = El_core.Policy
module Sweep = El_check.Sweep
module J = El_obs.Jsonx

(* One shared 4-worker pool for the whole suite: creating it lazily
   keeps `alcotest test par -q`-style filtered runs domain-free, and
   reusing it across tests also exercises batch-after-batch reuse. *)
let pool4 = lazy (Pool.create ~jobs:4)
let pool () = Lazy.force pool4
let () = at_exit (fun () -> if Lazy.is_val pool4 then Pool.shutdown (pool ()))

(* ---- Pool.map laws ---- *)

(* Deterministic busy-work whose duration varies per job, so workers
   finish out of submission order and the order-restoring collection
   actually gets exercised. *)
let burn cost =
  let acc = ref 0 in
  for i = 1 to cost do
    acc := ((!acc * 31) + i) land 0xffff
  done;
  !acc

let prop_map_is_list_map =
  QCheck.Test.make
    ~name:"Pool.map = List.map: submission order at jobs 4, oracle at jobs 1"
    ~count:25
    QCheck.(pair (int_range 0 200) (int_range 0 1000))
    (fun (n, salt) ->
      (* shuffled artificial costs: neighbours differ wildly *)
      let items = List.init n (fun i -> (i, salt * (i + 7) mod 997 * 50)) in
      let f (i, cost) = (i, burn cost) in
      let oracle = List.map f items in
      Pool.map (pool ()) f items = oracle
      && Pool.with_pool ~jobs:1 (fun p -> Pool.map p f items) = oracle)

exception Boom of int

let test_map_exception_after_drain () =
  let p = pool () in
  let ran = Array.make 50 false in
  (try
     ignore
       (Pool.map p
          (fun i ->
            if i = 17 then raise (Boom i);
            ran.(i) <- true;
            i)
          (List.init 50 Fun.id));
     Alcotest.fail "expected Boom 17 to propagate"
   with Boom 17 -> ());
  (* the batch drained before the re-raise: every other job ran *)
  Alcotest.(check int) "all 49 non-raising jobs completed" 49
    (Array.fold_left (fun a b -> if b then a + 1 else a) 0 ran);
  (* and the pool is still usable afterwards *)
  Alcotest.(check (list int))
    "pool survives a raising batch" [ 0; 1; 2; 3 ]
    (Pool.map p Fun.id [ 0; 1; 2; 3 ])

let test_map_reduce_order () =
  (* a non-commutative reduction: order-sensitive, so it proves the
     fold sees pool results in submission order *)
  let items = List.init 40 string_of_int in
  let serial = String.concat "," items in
  Alcotest.(check string) "map_reduce folds in submission order" serial
    (Pool.map_reduce (pool ())
       ~map:(fun s ->
         ignore (burn (String.length s * 997));
         s)
       ~reduce:(fun acc s -> if acc = "" then s else acc ^ "," ^ s)
       ~init:"" items)

let test_create_rejects_zero_jobs () =
  Alcotest.check_raises "jobs = 0 rejected"
    (Invalid_argument "Pool.create: jobs must be >= 1") (fun () ->
      ignore (Pool.create ~jobs:0))

(* ---- differential determinism: experiments ---- *)

(* The el-bench/1-style fragment a bench section would emit for one
   run; compared byte-for-byte between serial and parallel replays. *)
let result_json (r : Experiment.result) =
  J.to_string
    (J.Obj
       [
         ("committed", J.Int r.Experiment.committed);
         ("killed", J.Int r.Experiment.killed);
         ("log_writes_total", J.Int r.Experiment.log_writes_total);
         ("log_write_rate", J.Float r.Experiment.log_write_rate);
         ("peak_memory_bytes", J.Int r.Experiment.peak_memory_bytes);
         ("updates_per_sec", J.Float r.Experiment.updates_per_sec);
         ("commit_latency_mean", J.Float r.Experiment.commit_latency_mean);
         ("feasible", J.Bool r.Experiment.feasible);
       ])

let test_experiments_serial_equals_parallel () =
  let configs =
    List.concat_map
      (fun (_, kind) ->
        List.map
          (fun seed ->
            Sweep.standard_config ~kind ~runtime:(Time.of_sec 6) ~seed ())
          [ 1; 42; 1234 ])
      (Sweep.standard_kinds ())
  in
  let serial = List.map Experiment.run configs in
  let parallel = Pool.map (pool ()) Experiment.run configs in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "run %d: Marshal byte-identical" i)
        true
        (Marshal.to_string a [] = Marshal.to_string b []);
      Alcotest.(check string)
        (Printf.sprintf "run %d: el-bench JSON fragment identical" i)
        (result_json a) (result_json b))
    (List.combine serial parallel)

(* ---- crash-sweep equivalence ---- *)

let check_same_outcome name (a : Sweep.outcome) (b : Sweep.outcome) =
  let l fmt = Printf.sprintf ("%s: " ^^ fmt) name in
  Alcotest.(check (list (pair int string)))
    (l "same (event-index, violation) set")
    a.Sweep.failures b.Sweep.failures;
  Alcotest.(check int) (l "same events") a.Sweep.events b.Sweep.events;
  Alcotest.(check int) (l "same pauses") a.Sweep.points b.Sweep.points;
  Alcotest.(check int) (l "same recoveries") a.Sweep.recoveries b.Sweep.recoveries;
  Alcotest.(check int) (l "same committed") a.Sweep.committed b.Sweep.committed;
  Alcotest.(check int) (l "same killed") a.Sweep.killed b.Sweep.killed;
  Alcotest.(check bool) (l "same overload") a.Sweep.overloaded b.Sweep.overloaded;
  Alcotest.(check int)
    (l "same max scan")
    a.Sweep.max_records_scanned b.Sweep.max_records_scanned

let test_sweep_serial_equals_parallel () =
  List.iter
    (fun (name, kind) ->
      let cfg =
        Sweep.standard_config ~kind ~runtime:(Time.of_sec 10) ~seed:7 ()
      in
      let serial = Sweep.run ~stride:50 cfg in
      let parallel = Sweep.run ~pool:(pool ()) ~stride:50 cfg in
      check_same_outcome name serial parallel;
      Alcotest.(check bool)
        (name ^ ": sweep saw pauses")
        true
        (serial.Sweep.points > 10))
    (Sweep.standard_kinds ())

(* A sweep that ends in disaster: a starved two-block-over-gap EL
   chain with recirculation off overloads under load.  The parallel
   sweep must report the exact same failure at the exact same event —
   parallelism can never mask a violation. *)
let test_sweep_failure_not_masked () =
  let policy =
    {
      (Policy.default ~generation_sizes:[| 3; 3 |]) with
      Policy.recirculate = false;
    }
  in
  let cfg =
    Sweep.standard_config
      ~kind:(Experiment.Ephemeral policy)
      ~runtime:(Time.of_sec 10) ~rate:80.0 ~seed:11 ()
  in
  let serial = Sweep.run ~stride:50 cfg in
  let parallel = Sweep.run ~pool:(pool ()) ~stride:50 cfg in
  check_same_outcome "starved el" serial parallel;
  Alcotest.(check bool)
    "the config actually misbehaves (overload or kills)" true
    (serial.Sweep.overloaded || serial.Sweep.killed > 0
    || serial.Sweep.failures <> [])

(* ---- min-space: bracket mode ≡ binary search ---- *)

(* Pure search-logic equivalence on synthetic monotone probes: for
   every threshold the bracket mode must land exactly where the
   binary search does, with the same probe result. *)
let fake_probe_cfg =
  lazy
    {
      (Experiment.default_config ~kind:(Experiment.Firewall 8)
         ~mix:(El_workload.Mix.short_long ~long_fraction:0.05)) with
      Experiment.runtime = Time.of_ms 1;
    }

let fake_result ~feasible =
  let r = Experiment.run (Lazy.force fake_probe_cfg) in
  { r with Experiment.feasible }

let prop_bracket_equals_binary =
  QCheck.Test.make ~name:"bracket search = binary search (synthetic probes)"
    ~count:40
    QCheck.(pair (int_range 4 80) (int_range 0 90))
    (fun (lo, extra) ->
      let hi = lo + extra in
      let threshold = lo + (extra * 3 / 4) in
      let probe n = fake_result ~feasible:(n >= threshold) in
      let serial = Min_space.min_feasible ~lo ~hi probe in
      let bracket = Min_space.min_feasible ~pool:(pool ()) ~lo ~hi probe in
      match (serial, bracket) with
      | Some (a, _), Some (b, _) -> a = b && a = threshold
      | None, None -> true
      | _ -> false)

(* The regression the satellite pins: on the Figure 4 mix endpoints
   (5% and 40% long transactions, shortened runs), the speculative
   bracket returns the same minimum block count as the serial binary
   search — for the EL last-generation search and the FW baseline. *)
let test_bracket_matches_binary_on_fig4_endpoints () =
  (* A recirculating chain with a small fixed first generation stays
     feasible across the whole mix range (4+10 at 5%% long, 4+39 at
     40%%), so both endpoints exercise a real boundary search. *)
  let make_policy sizes = Policy.default ~generation_sizes:sizes in
  List.iter
    (fun long_pct ->
      let cfg =
        {
          (Paper.base_config ~kind:(Experiment.Firewall 512) ~long_pct ()) with
          Experiment.runtime = Time.of_sec 30;
        }
      in
      (match
         ( Min_space.min_el_last_gen cfg ~make_policy ~leading:[| 4 |] ~hi:256,
           Min_space.min_el_last_gen ~pool:(pool ()) cfg ~make_policy
             ~leading:[| 4 |] ~hi:256 )
       with
      | Some (serial_g1, serial_r), Some (bracket_g1, bracket_r) ->
        Alcotest.(check int)
          (Printf.sprintf "%d%% mix: same EL last-gen minimum" long_pct)
          serial_g1 bracket_g1;
        Alcotest.(check bool)
          (Printf.sprintf "%d%% mix: same probe result at the minimum" long_pct)
          true
          (Marshal.to_string serial_r [] = Marshal.to_string bracket_r [])
      | None, None ->
        Alcotest.fail
          (Printf.sprintf "%d%% mix: no feasible last generation" long_pct)
      | _ ->
        Alcotest.fail
          (Printf.sprintf "%d%% mix: serial and bracket disagree on feasibility"
             long_pct));
      let serial_fw, _ = Min_space.min_fw cfg in
      let bracket_fw, _ = Min_space.min_fw ~pool:(pool ()) cfg in
      Alcotest.(check int)
        (Printf.sprintf "%d%% mix: same FW minimum" long_pct)
        serial_fw bracket_fw)
    [ 5; 40 ]

(* ---- sharded sweep equivalence ---- *)

(* The sharded composite oracle under the pool: a jobs-4 sweep at
   shards in {2, 4} must produce the whole outcome — including the
   cross-shard counters and atomic-commit checks — byte-identical to
   the serial sweep's. *)
let test_sharded_sweep_serial_equals_parallel () =
  let kind = List.assoc "el" (Sweep.standard_kinds ()) in
  List.iter
    (fun shards ->
      let cfg =
        {
          (Sweep.standard_config ~kind ~runtime:(Time.of_sec 12) ~seed:7 ())
          with
          Experiment.shards;
        }
      in
      let serial = Sweep.run ~stride:50 ~spec:true cfg in
      let parallel = Sweep.run ~pool:(pool ()) ~stride:50 ~spec:true cfg in
      Alcotest.(check bool)
        (Printf.sprintf "%d shards: outcome Marshal byte-identical" shards)
        true
        (Marshal.to_string serial [] = Marshal.to_string parallel []);
      Alcotest.(check bool)
        (Printf.sprintf "%d shards: sweep saw pauses" shards)
        true
        (serial.Sweep.points > 10);
      Alcotest.(check bool)
        (Printf.sprintf "%d shards: atomic checks ran" shards)
        true
        (serial.Sweep.atomic_checks > 0))
    [ 2; 4 ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_map_is_list_map;
    Alcotest.test_case "exception propagates after the batch drains" `Quick
      test_map_exception_after_drain;
    Alcotest.test_case "map_reduce folds in submission order" `Quick
      test_map_reduce_order;
    Alcotest.test_case "create rejects jobs = 0" `Quick
      test_create_rejects_zero_jobs;
    Alcotest.test_case
      "3 seeds x {EL,FW,Hybrid}: serial = parallel (Marshal + JSON)" `Quick
      test_experiments_serial_equals_parallel;
    Alcotest.test_case "crash sweep: --jobs 4 = serial on all kinds" `Quick
      test_sweep_serial_equals_parallel;
    Alcotest.test_case "crash sweep: parallelism cannot mask a failure" `Quick
      test_sweep_failure_not_masked;
    Alcotest.test_case "sharded sweep: --jobs 4 = serial at 2 and 4 shards"
      `Quick test_sharded_sweep_serial_equals_parallel;
    QCheck_alcotest.to_alcotest prop_bracket_equals_binary;
    Alcotest.test_case "bracket = binary search on Fig. 4 endpoints (30s runs)"
      `Slow test_bracket_matches_binary_on_fig4_endpoints;
  ]

(* The multi-shard scale-out's tests: partitioner laws, a QCheck
   state-machine model of the two-phase-commit lifecycle against a
   reference, deterministic crash-point sweeps under the sharded
   composite oracle, and the Marshal identity pinning a 1-shard group
   to the solo path. *)

open El_model
module Experiment = El_harness.Experiment
module Partition = El_shard.Partition
module Two_pc = El_shard.Two_pc
module Shard_group = El_shard.Shard_group
module Sweep = El_check.Sweep

(* ---- partitioner ---- *)

let test_partition_ranges () =
  List.iter
    (fun (shards, num_objects) ->
      let p = Partition.create ~shards ~num_objects () in
      (* ranges tile [0, num_objects) in order, near-equal widths *)
      let cursor = ref 0 in
      let min_w = ref max_int and max_w = ref 0 in
      for s = 0 to shards - 1 do
        let lo, hi = Partition.range p s in
        Alcotest.(check int)
          (Printf.sprintf "%d/%d: range %d starts at the cursor" shards
             num_objects s)
          !cursor lo;
        Alcotest.(check bool)
          (Printf.sprintf "%d/%d: range %d non-empty" shards num_objects s)
          true (hi > lo);
        min_w := min !min_w (hi - lo);
        max_w := max !max_w (hi - lo);
        cursor := hi
      done;
      Alcotest.(check int)
        (Printf.sprintf "%d/%d: ranges cover the data space" shards
           num_objects)
        num_objects !cursor;
      Alcotest.(check bool)
        (Printf.sprintf "%d/%d: widths within one" shards num_objects)
        true
        (!max_w - !min_w <= 1);
      (* owner agrees with the ranges on every data oid *)
      for o = 0 to num_objects - 1 do
        let s = Partition.owner p (Ids.Oid.of_int o) in
        let lo, hi = Partition.range p s in
        if not (lo <= o && o < hi) then
          Alcotest.fail
            (Printf.sprintf "%d/%d: owner/range disagree on oid %d" shards
               num_objects o)
      done)
    [ (1, 10); (2, 11); (3, 100); (4, 97); (7, 7) ]

let test_partition_ctl_region () =
  let p = Partition.create ~ctl_slots:16 ~shards:3 ~num_objects:99 () in
  Alcotest.(check int) "total = data + ctl" (99 + (3 * 16))
    (Partition.total_objects p);
  for s = 0 to 2 do
    for slot = 0 to 15 do
      let oid = Partition.ctl_oid p ~shard:s ~slot in
      Alcotest.(check bool)
        (Printf.sprintf "ctl oid (%d, %d) above the data range" s slot)
        true
        (Ids.Oid.to_int oid >= 99);
      Alcotest.(check int)
        (Printf.sprintf "ctl oid (%d, %d) routes home" s slot)
        s
        (Partition.owner p oid);
      Alcotest.(check bool)
        (Printf.sprintf "ctl oid (%d, %d) is control" s slot)
        true (Partition.is_ctl p oid)
    done
  done;
  Alcotest.(check bool) "data oid is not control" false
    (Partition.is_ctl p (Ids.Oid.of_int 98));
  (* a 1-shard partition keeps the solo oid space untouched *)
  let solo = Partition.create ~ctl_slots:16 ~shards:1 ~num_objects:99 () in
  Alcotest.(check int) "solo: no control region" 0 (Partition.ctl_slots solo);
  Alcotest.(check int) "solo: total = data" 99 (Partition.total_objects solo)

let test_partition_coordinator () =
  let p = Partition.create ~shards:4 ~num_objects:40 () in
  List.iter
    (fun gtid ->
      Alcotest.(check int)
        (Printf.sprintf "coordinator of %d" gtid)
        (gtid mod 4)
        (Partition.coordinator p ~gtid))
    [ 0; 1; 5; 42; 1234 ]

let test_partition_validation () =
  Alcotest.check_raises "shards = 0 rejected"
    (Invalid_argument "Partition.create: shards must be >= 1") (fun () ->
      ignore (Partition.create ~shards:0 ~num_objects:10 ()));
  Alcotest.check_raises "fewer objects than shards rejected"
    (Invalid_argument "Partition.create: fewer objects than shards") (fun () ->
      ignore (Partition.create ~shards:4 ~num_objects:3 ()))

(* ---- 2PC lifecycle: QCheck state machine vs. a reference model ---- *)

(* The reference: phases as the mli defines them, pending acks as a
   plain list.  The generated script interleaves branch acks with an
   optional kill or abort at a random step; the implementation must
   agree with the reference at every step. *)

type script_event = Touch of int | Abort_now | Kill_now | Ack of int | Decide

let script_gen =
  let open QCheck.Gen in
  int_range 2 4 >>= fun shards ->
  int_range 1 shards >>= fun n_parts ->
  (* participants in first-touch order: a rotation keeps them distinct *)
  int_range 0 (shards - 1) >>= fun start ->
  let parts = List.init n_parts (fun i -> (start + i) mod shards) in
  let acks = List.map (fun s -> Ack s) parts in
  (* shuffle the ack order *)
  shuffle_l acks >>= fun acks ->
  (* disruption: nothing, a client abort before prepare, or a kill
     inserted at a random point of the protocol *)
  int_range 0 3 >>= fun disruption ->
  int_range 0 (List.length acks) >>= fun kill_at ->
  int_range 0 1000 >>= fun gtid ->
  let touches = List.map (fun s -> Touch s) parts in
  let script =
    match disruption with
    | 0 -> touches @ [ Abort_now ]
    | 1 ->
      (* kill at [kill_at] acks in: mid-Preparing, or mid-Deciding
         when every ack already fired *)
      let before = List.filteri (fun i _ -> i < kill_at) acks in
      touches @ before @ [ Kill_now ]
    | _ -> touches @ acks @ [ Decide ]
  in
  return (gtid, shards, parts, script)

let script_print (gtid, shards, parts, script) =
  Printf.sprintf "gtid %d, %d shards, parts [%s], script [%s]" gtid shards
    (String.concat ";" (List.map string_of_int parts))
    (String.concat ";"
       (List.map
          (function
            | Touch s -> Printf.sprintf "touch %d" s
            | Abort_now -> "abort"
            | Kill_now -> "kill"
            | Ack s -> Printf.sprintf "ack %d" s
            | Decide -> "decide")
          script))

let prop_two_pc_model =
  QCheck.Test.make ~name:"Two_pc agrees with the reference lifecycle"
    ~count:500
    (QCheck.make ~print:script_print script_gen)
    (fun (gtid, shards, parts, script) ->
      let coordinator = gtid mod shards in
      let t = Two_pc.create ~gtid ~coordinator in
      let ok = ref true in
      let check b = if not b then ok := false in
      check (Two_pc.gtid t = gtid);
      check (Two_pc.coordinator t = coordinator);
      (* reference state *)
      let touched = ref [] in
      let pending = ref [] in
      let started = ref false in
      List.iter
        (fun ev ->
          match ev with
          | Touch s ->
            let expect = if List.mem s !touched then `Already else `Begun in
            if not (List.mem s !touched) then touched := !touched @ [ s ];
            check (Two_pc.touch t ~shard:s = expect);
            check (Two_pc.participants t = !touched);
            check (Two_pc.phase t = Two_pc.Running)
          | Abort_now ->
            Two_pc.abort t;
            check (Two_pc.phase t = Two_pc.Aborted)
          | Kill_now ->
            if not !started then begin
              started := true;
              let ps = Two_pc.start_commit t in
              check (ps = !touched);
              pending := !touched
            end;
            (* mid-protocol kill: the client blocks, never a
               generator-visible death *)
            check (Two_pc.kill t = `Blocked);
            check (Two_pc.phase t = Two_pc.Blocked);
            (* idempotent once dead *)
            check (Two_pc.kill t = `Blocked)
          | Ack s ->
            if not !started then begin
              started := true;
              let ps = Two_pc.start_commit t in
              check (ps = !touched);
              pending := !touched
            end;
            pending := List.filter (fun x -> x <> s) !pending;
            let expect = if !pending = [] then `Start_decision else `Wait in
            check (Two_pc.branch_acked t ~shard:s = expect);
            check
              (Two_pc.phase t
              = (if !pending = [] then Two_pc.Deciding
                 else Two_pc.Preparing (List.length !pending)))
          | Decide ->
            Two_pc.decision_acked t;
            check (Two_pc.phase t = Two_pc.Acked))
        script;
      (* a kill while Running kills the whole transaction *)
      (match script with
      | Touch _ :: _ when not !started ->
        let t2 = Two_pc.create ~gtid ~coordinator in
        List.iter
          (fun s -> ignore (Two_pc.touch t2 ~shard:s))
          (List.sort_uniq compare parts);
        check (Two_pc.kill t2 = `Kill_generator);
        check (Two_pc.phase t2 = Two_pc.Killed)
      | _ -> ());
      !ok)

let test_two_pc_violations () =
  let t = Two_pc.create ~gtid:3 ~coordinator:1 in
  Alcotest.check_raises "start_commit with no participants"
    (Two_pc.Protocol_violation "gtid 3: commit with no participants")
    (fun () -> ignore (Two_pc.start_commit t));
  ignore (Two_pc.touch t ~shard:0);
  ignore (Two_pc.touch t ~shard:1);
  ignore (Two_pc.start_commit t);
  (try
     ignore (Two_pc.branch_acked t ~shard:3);
     Alcotest.fail "non-participant ack accepted"
   with Two_pc.Protocol_violation _ -> ());
  ignore (Two_pc.branch_acked t ~shard:0);
  (try
     ignore (Two_pc.branch_acked t ~shard:0);
     Alcotest.fail "duplicate ack accepted"
   with Two_pc.Protocol_violation _ -> ());
  (try
     Two_pc.decision_acked t;
     Alcotest.fail "decision before every branch ack accepted"
   with Two_pc.Protocol_violation _ -> ());
  (try
     Two_pc.abort t;
     Alcotest.fail "abort mid-protocol accepted"
   with Two_pc.Protocol_violation _ -> ())

let test_two_pc_resolution () =
  (* presumed abort in one table *)
  Alcotest.(check bool) "decision durable commits" true
    (Two_pc.resolve ~decision_durable:true = `Committed);
  Alcotest.(check bool) "no decision aborts" true
    (Two_pc.resolve ~decision_durable:false = `Aborted);
  (* the atomic-commit invariant *)
  Alcotest.(check bool) "all durable ok" true
    (Two_pc.atomic_ok ~decision_durable:true
       ~branches_durable:[ true; true ]);
  Alcotest.(check bool) "half-commit violates" false
    (Two_pc.atomic_ok ~decision_durable:true
       ~branches_durable:[ true; false ]);
  Alcotest.(check bool) "presumed abort is always safe" true
    (Two_pc.atomic_ok ~decision_durable:false
       ~branches_durable:[ true; false ]);
  (* decision tid namespace *)
  let d = Two_pc.decision_tid ~gtid:77 in
  Alcotest.(check bool) "decision tids far above workload tids" true
    (Ids.Tid.to_int d >= Two_pc.decision_tid_base);
  Alcotest.(check bool) "decision tid recognized" true
    (Two_pc.is_decision_tid d);
  Alcotest.(check int) "gtid roundtrips" 77 (Two_pc.gtid_of_decision d);
  Alcotest.(check bool) "workload tid not a decision" false
    (Two_pc.is_decision_tid (Ids.Tid.of_int 77));
  (* control versions are strictly monotone and positive *)
  Alcotest.(check bool) "ctl version positive at gtid 0" true
    (Shard_group.ctl_version ~gtid:0 > 0);
  Alcotest.(check bool) "ctl version monotone" true
    (Shard_group.ctl_version ~gtid:9 < Shard_group.ctl_version ~gtid:10)

(* ---- deterministic crash-point sweeps under the composite oracle ---- *)

(* Every manager kind, shards in {2, 4}: >= 50 audit pauses each, the
   per-shard spec instances and the global atomic-commit invariant
   must stay silent, and cross-shard traffic must actually flow. *)
let test_sharded_sweeps () =
  List.iter
    (fun (name, kind) ->
      List.iter
        (fun shards ->
          let cfg =
            {
              (Sweep.standard_config ~kind ~runtime:(Time.of_sec 15) ())
              with
              Experiment.shards;
            }
          in
          let o = Sweep.run ~stride:40 ~spec:true cfg in
          let l fmt =
            Printf.sprintf ("%s @ %d shards: " ^^ fmt) name shards
          in
          Alcotest.(check (list (pair int string)))
            (l "composite oracle silent") [] o.Sweep.failures;
          Alcotest.(check bool)
            (l "at least 50 crash points")
            true (o.Sweep.points >= 50);
          Alcotest.(check bool)
            (l "transactions committed")
            true (o.Sweep.committed > 0);
          Alcotest.(check bool)
            (l "cross-shard commits flowed")
            true (o.Sweep.cross_committed > 0);
          Alcotest.(check bool)
            (l "spec stepped")
            true (o.Sweep.spec_checks > 0);
          if name = "el" then begin
            Alcotest.(check bool)
              (l "crash/recover cycles ran")
              true
              (o.Sweep.recoveries >= 50);
            Alcotest.(check bool)
              (l "atomic-commit invariant exercised")
              true
              (o.Sweep.atomic_checks > 0)
          end)
        [ 2; 4 ])
    (Sweep.standard_kinds ())

(* ---- 1-shard group = solo path, byte for byte ---- *)

let test_one_shard_identity () =
  List.iter
    (fun (name, kind) ->
      let cfg =
        Sweep.standard_config ~kind ~runtime:(Time.of_sec 10) ~seed:9 ()
      in
      let solo = Experiment.run cfg in
      let grouped = Shard_group.run cfg in
      Alcotest.(check bool)
        (name ^ ": r_global Marshal byte-identical to the solo result")
        true
        (Marshal.to_string solo [] = Marshal.to_string grouped.Shard_group.r_global []);
      Alcotest.(check int)
        (name ^ ": no cross-shard traffic at one shard")
        0 grouped.Shard_group.r_cross_committed;
      Alcotest.(check int)
        (name ^ ": every commit is a fast-path single")
        grouped.Shard_group.r_global.Experiment.committed
        grouped.Shard_group.r_single_committed)
    (Sweep.standard_kinds ())

(* ---- per-shard accounting ---- *)

let test_shard_accounting () =
  let kind = List.assoc "el" (Sweep.standard_kinds ()) in
  let cfg =
    {
      (Sweep.standard_config ~kind ~runtime:(Time.of_sec 15) ~seed:3 ())
      with
      Experiment.shards = 3;
    }
  in
  let rr = Shard_group.run cfg in
  let sum =
    Array.fold_left (fun a s -> a + s.Shard_group.ss_committed) 0
      rr.Shard_group.r_shards
  in
  Alcotest.(check int) "per-shard commits sum to the global count"
    rr.Shard_group.r_global.Experiment.committed sum;
  Alcotest.(check int) "singles + cross = committed"
    rr.Shard_group.r_global.Experiment.committed
    (rr.Shard_group.r_single_committed + rr.Shard_group.r_cross_committed);
  Alcotest.(check bool) "cross-shard commits flowed" true
    (rr.Shard_group.r_cross_committed > 0);
  Alcotest.(check bool) "prepares cover every cross branch" true
    (rr.Shard_group.r_prepares >= 2 * rr.Shard_group.r_cross_committed);
  Array.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d routed traffic" s.Shard_group.ss_shard)
        true
        (s.Shard_group.ss_result.Experiment.log_writes_total > 0))
    rr.Shard_group.r_shards

let suite =
  [
    Alcotest.test_case "partition tiles the oid space" `Quick
      test_partition_ranges;
    Alcotest.test_case "control region routes home" `Quick
      test_partition_ctl_region;
    Alcotest.test_case "coordinator = gtid mod shards" `Quick
      test_partition_coordinator;
    Alcotest.test_case "partition validates its inputs" `Quick
      test_partition_validation;
    QCheck_alcotest.to_alcotest prop_two_pc_model;
    Alcotest.test_case "2pc rejects illegal steps" `Quick
      test_two_pc_violations;
    Alcotest.test_case "presumed abort and the atomic invariant" `Quick
      test_two_pc_resolution;
    Alcotest.test_case "sharded sweeps: composite oracle silent (2,4)" `Slow
      test_sharded_sweeps;
    Alcotest.test_case "one shard = solo path (Marshal)" `Quick
      test_one_shard_identity;
    Alcotest.test_case "per-shard accounting balances" `Quick
      test_shard_accounting;
  ]

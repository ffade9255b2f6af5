open El_model
module Engine = El_sim.Engine
module G = El_workload.Generator
module Mix = El_workload.Mix
module Tx = El_workload.Tx_type

(* A recording sink: logs every call with its timestamp and acks
   commits after a configurable delay. *)
type event =
  | Begin of int * Time.t
  | Data of int * int * int * Time.t  (* tid, oid, version *)
  | Commit of int * Time.t
  | Abort of int * Time.t

let recording_sink engine ~ack_delay events =
  {
    G.begin_tx =
      (fun ~tid ~expected_duration:_ ->
        events := Begin (Ids.Tid.to_int tid, Engine.now engine) :: !events);
    write_data =
      (fun ~tid ~oid ~version ~size:_ ->
        events :=
          Data (Ids.Tid.to_int tid, Ids.Oid.to_int oid, version, Engine.now engine)
          :: !events);
    request_commit =
      (fun ~tid ~on_ack ->
        events := Commit (Ids.Tid.to_int tid, Engine.now engine) :: !events;
        Engine.schedule_after engine ack_delay (fun () ->
            on_ack (Engine.now engine)));
    request_abort =
      (fun ~tid ->
        events := Abort (Ids.Tid.to_int tid, Engine.now engine) :: !events);
  }

let one_type ~duration_ms ~num_records =
  Mix.create
    [
      Tx.make ~name:"only" ~probability:1.0 ~duration:(Time.of_ms duration_ms)
        ~num_records ~record_size:50;
    ]

let test_figure3_timeline () =
  let engine = Engine.create () in
  let events = ref [] in
  let sink = recording_sink engine ~ack_delay:(Time.of_ms 20) events in
  let _gen =
    G.create engine ~sink ~mix:(one_type ~duration_ms:100 ~num_records:2)
      ~arrival_rate:1.0 ~runtime:(Time.of_ms 500) ~epsilon:(Time.of_ms 10)
      ~num_objects:100 ()
  in
  Engine.run engine ~until:(Time.of_ms 150);
  let tx0 = List.rev (List.filter (function
    | Begin (0, _) | Data (0, _, _, _) | Commit (0, _) | Abort (0, _) -> true
    | _ -> false) !events)
  in
  match tx0 with
  | [ Begin (_, t0); Data (_, _, _, t1); Data (_, _, _, t2); Commit (_, t3) ] ->
    Alcotest.(check int) "begin at arrival" 0 (Time.to_us t0);
    (* (T - eps)/N = 45ms *)
    Alcotest.(check int) "first data at 45ms" 45_000 (Time.to_us t1);
    Alcotest.(check int) "last data at T-eps" 90_000 (Time.to_us t2);
    Alcotest.(check int) "commit at T" 100_000 (Time.to_us t3)
  | _ -> Alcotest.fail "unexpected event shape for transaction 0"

let test_arrival_rate () =
  let engine = Engine.create () in
  let events = ref [] in
  let sink = recording_sink engine ~ack_delay:(Time.of_ms 1) events in
  let gen =
    G.create engine ~sink ~mix:(one_type ~duration_ms:10 ~num_records:1)
      ~arrival_rate:100.0 ~runtime:(Time.of_sec 1) ~num_objects:1000 ()
  in
  Engine.run engine ~until:(Time.of_sec 2);
  Alcotest.(check int) "100 TPS for 1s" 100 (G.started gen);
  Alcotest.(check int) "all committed" 100 (G.committed gen);
  Alcotest.(check int) "no aborts" 0 (G.aborted gen);
  let begins = List.filter (function Begin _ -> true | _ -> false) !events in
  Alcotest.(check int) "one BEGIN per tx" 100 (List.length begins)

let test_commit_latency_stat () =
  let engine = Engine.create () in
  let events = ref [] in
  let sink = recording_sink engine ~ack_delay:(Time.of_ms 25) events in
  let gen =
    G.create engine ~sink ~mix:(one_type ~duration_ms:10 ~num_records:1)
      ~arrival_rate:10.0 ~runtime:(Time.of_ms 500) ~num_objects:100 ()
  in
  Engine.run_all engine;
  Alcotest.(check (float 1e-9)) "latency is the ack delay" 0.025
    (El_metrics.Running_stat.mean (G.commit_latency gen))

let test_active_accounting () =
  let engine = Engine.create () in
  let events = ref [] in
  let sink = recording_sink engine ~ack_delay:(Time.of_ms 1) events in
  let gen =
    G.create engine ~sink ~mix:(one_type ~duration_ms:1000 ~num_records:4)
      ~arrival_rate:10.0 ~runtime:(Time.of_sec 10) ~num_objects:1000 ()
  in
  Engine.run engine ~until:(Time.of_ms 4999);
  (* 10/s arrivals, 1s lifetime: steady state holds ~10 active. *)
  Alcotest.(check int) "steady-state active" 10 (G.active gen);
  (* Oids are held from each record's write until termination, so the
     active transactions hold between 0 and 4 each. *)
  let held = El_workload.Oid_pool.in_use (G.oid_pool gen) in
  Alcotest.(check bool)
    (Printf.sprintf "held oids bounded by active writes (got %d)" held)
    true
    (held > 0 && held <= 40)

let test_kill_cancels () =
  let engine = Engine.create () in
  let events = ref [] in
  let sink = recording_sink engine ~ack_delay:(Time.of_ms 1) events in
  let gen =
    G.create engine ~sink ~mix:(one_type ~duration_ms:100 ~num_records:4)
      ~arrival_rate:1.0 ~runtime:(Time.of_ms 90) ~num_objects:100 ()
  in
  (* Kill transaction 0 after its first data record (~24.75ms). *)
  Engine.schedule_at engine (Time.of_ms 30) (fun () ->
      G.kill gen (Ids.Tid.of_int 0));
  Engine.run_all engine;
  Alcotest.(check int) "killed" 1 (G.killed gen);
  Alcotest.(check int) "not committed" 0 (G.committed gen);
  Alcotest.(check int) "oids released" 0
    (El_workload.Oid_pool.in_use (G.oid_pool gen));
  let after_kill =
    List.filter
      (function
        | Data (0, _, _, t) -> Time.(t > Time.of_ms 30)
        | Commit (0, _) -> true
        | _ -> false)
      !events
  in
  Alcotest.(check int) "no activity after kill" 0 (List.length after_kill);
  (* Killing twice is idempotent; killing an unknown tid raises. *)
  G.kill gen (Ids.Tid.of_int 0);
  Alcotest.(check int) "idempotent" 1 (G.killed gen);
  Alcotest.check_raises "unknown tid"
    (Invalid_argument "Generator.kill: unknown tid") (fun () ->
      G.kill gen (Ids.Tid.of_int 999));
  (* A committed transaction is forgotten: killing its tid is refused
     like killing one never launched. *)
  let engine = Engine.create () in
  let gen =
    G.create engine
      ~sink:(recording_sink engine ~ack_delay:(Time.of_ms 1) (ref []))
      ~mix:(one_type ~duration_ms:10 ~num_records:1)
      ~arrival_rate:1.0 ~runtime:(Time.of_ms 5) ~num_objects:100 ()
  in
  Engine.run_all engine;
  Alcotest.(check int) "transaction 0 committed" 1 (G.committed gen);
  Alcotest.check_raises "a committed tid is unknown"
    (Invalid_argument "Generator.kill: unknown tid") (fun () ->
      G.kill gen (Ids.Tid.of_int 0))

let test_aborts () =
  let engine = Engine.create () in
  let events = ref [] in
  let sink = recording_sink engine ~ack_delay:(Time.of_ms 1) events in
  let gen =
    G.create engine ~sink ~mix:(one_type ~duration_ms:10 ~num_records:1)
      ~arrival_rate:100.0 ~runtime:(Time.of_sec 2) ~abort_fraction:0.3
      ~num_objects:1000 ()
  in
  Engine.run_all engine;
  Alcotest.(check int) "accounted" (G.started gen)
    (G.committed gen + G.aborted gen);
  let frac = float_of_int (G.aborted gen) /. float_of_int (G.started gen) in
  Alcotest.(check bool)
    (Printf.sprintf "abort fraction ~0.3 (got %.3f)" frac)
    true
    (abs_float (frac -. 0.3) < 0.06)

let test_versions_monotone () =
  let engine = Engine.create () in
  let events = ref [] in
  let sink = recording_sink engine ~ack_delay:(Time.of_ms 1) events in
  let _gen =
    G.create engine ~sink ~mix:(one_type ~duration_ms:10 ~num_records:2)
      ~arrival_rate:50.0 ~runtime:(Time.of_sec 5) ~num_objects:10 ()
  in
  Engine.run_all engine;
  (* With only 10 objects, versions per oid must increase strictly in
     write order. *)
  let per_oid = Hashtbl.create 16 in
  let ok = ref true in
  List.iter
    (function
      | Data (_, oid, version, _) ->
        let last = Option.value ~default:0 (Hashtbl.find_opt per_oid oid) in
        if version <= last then ok := false;
        Hashtbl.replace per_oid oid version
      | Begin _ | Commit _ | Abort _ -> ())
    (List.rev !events);
  Alcotest.(check bool) "versions strictly increase per object" true !ok

let test_versions_count_records () =
  (* The n-th data record carries version n.  Twenty objects force
     rewrites, and each object's versions must still rise. *)
  let engine = Engine.create () in
  let events = ref [] in
  let sink = recording_sink engine ~ack_delay:(Time.of_ms 1) events in
  let gen =
    G.create engine ~sink ~mix:(one_type ~duration_ms:10 ~num_records:2)
      ~arrival_rate:50.0 ~runtime:(Time.of_sec 5) ~num_objects:20 ()
  in
  Engine.run_all engine;
  let writes =
    List.filter_map
      (function
        | Data (_, oid, version, _) -> Some (oid, version)
        | Begin _ | Commit _ | Abort _ -> None)
      (List.rev !events)
  in
  let n = List.length writes in
  Alcotest.(check int) "n = data_records_written" (G.data_records_written gen) n;
  Alcotest.(check (list int)) "versions are 1..n in write order"
    (List.init n (fun i -> i + 1))
    (List.map snd writes);
  let oids = List.sort_uniq compare (List.map fst writes) in
  Alcotest.(check bool) "objects are rewritten" true (List.length oids < n);
  List.iter
    (fun oid ->
      let versions =
        List.filter_map (fun (o, v) -> if o = oid then Some v else None) writes
      in
      Alcotest.(check (list int))
        (Printf.sprintf "o%d's versions rise" oid)
        (List.sort_uniq compare versions) versions)
    oids

let suite =
  [
    Alcotest.test_case "Figure 3 timeline" `Quick test_figure3_timeline;
    Alcotest.test_case "deterministic arrival rate" `Quick test_arrival_rate;
    Alcotest.test_case "commit latency statistic" `Quick
      test_commit_latency_stat;
    Alcotest.test_case "active-transaction accounting" `Quick
      test_active_accounting;
    Alcotest.test_case "kill cancels remaining activity" `Quick
      test_kill_cancels;
    Alcotest.test_case "abort injection" `Quick test_aborts;
    Alcotest.test_case "object versions are monotone" `Quick
      test_versions_monotone;
    Alcotest.test_case "versions count data records" `Quick
      test_versions_count_records;
  ]

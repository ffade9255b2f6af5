(* The hot-path refactor's correctness gates:

   - differential: the flush array's elevator index services requests
     in exactly the order of a linear scan of the whole backlog (the
     model below), under both disciplines, for adversarial backlogs
     (staggered arrivals, duplicate oids superseding in place, forced
     upgrades, wrap-around);
   - the documented tie-break (forced first, then discipline key,
     equal keys to the earlier arrival) is pinned by construction;
   - the ledger's incremental oldest-active list and live-cell
     counter agree with from-scratch recomputation;
   - a whole simulation allocates at most 5,146 minor words per
     committed transaction. *)

open El_model
module Engine = El_sim.Engine
module F = El_disk.Flush_array
module Ledger = El_core.Ledger
module Cell = El_core.Cell
module Experiment = El_harness.Experiment
module Policy = El_core.Policy

(* ---- the model: a linear scan of the whole backlog ---- *)

(* The flush array's pick order, stated as the O(B) scan it replaced:
   every pick looks at every pending request of the drive and keeps
   the best — forced before unforced, then the discipline's key
   (wrapped oid distance from the drive position, or arrival seq),
   equal keys to the earlier arrival.  Transfers take 1 ms on the same
   engine, so arrivals and completions interleave as they do in the
   array. *)
module Model = struct
  type req = {
    oid : int;
    mutable version : int;
    mutable forced : bool;
    seq : int;
  }

  type drive = {
    mutable position : int;  (* oid last written; starts at the drive's lo *)
    mutable pending : req list;
    mutable busy : bool;
  }

  type t = {
    engine : Engine.t;
    span : int;
    scheduling : F.scheduling;
    drives : drive array;
    mutable next_seq : int;
    mutable order : (int * int) list;  (* completions, newest first *)
    mutable forced_done : int;
    mutable superseded : int;
  }

  let create engine ~scheduling ~objects ~drives =
    let span = objects / drives in
    {
      engine;
      span;
      scheduling;
      drives =
        Array.init drives (fun i ->
            { position = i * span; pending = []; busy = false });
      next_seq = 0;
      order = [];
      forced_done = 0;
      superseded = 0;
    }

  let pick t d =
    let dist oid =
      Ids.Oid.distance ~wrap:t.span (Ids.Oid.of_int oid)
        (Ids.Oid.of_int d.position)
    in
    let better r b =
      if r.forced <> b.forced then r.forced
      else
        match t.scheduling with
        | F.Fifo -> r.seq < b.seq
        | F.Nearest ->
          let dr = dist r.oid and db = dist b.oid in
          dr < db || (dr = db && r.seq < b.seq)
    in
    List.fold_left
      (fun best r ->
        match best with
        | Some b when not (better r b) -> best
        | _ -> Some r)
      None d.pending

  let rec dispatch t d =
    match pick t d with
    | None -> d.busy <- false
    | Some r ->
      d.busy <- true;
      d.pending <- List.filter (fun p -> p != r) d.pending;
      Engine.schedule_after t.engine (Time.of_ms 1) (fun () ->
          d.position <- r.oid;
          t.order <- (r.oid, r.version) :: t.order;
          if r.forced then t.forced_done <- t.forced_done + 1;
          dispatch t d)

  let request t oid ~version ~forced =
    let d = t.drives.(oid / t.span) in
    (match List.find_opt (fun r -> r.oid = oid) d.pending with
    | Some r ->
      r.version <- version;
      if forced then r.forced <- true;
      t.superseded <- t.superseded + 1
    | None ->
      d.pending <- { oid; version; forced; seq = t.next_seq } :: d.pending;
      t.next_seq <- t.next_seq + 1);
    if not d.busy then dispatch t d

  let outcome t =
    (List.rev t.order, List.length t.order, t.forced_done, t.superseded)
end

(* ---- differential: the elevator index vs the model ---- *)

(* One scripted run: requests arrive at scheduled instants while the
   drives drain, so picks happen at many backlog depths.  Both runners
   return the completion order plus the bookkeeping counters. *)
let play e script request =
  List.iter
    (fun (at_ms, oid, version, forced) ->
      Engine.schedule_at e (Time.of_ms at_ms) (fun () ->
          request oid ~version ~forced))
    script;
  Engine.run_all e

let run_script ~scheduling ~objects ~drives script =
  let e = Engine.create () in
  let f =
    F.create e ~drives ~transfer_time:(Time.of_ms 1) ~num_objects:objects
      ~scheduling ()
  in
  let order = ref [] in
  F.set_on_flush f (fun o ~version ->
      order := (Ids.Oid.to_int o, version) :: !order);
  play e script (fun oid ~version ~forced ->
      let oid = Ids.Oid.of_int oid in
      if forced then F.request_forced f oid ~version
      else F.request f oid ~version);
  F.check_invariants f;
  ( List.rev !order,
    F.flushes_completed f,
    F.forced_flushes f,
    F.superseded f )

let run_model ~scheduling ~objects ~drives script =
  let e = Engine.create () in
  let m = Model.create e ~scheduling ~objects ~drives in
  play e script (Model.request m);
  Model.outcome m

let script_arb ~objects =
  (* Oids cluster near the partition edges so wrap-around picks are
     common, versions repeat so supersedes collide, and a third of the
     requests are forced. *)
  let open QCheck in
  let oid_gen =
    Gen.oneof
      [
        Gen.int_bound (objects - 1);
        Gen.int_bound 3;
        Gen.map (fun d -> objects - 1 - d) (Gen.int_bound 3);
      ]
  in
  list_of_size
    Gen.(int_range 0 60)
    (make
       ~print:(fun (t, o, v, f) -> Printf.sprintf "(%d,%d,%d,%b)" t o v f)
       Gen.(
         map
           (fun (t, o, v, f) -> (t, o, v, f))
           (tup4 (int_bound 40) oid_gen (int_range 1 3) (map (fun n -> n = 0) (int_bound 2)))))

let differential_prop scheduling name =
  QCheck.Test.make ~name ~count:300 (script_arb ~objects:64) (fun script ->
      run_model ~scheduling ~objects:64 ~drives:2 script
      = run_script ~scheduling ~objects:64 ~drives:2 script)

let prop_nearest =
  differential_prop F.Nearest "indexed elevator == reference scan (Nearest)"

let prop_fifo =
  differential_prop F.Fifo "indexed elevator == reference scan (Fifo)"

(* ---- the documented tie-break, pinned ---- *)

let completion_order script =
  let order, _, _, _ =
    run_script ~scheduling:F.Nearest ~objects:1000 ~drives:1
      (List.map (fun oid -> (0, oid, 1, false)) script)
  in
  List.map fst order

let test_tie_break () =
  (* After servicing oid 0 the drive sits at 0; oids 900 and 100 are
     both at wrapped distance 100, so the earlier arrival wins. *)
  Alcotest.(check (list int))
    "tie goes to earlier arrival" [ 0; 900; 100 ]
    (completion_order [ 0; 900; 100 ]);
  Alcotest.(check (list int))
    "swapped arrivals swap the pick" [ 0; 100; 900 ]
    (completion_order [ 0; 100; 900 ]);
  (* The model agrees on the pinned order. *)
  let ref_order, _, _, _ =
    run_model ~scheduling:F.Nearest ~objects:1000 ~drives:1
      (List.map (fun oid -> (0, oid, 1, false)) [ 0; 900; 100 ])
  in
  Alcotest.(check (list int))
    "reference pins the same order" [ 0; 900; 100 ]
    (List.map fst ref_order)

let test_forced_first () =
  (* A forced request beats a nearer unforced one; among forced the
     discipline key still rules. *)
  let order, _, forced, _ =
    run_script ~scheduling:F.Nearest ~objects:1000 ~drives:1
      [ (0, 0, 1, false); (0, 10, 1, false); (0, 500, 1, true) ]
  in
  Alcotest.(check (list int))
    "forced overtakes nearer pending" [ 0; 500; 10 ]
    (List.map fst order);
  Alcotest.(check int) "one forced flush" 1 forced

let test_forced_upgrade () =
  (* Re-requesting a pending oid as forced promotes it in place:
     superseded count rises and it is served before nearer work. *)
  let order, completed, forced, superseded =
    run_script ~scheduling:F.Nearest ~objects:1000 ~drives:1
      [ (0, 0, 1, false); (0, 600, 1, false); (0, 10, 1, false); (1, 600, 2, true) ]
  in
  Alcotest.(check (list (pair int int)))
    "upgrade wins with new version"
    [ (0, 1); (600, 2); (10, 1) ]
    order;
  Alcotest.(check int) "three completions" 3 completed;
  Alcotest.(check int) "upgrade counted forced" 1 forced;
  Alcotest.(check int) "upgrade superseded in place" 1 superseded

(* ---- ledger incremental indexes ---- *)

let ts n = Time.of_ms n
let tid n = Ids.Tid.of_int n
let oid n = Ids.Oid.of_int n

let make_ledger () =
  let removed = ref 0 in
  let l = Ledger.create ~remove_cell:(fun _ -> incr removed) () in
  (l, removed)

let begin_at l n ~at =
  ignore
    (Ledger.begin_tx l ~tid:(tid n) ~expected_duration:(Time.of_sec 1)
       ~timestamp:(ts at) ~size:8)

let test_ledger_oldest_incremental () =
  let l, _ = make_ledger () in
  (* out-of-order begin timestamps: the sorted insert must cope *)
  begin_at l 1 ~at:50;
  begin_at l 2 ~at:10;
  begin_at l 3 ~at:30;
  Ledger.check_invariants l;
  (match Ledger.oldest_active l with
  | Some e -> Alcotest.(check int) "oldest is tid 2" 2 (Ids.Tid.to_int e.Cell.e_tid)
  | None -> Alcotest.fail "expected an oldest");
  Ledger.kill l ~tid:(tid 2);
  Ledger.check_invariants l;
  (match Ledger.oldest_active l with
  | Some e -> Alcotest.(check int) "then tid 3" 3 (Ids.Tid.to_int e.Cell.e_tid)
  | None -> Alcotest.fail "expected an oldest");
  ignore (Ledger.request_commit l ~tid:(tid 3) ~timestamp:(ts 60) ~size:8);
  Ledger.check_invariants l;
  (match Ledger.oldest_active l with
  | Some e ->
    Alcotest.(check int) "commit-pending drops out" 1 (Ids.Tid.to_int e.Cell.e_tid)
  | None -> Alcotest.fail "expected an oldest");
  ignore (Ledger.commit_durable l ~tid:(tid 3));
  ignore (Ledger.request_commit l ~tid:(tid 1) ~timestamp:(ts 70) ~size:8);
  ignore (Ledger.commit_durable l ~tid:(tid 1));
  Ledger.check_invariants l;
  match Ledger.oldest_active l with
  | None -> ()
  | Some _ -> Alcotest.fail "no active transactions remain"

let test_ledger_live_counter () =
  let l, _ = make_ledger () in
  Alcotest.(check int) "empty" 0 (Ledger.live_cells l);
  begin_at l 1 ~at:1;
  Alcotest.(check int) "begin record" 1 (Ledger.live_cells l);
  ignore
    (Ledger.write_data l ~tid:(tid 1) ~oid:(oid 7) ~version:1 ~size:40
       ~timestamp:(ts 2));
  Alcotest.(check int) "plus data record" 2 (Ledger.live_cells l);
  (* rewriting the same oid supersedes the first copy in place *)
  ignore
    (Ledger.write_data l ~tid:(tid 1) ~oid:(oid 7) ~version:2 ~size:40
       ~timestamp:(ts 3));
  Alcotest.(check int) "supersede is net zero" 2 (Ledger.live_cells l);
  ignore (Ledger.request_commit l ~tid:(tid 1) ~timestamp:(ts 4) ~size:8);
  Alcotest.(check int) "commit supersedes begin" 2 (Ledger.live_cells l);
  (match Ledger.commit_durable l ~tid:(tid 1) with
  | [ (o, v) ] ->
    Alcotest.(check bool) "flush handoff" true
      (Ids.Oid.equal o (oid 7) && v = 2);
    ignore (Ledger.flush_complete l ~oid:o ~version:v)
  | _ -> Alcotest.fail "expected one flush");
  Ledger.check_invariants l;
  Alcotest.(check int) "all retired" 0 (Ledger.live_cells l)

let prop_ledger_random =
  (* A random op soup; check_invariants cross-checks the incremental
     oldest-active list and live counter against recomputation after
     every batch. *)
  QCheck.Test.make ~name:"ledger indexes survive random lifecycles" ~count:100
    QCheck.(list_of_size Gen.(int_range 0 40) (pair (int_bound 9) (int_bound 5)))
    (fun ops ->
      let l, _ = make_ledger () in
      let clock = ref 0 in
      List.iteri
        (fun i (txn, op) ->
          incr clock;
          let tidn = tid txn in
          let state = Ledger.tx_state l tidn in
          match op with
          | 0 | 1 when state = None ->
            ignore
              (Ledger.begin_tx l ~tid:tidn ~expected_duration:(Time.of_sec 1)
                 ~timestamp:(ts !clock) ~size:8)
          | 2 when state = Some `Active ->
            ignore
              (Ledger.write_data l ~tid:tidn ~oid:(oid (i mod 7)) ~version:i
                 ~size:30 ~timestamp:(ts !clock))
          | 3 when state = Some `Active ->
            ignore
              (Ledger.request_commit l ~tid:tidn ~timestamp:(ts !clock) ~size:8)
          | 4 when state = Some `Commit_pending ->
            List.iter
              (fun (o, v) -> ignore (Ledger.flush_complete l ~oid:o ~version:v))
              (Ledger.commit_durable l ~tid:tidn)
          | 5 when state = Some `Active -> Ledger.kill l ~tid:tidn
          | _ -> ())
        ops;
      Ledger.check_invariants l;
      Ledger.live_cells l >= 0)

(* ---- allocation on a whole simulation ---- *)

(* 5,146 is 1.1x the 4,677.9 minor words per committed transaction
   that the linear-scan picker took on this run; the elevator index
   reads about 4,700. *)
let test_experiment_allocation () =
  let cfg =
    {
      (Experiment.default_config
         ~kind:(Experiment.Ephemeral (Policy.default ~generation_sizes:[| 20; 12 |]))
         ~mix:(El_workload.Mix.short_long ~long_fraction:0.2)) with
      Experiment.runtime = Time.of_sec 30;
      Experiment.flush_transfer = Time.of_ms 45;
    }
  in
  let w0 = Gc.minor_words () in
  let r = Experiment.run cfg in
  let words_per_tx =
    (Gc.minor_words () -. w0) /. float_of_int (max 1 r.Experiment.committed)
  in
  Alcotest.(check bool) "the run commits" true (r.Experiment.committed > 0);
  if words_per_tx > 5146.0 then
    Alcotest.failf
      "%.1f minor words per committed transaction (at most 5146)" words_per_tx

let suite =
  [
    QCheck_alcotest.to_alcotest prop_nearest;
    QCheck_alcotest.to_alcotest prop_fifo;
    Alcotest.test_case "nearest tie-break pinned" `Quick test_tie_break;
    Alcotest.test_case "forced served first" `Quick test_forced_first;
    Alcotest.test_case "forced upgrade in place" `Quick test_forced_upgrade;
    Alcotest.test_case "ledger oldest-active index" `Quick
      test_ledger_oldest_incremental;
    Alcotest.test_case "ledger live-cell counter" `Quick test_ledger_live_counter;
    QCheck_alcotest.to_alcotest prop_ledger_random;
    Alcotest.test_case "experiment allocation per commit" `Quick
      test_experiment_allocation;
  ]

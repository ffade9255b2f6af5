(* The durable-log spec's own tests: the transition laws as unit
   cases, what the crash judge (El_check.Spec_tracker.judge) lets a
   hand-built crash image keep at a given spec state, and the
   contract-level properties — invariant preservation, crash-step
   monotonicity, recovery idempotence — as QCheck properties over
   random step sequences. *)

open El_model
module Spec = El_spec.Durable_log

let tid n = Ids.Tid.of_int n
let oid n = Ids.Oid.of_int n

let ok label s step =
  match Spec.step s step with
  | Ok s' -> s'
  | Error msg -> Alcotest.failf "%s: rejected — %s" label msg

let rejected label s step =
  match Spec.step s step with
  | Ok _ -> Alcotest.failf "%s: accepted an illegal step" label
  | Error _ -> ()

(* The canonical legal lifecycle, used as a fixture by several
   tests: one transaction begun, appended, log-extended, acked,
   flushed, superblock-advanced. *)
let acked_state () =
  let s = ok "begin" Spec.init (Spec.Begin (tid 1)) in
  let s = ok "append" s (Spec.Append (tid 1, oid 0, 3)) in
  let s = ok "extension" s (Spec.Log_extension (tid 1)) in
  ok "ack" s (Spec.Commit_ack (tid 1))

let test_happy_path () =
  let s = acked_state () in
  Alcotest.(check (option int)) "acked" (Some 3) (Spec.acked_version s (oid 0));
  let s = ok "flush" s (Spec.Flush_complete (oid 0, 3)) in
  let s = ok "superblock" s (Spec.Superblock_advance (oid 0, 3)) in
  Alcotest.(check (option int))
    "flushed" (Some 3)
    (Spec.flushed_version s (oid 0));
  Alcotest.(check (option int)) "floor" (Some 3) (Spec.floor_version s (oid 0));
  (match Spec.check s with
  | Ok () -> ()
  | Error m -> Alcotest.failf "invariant after happy path: %s" m);
  Alcotest.(check (list (pair int int)))
    "persistent"
    [ (0, 3) ]
    (List.map (fun (o, v) -> (Ids.Oid.to_int o, v)) (Spec.persistent s))

let test_transition_laws () =
  let s1 = ok "begin" Spec.init (Spec.Begin (tid 1)) in
  rejected "duplicate begin" s1 (Spec.Begin (tid 1));
  rejected "append by unknown tx" Spec.init (Spec.Append (tid 9, oid 0, 1));
  rejected "append v0" s1 (Spec.Append (tid 1, oid 0, 0));
  rejected "ack without extension" s1 (Spec.Commit_ack (tid 1));
  rejected "extension of unknown tx" Spec.init (Spec.Log_extension (tid 9));
  let ext = ok "extension" s1 (Spec.Log_extension (tid 1)) in
  rejected "append after extension" ext (Spec.Append (tid 1, oid 0, 1));
  rejected "abort after extension" ext (Spec.Abort (tid 1));
  rejected "kill after extension" ext (Spec.Kill (tid 1));
  rejected "double extension" ext (Spec.Log_extension (tid 1));
  let acked = ok "ack" ext (Spec.Commit_ack (tid 1)) in
  rejected "double ack" acked (Spec.Commit_ack (tid 1));
  let s = acked_state () in
  rejected "flush of never-acked oid" s (Spec.Flush_complete (oid 5, 1));
  rejected "flush ahead of acked" s (Spec.Flush_complete (oid 0, 4));
  rejected "superblock without flush" s (Spec.Superblock_advance (oid 0, 3));
  let s = ok "flush" s (Spec.Flush_complete (oid 0, 3)) in
  rejected "flush regression" s (Spec.Flush_complete (oid 0, 2));
  rejected "superblock ahead of flush" s (Spec.Superblock_advance (oid 0, 4))

(* The crash judge reads the spec per transaction: a crash image over
   an empty stable database (or one serving [stable]), recovered and
   judged against spec state [s] by a tracker that watches nothing. *)
let judged ?(stable = []) s blocks =
  let db = El_disk.Stable_db.create ~num_objects:16 in
  List.iter
    (fun (o, v) -> El_disk.Stable_db.apply db (oid o) ~version:v)
    stable;
  let image = { El_recovery.Recovery.blocks; stable = db } in
  El_check.Spec_tracker.(
    ok (judge (of_spec s) image (El_recovery.Recovery.recover image)))

(* Transaction [t]'s writes and its COMMIT, in a block that completed
   or in the prefix of one the crash tore. *)
let commit_block ?(torn = 0) t writes =
  let at = Time.zero in
  {
    El_recovery.Recovery.records =
      List.map
        (fun (o, v) ->
          Log_record.data ~tid:(tid t) ~oid:(oid o) ~version:v ~size:100
            ~timestamp:at)
        writes
      @ [ Log_record.commit ~tid:(tid t) ~size:16 ~timestamp:at ];
    torn;
  }

let torn_commit t writes = commit_block ~torn:1 t writes

let test_abort_and_kill_discard () =
  let s = ok "begin" Spec.init (Spec.Begin (tid 1)) in
  let s = ok "append" s (Spec.Append (tid 1, oid 0, 2)) in
  let s = ok "abort" s (Spec.Abort (tid 1)) in
  Alcotest.(check (option int)) "nothing acked" None
    (Spec.acked_version s (oid 0));
  Alcotest.(check bool)
    "aborted write must not survive" false
    (judged s [ torn_commit 1 [ (0, 2) ] ]);
  let s = ok "begin2" s (Spec.Begin (tid 2)) in
  let s = ok "append2" s (Spec.Append (tid 2, oid 1, 7)) in
  let s = ok "kill" s (Spec.Kill (tid 2)) in
  Alcotest.(check bool)
    "killed write must not survive" false
    (judged s [ torn_commit 2 [ (1, 7) ] ])

let test_torn_prefix_commits () =
  (* A log-extended-but-unacked transaction's write may survive (its
     COMMIT record can persist inside a torn prefix); a running one's
     may not. *)
  let s = acked_state () in
  let acked = commit_block 1 [ (0, 3) ] in
  let s = ok "begin2" s (Spec.Begin (tid 2)) in
  let s = ok "append2" s (Spec.Append (tid 2, oid 0, 5)) in
  Alcotest.(check bool)
    "running write may not survive" false
    (judged s [ acked; torn_commit 2 [ (0, 5) ] ]);
  let s = ok "extension2" s (Spec.Log_extension (tid 2)) in
  Alcotest.(check bool)
    "log-extended write may survive" true
    (judged s [ acked; torn_commit 2 [ (0, 5) ] ]);
  Alcotest.(check bool) "acked version may survive" true (judged s [ acked ]);
  Alcotest.(check bool)
    "never-written version may not survive" false
    (judged s [ commit_block 1 [ (0, 4) ] ]);
  (* After the crash wipes the transaction table, only the ack
     remains. *)
  let c = Spec.crash s in
  Alcotest.(check bool)
    "crash narrows survival to the ack" false
    (judged c [ acked; torn_commit 2 [ (0, 5) ] ]);
  Alcotest.(check bool) "ack survives the crash" true (judged c [ acked ])

(* A version below the acked one is stale, whoever wrote it.  Here an
   acked transaction's write was superseded by a later ack. *)
let test_refuses_superseded () =
  let commit s t v =
    let s = ok "begin" s (Spec.Begin (tid t)) in
    let s = ok "append" s (Spec.Append (tid t, oid 0, v)) in
    let s = ok "extension" s (Spec.Log_extension (tid t)) in
    ok "ack" s (Spec.Commit_ack (tid t))
  in
  let s = commit (commit Spec.init 1 1) 2 2 in
  Alcotest.(check bool) "newest ack may survive" true
    (judged s [ commit_block 1 [ (0, 1) ]; commit_block 2 [ (0, 2) ] ]);
  Alcotest.(check bool)
    "superseded acked version may not survive" false
    (judged s [ commit_block 1 [ (0, 1) ] ])

(* ... and here a log-extended transaction wrote below the ack. *)
let test_refuses_stale_extension () =
  let s = acked_state () in
  let s = ok "begin2" s (Spec.Begin (tid 2)) in
  let s = ok "append2" s (Spec.Append (tid 2, oid 0, 2)) in
  let s = ok "extension2" s (Spec.Log_extension (tid 2)) in
  Alcotest.(check bool)
    "log-extended write below the ack may not survive" false
    (judged s [ torn_commit 2 [ (0, 2) ] ]);
  Alcotest.(check bool) "beside the ack's own record it is harmless" true
    (judged s [ commit_block 1 [ (0, 3) ]; torn_commit 2 [ (0, 2) ] ])

(* Random step sequences over a small universe: 5 transactions,
   3 objects, versions 1-6.  Illegal steps are skipped (the state is
   unchanged by construction), so a replayed prefix is always a
   reachable state. *)
let step_of (c, a, b) =
  let t = tid (a mod 5) and o = oid (a mod 3) and v = (b mod 6) + 1 in
  match c mod 9 with
  | 0 -> Spec.Begin t
  | 1 -> Spec.Append (t, o, v)
  | 2 -> Spec.Log_extension t
  | 3 -> Spec.Commit_ack t
  | 4 -> Spec.Abort t
  | 5 -> Spec.Kill t
  | 6 -> Spec.Flush_complete (o, v)
  | 7 -> Spec.Superblock_advance (o, v)
  | _ -> Spec.Crash

let replay codes =
  List.fold_left
    (fun s code ->
      match Spec.step s (step_of code) with Ok s' -> s' | Error _ -> s)
    Spec.init codes

let steps_arb =
  QCheck.(list_of_size (Gen.int_range 0 120) (triple small_nat small_nat small_nat))

let prop_invariant_preserved =
  QCheck.Test.make ~name:"invariant holds in every reachable state" ~count:500
    steps_arb (fun codes ->
      match Spec.check (replay codes) with
      | Ok () -> true
      | Error m -> QCheck.Test.fail_reportf "invariant broken: %s" m)

let prop_crash_monotone =
  QCheck.Test.make
    ~name:"crash-step monotonicity: persistent state never gains records"
    ~count:500 steps_arb (fun codes ->
      let s = replay codes in
      let c = Spec.crash s in
      let floors =
        List.filter_map
          (fun (o, _) ->
            Option.map
              (fun f -> (Ids.Oid.to_int o, f))
              (Spec.floor_version c o))
          (Spec.persistent c)
      in
      let redo =
        List.filter_map
          (fun (o, v) ->
            if Spec.floor_version c o = Some v then None
            else Some (Ids.Oid.to_int o, v))
          (Spec.persistent c)
      in
      Spec.persistent c = Spec.persistent s
      && Spec.num_txs c = 0
      && (* a crash of the crashed state that keeps exactly its acked
            state (the floors in the stable database, every version
            above them in the log) passes the judge *)
      judged ~stable:floors c [ commit_block 99 redo ])

let prop_recovery_idempotent =
  QCheck.Test.make ~name:"recovery idempotence: crash of a crash is a no-op"
    ~count:500 steps_arb (fun codes ->
      let s = replay codes in
      let once = Spec.crash s in
      Spec.equal (Spec.crash once) once
      &&
      match Spec.step s Spec.Crash with
      | Ok via_step -> Spec.equal via_step once
      | Error _ -> false)

let prop_acked_monotone =
  QCheck.Test.make
    ~name:"acked versions never regress under any accepted step" ~count:500
    steps_arb (fun codes ->
      let oids = List.init 3 oid in
      let ok = ref true in
      let _final =
        List.fold_left
          (fun s code ->
            match Spec.step s (step_of code) with
            | Error _ -> s
            | Ok s' ->
              List.iter
                (fun o ->
                  match (Spec.acked_version s o, Spec.acked_version s' o) with
                  | Some before, Some after when after < before -> ok := false
                  | Some _, None -> ok := false
                  | _ -> ())
                oids;
              s')
          Spec.init codes
      in
      !ok)

(* The one-record state replays like its steps: a small model keeps
   each transaction's writes (wiped by a crash) and, per object, the
   highest version an acked transaction wrote and the last accepted
   flush and superblock.  Checking the 3 objects by name is checking
   the whole state. *)
let prop_records_replay_steps =
  QCheck.Test.make ~name:"one record per object replays its steps" ~count:500
    steps_arb (fun codes ->
      let writes = Hashtbl.create 8 in
      let acked = Hashtbl.create 4 in
      let flushed = Hashtbl.create 4 in
      let floor = Hashtbl.create 4 in
      let s =
        List.fold_left
          (fun s code ->
            let step = step_of code in
            match Spec.step s step with
            | Error _ -> s
            | Ok s' ->
              (match step with
              | Spec.Begin t -> Hashtbl.replace writes t []
              | Spec.Append (t, o, v) ->
                Hashtbl.replace writes t
                  ((o, v) :: List.remove_assoc o (Hashtbl.find writes t))
              | Spec.Commit_ack t ->
                List.iter
                  (fun (o, v) ->
                    match Hashtbl.find_opt acked o with
                    | Some w when w >= v -> ()
                    | Some _ | None -> Hashtbl.replace acked o v)
                  (Hashtbl.find writes t)
              | Spec.Flush_complete (o, v) -> Hashtbl.replace flushed o v
              | Spec.Superblock_advance (o, v) -> Hashtbl.replace floor o v
              | Spec.Crash -> Hashtbl.reset writes
              | Spec.Log_extension _ | Spec.Abort _ | Spec.Kill _ -> ());
              s')
          Spec.init codes
      in
      let oids = List.init 3 oid in
      List.for_all
        (fun o ->
          Spec.acked_version s o = Hashtbl.find_opt acked o
          && Spec.flushed_version s o = Hashtbl.find_opt flushed o
          && Spec.floor_version s o = Hashtbl.find_opt floor o)
        oids
      && Spec.check_objects s oids = Spec.check s
      && Spec.check_objects s (List.rev oids) = Spec.check s)

(* The unsettled set is exactly the acked objects whose superblock
   floor is below the acked version, after any run of whole commits,
   flushes, superblock advances and crashes (the single random steps
   above rarely complete an ack). *)
let prop_unsettled =
  let module Oid_set = Set.Make (Ids.Oid) in
  let op = QCheck.(triple (int_bound 3) (int_bound 2) (int_range 1 4)) in
  QCheck.Test.make
    ~name:"unsettled = acked objects whose floor is below the ack" ~count:500
    QCheck.(list_of_size (Gen.int_range 0 40) op)
    (fun ops ->
      let next = ref 0 in
      let steps (kind, o, v) =
        let o = oid o in
        match kind with
        | 0 ->
          incr next;
          let t = tid !next in
          Spec.
            [ Begin t; Append (t, o, v); Log_extension t; Commit_ack t ]
        | 1 -> [ Spec.Flush_complete (o, v) ]
        | 2 -> [ Spec.Superblock_advance (o, v) ]
        | _ -> [ Spec.Crash ]
      in
      let s =
        List.fold_left
          (fun s st -> match Spec.step s st with Ok s' -> s' | Error _ -> s)
          Spec.init
          (List.concat_map steps ops)
      in
      let oids = List.init 3 oid in
      Oid_set.subset (Spec.unsettled s) (Oid_set.of_list oids)
      && List.for_all
           (fun o ->
             Oid_set.mem o (Spec.unsettled s)
             =
             match Spec.acked_version s o with
             | Some a -> Spec.floor_version s o <> Some a
             | None -> false)
           oids)

let suite =
  [
    Alcotest.test_case "happy path" `Quick test_happy_path;
    Alcotest.test_case "transition laws" `Quick test_transition_laws;
    Alcotest.test_case "abort and kill discard writes" `Quick
      test_abort_and_kill_discard;
    Alcotest.test_case "a torn-prefix commit survives only if log-extended"
      `Quick test_torn_prefix_commits;
    Alcotest.test_case "the judge refuses a superseded ack" `Quick
      test_refuses_superseded;
    Alcotest.test_case "the judge refuses an extension below the ack" `Quick
      test_refuses_stale_extension;
    QCheck_alcotest.to_alcotest prop_invariant_preserved;
    QCheck_alcotest.to_alcotest prop_crash_monotone;
    QCheck_alcotest.to_alcotest prop_recovery_idempotent;
    QCheck_alcotest.to_alcotest prop_acked_monotone;
    QCheck_alcotest.to_alcotest prop_records_replay_steps;
    QCheck_alcotest.to_alcotest prop_unsettled;
  ]

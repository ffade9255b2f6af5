open El_model
module Db = El_disk.Stable_db

let oid n = Ids.Oid.of_int n

let test_apply_monotone () =
  let db = Db.create ~num_objects:100 in
  Db.apply db (oid 1) ~version:3;
  Db.apply db (oid 1) ~version:2;  (* stale redo: ignored *)
  Alcotest.(check (option int)) "newest wins" (Some 3) (Db.version db (oid 1));
  Db.apply db (oid 1) ~version:5;
  Alcotest.(check (option int)) "advance" (Some 5) (Db.version db (oid 1));
  Alcotest.(check (option int)) "untouched" None (Db.version db (oid 2));
  Alcotest.(check int) "objects written" 1 (Db.objects_written db)

let test_copy_independent () =
  let db = Db.create ~num_objects:100 in
  Db.apply db (oid 1) ~version:1;
  let snap = Db.copy db in
  Db.apply db (oid 1) ~version:2;
  Db.apply db (oid 2) ~version:1;
  Alcotest.(check (option int)) "copy frozen" (Some 1) (Db.version snap (oid 1));
  Alcotest.(check (option int)) "copy lacks later" None (Db.version snap (oid 2));
  Alcotest.(check bool) "copies diverge" false (Db.equal db snap)

let test_equal () =
  let a = Db.create ~num_objects:10 and b = Db.create ~num_objects:10 in
  Alcotest.(check bool) "empty equal" true (Db.equal a b);
  Db.apply a (oid 1) ~version:1;
  Alcotest.(check bool) "differ" false (Db.equal a b);
  Db.apply b (oid 1) ~version:1;
  Alcotest.(check bool) "equal again" true (Db.equal a b)

let test_bounds () =
  let db = Db.create ~num_objects:10 in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Stable_db.apply: oid out of range") (fun () ->
      Db.apply db (oid 10) ~version:1)

(* ---- overlays ---- *)

let pairs_gen =
  QCheck.(small_list (pair (int_bound 31) (int_range 1 20)))

let apply_all db pairs =
  List.iter (fun (o, version) -> Db.apply db (oid o) ~version) pairs

let sorted db = List.sort compare (Db.snapshot db)

(* An overlay (and an overlay of it) reads exactly as a copy that took
   the same applies, and leaves its base as it was. *)
let prop_overlay_model =
  QCheck.Test.make ~name:"overlay = copy with the same applies" ~count:300
    QCheck.(triple pairs_gen pairs_gen pairs_gen)
    (fun (base_pairs, first, second) ->
      let base = Db.create ~num_objects:32 in
      apply_all base base_pairs;
      let before = sorted base in
      let o1 = Db.overlay base and m1 = Db.copy base in
      apply_all o1 first;
      apply_all m1 first;
      let o2 = Db.overlay o1 and m2 = Db.copy m1 in
      apply_all o2 second;
      apply_all m2 second;
      let agrees o m =
        List.for_all (fun i -> Db.version o (oid i) = Db.version m (oid i))
          (List.init 32 Fun.id)
        && Db.objects_written o = Db.objects_written m
        && sorted o = sorted m
        && Db.equal o m && Db.equal m o
      in
      let own o under =
        let l = ref [] in
        Db.iter_overlay o (fun oid v -> l := (oid, v) :: !l);
        List.sort compare !l
        = List.filter
            (fun (oid, v) -> Db.version under oid <> Some v)
            (sorted o)
      in
      agrees o1 m1 && agrees o2 m2 && agrees (Db.copy o2) m2
      && own o1 base && own o2 o1
      && sorted base = before
      && match Db.base o2 with Some b -> b == o1 | None -> false)

let stale = Invalid_argument "Stable_db: stale overlay (its base changed since)"

(* An overlay is valid until its base's next install, and no longer. *)
let test_overlay_stale () =
  let base = Db.create ~num_objects:10 in
  Db.apply base (oid 1) ~version:2;
  let o = Db.overlay base in
  Db.apply o (oid 3) ~version:1;
  Db.apply base (oid 1) ~version:1;  (* a stale redo installs nothing *)
  Alcotest.(check (option int)) "still reads through" (Some 2)
    (Db.version o (oid 1));
  let kept = Db.copy o in
  Db.apply base (oid 2) ~version:1;
  Alcotest.check_raises "a read after the next install" stale (fun () ->
      ignore (Db.version o (oid 1)));
  Alcotest.check_raises "an overlay of a stale overlay" stale (fun () ->
      ignore (Db.overlay o));
  Alcotest.(check (list (pair int int)))
    "a copy keeps the state"
    [ (1, 2); (3, 1) ]
    (List.map (fun (o, v) -> (Ids.Oid.to_int o, v)) (sorted kept))

(* A crash image reads the manager's live stable database: recovering
   or judging it after the next flush completion raises; a copy taken
   at capture still recovers what the image did. *)
let test_recover_stale_image () =
  let module Sweep = El_check.Sweep in
  let module Recovery = El_recovery.Recovery in
  let kind = List.assoc "el" (Sweep.standard_kinds ()) in
  let run = Tracked.prepare (Sweep.standard_config ~kind ~seed:42 ()) in
  Tracked.run_until run (Time.of_sec 10);
  let image = Tracked.crash run in
  let kept = { image with Recovery.stable = Db.copy image.Recovery.stable } in
  let fresh = Recovery.recover image in
  Alcotest.(check bool) "the fresh image judges ok" true
    (Tracked.passes run image fresh);
  let recovered = Db.copy fresh.Recovery.recovered in
  let stable = El_core.El_manager.stable run.Tracked.manager in
  let installs = Db.objects_written stable in
  let rec run_until_install t =
    Tracked.run_until run t;
    if
      Db.objects_written stable = installs
      && Time.(t < of_sec 20)
    then run_until_install (Time.add t (Time.of_ms 10))
  in
  run_until_install (Time.add (Time.of_sec 10) (Time.of_ms 10));
  Alcotest.check_raises "recover after the next install" stale (fun () ->
      ignore (Recovery.recover image));
  Alcotest.check_raises "judge after the next install" stale (fun () ->
      ignore (Tracked.judge run image fresh));
  let r = Recovery.recover kept in
  Alcotest.(check bool) "the kept image still recovers the same state" true
    (Db.equal r.Recovery.recovered recovered)

let suite =
  [
    Alcotest.test_case "idempotent monotone apply" `Quick test_apply_monotone;
    Alcotest.test_case "copy is independent" `Quick test_copy_independent;
    Alcotest.test_case "equality" `Quick test_equal;
    Alcotest.test_case "bounds checking" `Quick test_bounds;
    QCheck_alcotest.to_alcotest prop_overlay_model;
    Alcotest.test_case "an overlay goes stale at its base's next install"
      `Quick test_overlay_stale;
    Alcotest.test_case "a crash image goes stale at the next install" `Quick
      test_recover_stale_image;
  ]

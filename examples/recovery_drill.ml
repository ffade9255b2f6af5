(* Recovery drill: crash the database mid-flight and bring it back.

   The paper's recovery story (§4): because ephemeral logging keeps
   the log tiny, the whole log fits in memory after a crash and a
   single pass restores the most recent committed state — no
   checkpoints, no two-pass undo/redo.  This example crashes a
   simulated system at several points, runs the single-pass recovery
   over exactly what was durable, and judges the result against the
   durable-log spec a tracker followed beside the run.

     dune exec examples/recovery_drill.exe
*)

open El_model
module Experiment = El_harness.Experiment
module Recovery = El_recovery.Recovery

let () =
  let policy = El_core.Policy.default ~generation_sizes:[| 18; 14 |] in
  let mix = El_workload.Mix.short_long ~long_fraction:0.05 in
  let cfg =
    {
      (Experiment.default_config ~kind:(Experiment.Ephemeral policy) ~mix) with
      Experiment.runtime = Time.of_sec 90;
      (* a few aborts, to prove they never resurface *)
      abort_fraction = 0.02;
    }
  in
  print_endline "crash drill: 100 TPS, 32-block log, crashes at 15/45/75 s\n";
  Printf.printf "%10s %10s %12s %12s %10s %8s\n" "crash at" "scanned"
    "committed" "redo applied" "stale" "audit";
  List.iter
    (fun seconds ->
      let _result, recovery, verdict, _ =
        El_check.Sweep.run_with_crash cfg ~crash_at:(Time.of_sec seconds)
      in
      Printf.printf "%9ds %10d %12d %12d %10d %8s\n" seconds
        recovery.Recovery.records_scanned
        (List.length recovery.Recovery.committed_tids)
        recovery.Recovery.redo_applied recovery.Recovery.redo_skipped
        (if El_check.Spec_tracker.ok verdict then "OK" else "FAILED"))
    [ 15; 45; 75 ];
  print_endline
    "\n'scanned' is every record durable at the crash instant, including\n\
     stale copies left behind by recirculation -- a real scan cannot tell\n\
     them apart, so recovery orders updates by version instead of by\n\
     position.  'redo applied' is the handful of committed updates that\n\
     had not yet been flushed to the stable database: the whole log is a\n\
     few dozen 2 KB blocks, which is the paper's sub-second recovery\n\
     argument.";
  (* Show that the 32-block log really is the whole recovery input. *)
  let _result, recovery, verdict, _ =
    El_check.Sweep.run_with_crash cfg ~crash_at:(Time.of_sec 60)
  in
  assert (El_check.Spec_tracker.ok verdict);
  Printf.printf
    "\nat 60 s the durable log held %d records (~%d KB): small enough to\n\
     read into RAM in one I/O burst and replay in microseconds.\n"
    recovery.Recovery.records_scanned
    (recovery.Recovery.records_scanned * 100 / 1024 * 1)

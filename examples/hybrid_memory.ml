(* The EL-FW hybrid of §6: trading bandwidth for main memory.

   Plain EL keeps an in-memory cell for every non-garbage log record:
   a transaction that updates hundreds of objects pins hundreds of
   cells.  The hybrid keeps one pointer per transaction (its oldest
   record) and, when that record reaches a queue head, rewrites the
   whole transaction at the next queue's tail.  Memory collapses to
   FW's 22 bytes per transaction (plus flush bookkeeping); bandwidth
   pays for the wholesale rewrites.

     dune exec examples/hybrid_memory.exe
*)

open El_model
module Experiment = El_harness.Experiment

(* Wide transactions: each updates 10-40 objects. *)
let wide_mix =
  El_workload.Mix.create
    [
      El_workload.Tx_type.make ~name:"bulk-update" ~probability:0.8
        ~duration:(Time.of_sec 2) ~num_records:10 ~record_size:100;
      El_workload.Tx_type.make ~name:"report-build" ~probability:0.2
        ~duration:(Time.of_sec 8) ~num_records:40 ~record_size:100;
    ]

let config kind =
  {
    (Experiment.default_config ~kind ~mix:wide_mix) with
    Experiment.runtime = Time.of_sec 120;
    arrival_rate = 30.0;
    num_objects = 1_000_000;
    flush_transfer = Time.of_ms 10;
  }

let describe name (r : Experiment.result) =
  Printf.printf "  %-18s %6d B peak RAM   %7.2f log writes/s   %5d blocks   kills %d\n"
    name r.Experiment.peak_memory_bytes r.Experiment.log_write_rate
    r.Experiment.total_blocks r.Experiment.killed

let () =
  print_endline
    "wide-update workload: 30 TPS, 80% x10-update / 20% x40-update\n";
  let el =
    Experiment.run
      (config
         (Experiment.Ephemeral (El_core.Policy.default ~generation_sizes:[| 56; 48 |])))
  in
  (* The hybrid reclaims space at whole-transaction granularity, so it
     needs a somewhat roomier ring to keep every transaction alive. *)
  let hybrid = Experiment.run (config (Experiment.Hybrid [| 64; 64 |])) in
  describe "ephemeral" el;
  describe "EL-FW hybrid" hybrid;
  (match hybrid.Experiment.stats with
  | [ Experiment.Hybrid_log_stats s ] ->
    Printf.printf
      "\n  hybrid regenerated %d transactions (%d records rewritten wholesale)\n"
      s.El_core.Hybrid_manager.regenerations
      s.El_core.Hybrid_manager.regenerated_records
  | _ -> ());
  Printf.printf
    "\n  memory: hybrid uses %.1fx less RAM than EL on this workload --\n\
    \  Section 6's prediction ('can drastically reduce main memory\n\
    \  consumption if each transaction updates many objects').  The costs\n\
    \  appear as wholesale rewrites and a roomier ring: squeeze the hybrid\n\
    \  into EL's disk budget and it starts killing transactions.\n"
    (float_of_int el.Experiment.peak_memory_bytes
    /. float_of_int (max 1 hybrid.Experiment.peak_memory_bytes))

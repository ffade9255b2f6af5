(* An EL run on the plant a sweep builds (El_check.Spec_tracker.prepare):
   its spec tracker is the one witness of what a crash must keep, so
   every test that judges a crash image judges it here. *)

module Experiment = El_harness.Experiment
module Shard_group = El_shard.Shard_group
module Spec_tracker = El_check.Spec_tracker
module Recovery = El_recovery.Recovery

type t = {
  group : Shard_group.t;
  engine : El_sim.Engine.t;
  manager : El_core.El_manager.t;
  tracker : Spec_tracker.t;
}

let prepare cfg =
  let group, trackers = Spec_tracker.prepare cfg in
  match (Shard_group.instances group).(0).Experiment.i_manager with
  | Experiment.El_log manager ->
    { group; engine = Shard_group.engine group; manager; tracker = trackers.(0) }
  | Experiment.Fw_log _ | Experiment.Hybrid_log _ ->
    Alcotest.fail "an EL run expected"

let run_until t at = El_sim.Engine.run t.engine ~until:at
let crash t = Recovery.crash t.engine t.manager

(* Judges a recovery of an image taken at this instant. *)
let judge t image result = Spec_tracker.judge t.tracker image result
let passes t image result = Spec_tracker.ok (judge t image result)

(* The whole acked state: the stable database overlaid with the acked
   versions it does not serve yet, those first. *)
let committed t =
  let unsettled = Spec_tracker.unsettled t.tracker in
  unsettled
  @ List.filter
      (fun (oid, _) -> not (List.mem_assoc oid unsettled))
      (El_disk.Stable_db.snapshot (El_core.El_manager.stable t.manager))

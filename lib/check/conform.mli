(** The workload-matrix conformance harness behind [el-sim conform].

    One {e cell} is a (workload preset × log-manager kind) pair; the
    harness runs every cell through three batteries and collects every
    divergence instead of stopping at the first:

    + the audited crash-point sweep ({!Sweep.run} with the
      {!Spec_tracker} durable-log state machine, its settled and spec
      checks, and a crash/recover/audit cycle at every EL pause);
    + the same traffic under a torn-write fault plan (0.2 per log
      write), so every crash image carries checksum-failing tails
      recovery must discard without dropping a committed update;
    + the durable-store legs: mem- vs file-backed replays of the run
      must recover identical states and identical results modulo the
      backend name, and (EL only) a mid-run crash under torn faults
      must replay the frozen store image to the same state as the
      simulated crash image.

    Everything is seeded and deterministic: a cell's outcome is a pure
    function of (preset, kind, seed, stride), and a multi-job pool
    fans the sweeps out with identical findings. *)

open El_model

type cell = {
  preset : string;
  kind : string;  (** ["el"], ["fw"] or ["hybrid"] *)
  events : int;  (** dispatched by the base sweep *)
  points : int;  (** audit pauses taken by the base sweep *)
  recoveries : int;  (** crash/recover cycles, base + torn sweeps *)
  committed : int;
  killed : int;
  contention_aborts : int;
      (** skewed-draw collisions; non-zero is the point of the
          contention-bearing presets *)
  contention_retries : int;
  spec_checks : int;  (** explicit durable-log spec checks performed *)
  torn_blocks : int;  (** torn tails discarded across the torn sweep *)
  torn_records : int;
  store_checked : bool;  (** the store battery ran for this cell *)
  failures : string list;  (** every divergence, prefixed by battery *)
}

type report = { cells : cell list; failure_count : int }

val ok : report -> bool

val run :
  ?pool:El_par.Pool.t ->
  ?shards:int ->
  ?presets:El_workload.Workload_preset.t list ->
  ?runtime:Time.t ->
  ?rate:float ->
  ?seed:int ->
  ?stride:int ->
  ?max_points:int ->
  ?min_points:int ->
  ?store_dir:string ->
  ?store_runtime:Time.t ->
  unit ->
  report
(** Runs the full matrix over the three {!Sweep.standard_kinds}.
    Defaults: all six presets, 20 s runs at 40 TPS, seed 42, stride 100,
    uncapped audit points, no minimum-point requirement, store images
    in the current directory, 6 s store-leg runs.  [min_points] makes
    a cell whose base or torn sweep paused fewer than that many times
    a failure — the CI quick leg requires 50.  The store legs truncate
    the runtime to [store_runtime] (file-backend fsyncs are real) and
    run with the observer off.  [shards] (default 1) runs every cell
    through the sharded composite oracle instead; the store battery is
    solo-only and is skipped (with [store_checked = false]) when
    [shards > 1]. *)

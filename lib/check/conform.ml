open El_model
module Experiment = El_harness.Experiment
module Generator = El_workload.Generator
module Preset = El_workload.Workload_preset
module Recovery = El_recovery.Recovery
module FP = El_fault.Fault_plan

type cell = {
  preset : string;
  kind : string;
  events : int;
  points : int;
  recoveries : int;
  committed : int;
  killed : int;
  contention_aborts : int;
  contention_retries : int;
  spec_checks : int;
  torn_blocks : int;
  torn_records : int;
  store_checked : bool;
  failures : string list;
}

type report = { cells : cell list; failure_count : int }

let ok report = report.failure_count = 0

(* The torn battery reuses the fault CLI's storm shape: torn writes on
   the log channels only — latency faults on a log channel can defer a
   survivor's forward write past its origin slot's reuse, a real
   hazard documented in DESIGN.md Sec. 10, so the conformance matrix
   keeps timing nominal and attacks the crash images instead. *)
let torn_plan ~seed =
  FP.make ~seed
    ~log_spec:{ FP.clean_spec with FP.torn_rate = 0.2 }
    ~log_gens:2 ~flush_drives:2 ()

(* Store-backend results compared modulo the fields that name the
   backend; the counters themselves must agree (mem counts its
   barriers even though they are no-ops). *)
let neutral_result (r : Experiment.result) =
  { r with Experiment.backend_name = "" }

let recovered_view (r : Recovery.result) =
  ( List.sort compare (El_disk.Stable_db.snapshot r.Recovery.recovered),
    List.sort compare r.Recovery.committed_tids,
    r.Recovery.records_scanned,
    r.Recovery.torn_blocks,
    r.Recovery.torn_records )

let run_and_recover (cfg : Experiment.config) =
  let live = Experiment.prepare cfg in
  Fun.protect
    ~finally:(fun () -> Experiment.dispose live)
    (fun () ->
      let result = live.Experiment.finish () in
      let store = Option.get live.Experiment.store in
      let r =
        Recovery.recover_store ~num_objects:cfg.Experiment.num_objects
          (El_store.Log_store.backend store)
      in
      (result, recovered_view r))

(* Battery 3: the durable-store legs.  (a) the mem- and file-backed
   replays of the same seeded run must recover identical states and
   produce identical results modulo the backend name; (b) EL only, a
   mid-run crash under torn faults: the frozen store image must replay
   to the same recovered state as the simulated crash image. *)
let store_battery ~fail ~store_dir ~store_runtime (cfg : Experiment.config) =
  let cfg =
    { cfg with Experiment.runtime = store_runtime; observer = None }
  in
  let rm, sm = run_and_recover { cfg with Experiment.backend = Mem_store } in
  let rf, sf =
    run_and_recover { cfg with Experiment.backend = File_store store_dir }
  in
  if Marshal.to_string sm [] <> Marshal.to_string sf [] then
    fail "mem/file store replays recovered different states";
  if
    Marshal.to_string (neutral_result rm) []
    <> Marshal.to_string (neutral_result rf) []
  then fail "mem/file runs diverged beyond the backend name";
  match cfg.Experiment.kind with
  | Experiment.Firewall _ | Experiment.Hybrid _ -> ()
  | Experiment.Ephemeral _ ->
    let cfg =
      {
        cfg with
        Experiment.backend = Mem_store;
        fault = torn_plan ~seed:cfg.Experiment.seed;
      }
    in
    let crash_at = Time.div_int (Time.mul_int store_runtime 3) 4 in
    let _result, sim, audit, store =
      Experiment.run_with_crash_store cfg ~crash_at
    in
    if not audit.Recovery.ok then
      fail
        (Format.asprintf "crash recovery diverged under torn faults: %a"
           Recovery.pp_audit audit);
    (match store with
    | None -> fail "store recovery missing from crash run"
    | Some st ->
      if
        Marshal.to_string (recovered_view sim) []
        <> Marshal.to_string (recovered_view st) []
      then fail "store replay disagrees with the simulated crash image")

let sweep_failures ~fail ~min_points (o : Sweep.outcome) =
  if o.Sweep.overloaded then fail "log overloaded"
  else if o.Sweep.faulted then fail "io fatal"
  else if o.Sweep.points < min_points then
    fail
      (Printf.sprintf "only %d audit points (need %d)" o.Sweep.points
         min_points);
  List.iter
    (fun (at, msg) -> fail (Printf.sprintf "[event %d] %s" at msg))
    o.Sweep.failures

let run_cell ?pool ~shards ~runtime ~rate ~seed ~stride ~max_points ~min_points
    ~store_dir ~store_runtime (p : Preset.t) (kind_name, kind) =
  let failures = ref [] in
  let fail ~battery msg =
    failures := Printf.sprintf "%s: %s" battery msg :: !failures
  in
  (* Battery 1: the audited crash-point sweep — Auditor at every
     pause, crash/recover/audit at every EL pause, and the
     machine-checked durable-log spec, with its settled and spec
     checks, over the whole run.  With [shards > 1] the sweep runs the
     sharded composite oracle instead (per-shard models plus the global
     atomic-commit invariant over every crash point). *)
  let cfg = Sweep.standard_config ~kind ~runtime ~rate ~seed ~preset:p () in
  let cfg = { cfg with Experiment.shards } in
  let base =
    Sweep.run ?pool ~stride ~max_points ~recover:true ~oracle:true ~spec:true
      cfg
  in
  sweep_failures ~fail:(fail ~battery:"sweep") ~min_points base;
  (* Battery 2: the same traffic under torn log writes — every crash
     image now has checksum-failing tails that recovery must discard
     without losing a committed update. *)
  let torn =
    Sweep.run ?pool ~stride ~max_points ~recover:true ~oracle:true
      { cfg with Experiment.fault = torn_plan ~seed }
  in
  sweep_failures ~fail:(fail ~battery:"torn") ~min_points torn;
  (* The store battery replays through the solo harness, which has no
     sharded path — skipped (and flagged) when shards > 1. *)
  if shards = 1 then
    store_battery
      ~fail:(fail ~battery:"store")
      ~store_dir ~store_runtime cfg;
  {
    preset = p.Preset.name;
    kind = kind_name;
    events = base.Sweep.events;
    points = base.Sweep.points;
    recoveries = base.Sweep.recoveries + torn.Sweep.recoveries;
    committed = base.Sweep.committed;
    killed = base.Sweep.killed;
    contention_aborts = base.Sweep.contention_aborts;
    contention_retries = base.Sweep.contention_retries;
    spec_checks = base.Sweep.spec_checks;
    torn_blocks = torn.Sweep.torn_blocks;
    torn_records = torn.Sweep.torn_records;
    store_checked = shards = 1;
    failures = List.rev !failures;
  }

let run ?pool ?(shards = 1) ?(presets = Preset.all) ?(runtime = Time.of_sec 20)
    ?(rate = 40.0) ?(seed = 42) ?(stride = 100) ?(max_points = max_int)
    ?(min_points = 0) ?(store_dir = ".") ?(store_runtime = Time.of_sec 6) () =
  let cells =
    List.concat_map
      (fun p ->
        List.map
          (run_cell ?pool ~shards ~runtime ~rate ~seed ~stride ~max_points
             ~min_points ~store_dir ~store_runtime p)
          (Sweep.standard_kinds ()))
      presets
  in
  {
    cells;
    failure_count =
      List.fold_left (fun a c -> a + List.length c.failures) 0 cells;
  }

(** One complete simulation run: engine + disks + log manager +
    workload generator, wired together and measured.

    This reproduces the simulator of §3: the caller chooses the log
    manager (EL with a policy, or the FW baseline), the transaction
    mix, the arrival rate, the flush array (drives × transfer time)
    and the runtime; {!run} executes the simulation and returns every
    statistic the paper's evaluation reports. *)

open El_model

type manager_kind =
  | Ephemeral of El_core.Policy.t
  | Firewall of int  (** log size in blocks *)
  | Hybrid of int array  (** §6 EL–FW hybrid, queue sizes in blocks *)

(** Where the log's durable bytes live. *)
type backend =
  | Sim  (** no store: durability is simulated, as in the original model *)
  | Mem_store
      (** an {!El_store.Backend.mem} image — real serialization and
          scan, no syscalls; fsync barriers are counted no-ops *)
  | File_store of string
      (** a real [disk.img] under the given directory (a fresh
          [Filename.temp_file] per prepared run), written with
          pwrite + fsync *)

type config = {
  kind : manager_kind;
  mix : El_workload.Mix.t;
  arrival_rate : float;  (** transactions per second (paper: 100) *)
  arrival_process : El_workload.Generator.arrival_process;
      (** [Deterministic] (paper), [Poisson], or ON/OFF [Burst] *)
  draw : El_workload.Draw.t;
      (** oid-drawing policy: [Uniform] (paper) or [Zipfian] hot-key
          skew.  Zipfian draws can collide with an active writer, in
          which case the drawing transaction aborts and retries under
          the budget below. *)
  lifetime : El_workload.Lifetime.t;
      (** per-transaction duration scaling: [Fixed] (paper) or
          [Pareto] long tails *)
  max_retries : int;
      (** contention retry budget per logical transaction (0: a
          contended draw just aborts) *)
  retry_backoff : Time.t;
      (** base of the seeded exponential backoff between contention
          retries *)
  runtime : Time.t;  (** simulated span (paper: 500 s) *)
  flush_drives : int;  (** paper: 10 *)
  flush_transfer : Time.t;  (** paper: 25 ms (45 ms in the scarce test) *)
  flush_scheduling : El_disk.Flush_array.scheduling;
      (** [Nearest] (paper) or [Fifo] (ablation) *)
  flush_impl : El_disk.Flush_array.implementation;
      (** [Indexed] (default, O(log B) picks) or [Reference] (the
          retained linear scan, for differential testing and as the
          benchmark baseline) *)
  num_objects : int;  (** paper: 10^7 *)
  seed : int;
  abort_fraction : float;  (** 0 in the paper; >0 for fault injection *)
  observer : El_obs.Obs.config option;
      (** [Some cfg] turns on the observability layer (trace ring,
          metric registry, time-series sampler).  [None] — the default
          — leaves every hook a no-op, and either way the simulation's
          {!result} is identical: observers never schedule events or
          draw randomness. *)
  fault : El_fault.Fault_plan.t;
      (** Disk fault schedule ({!El_fault.Fault_plan.empty} by
          default).  The empty plan creates no injector at all, and an
          armed-but-inert plan (all rates zero, no windows, no
          degraded mode) resolves every op nominally — both produce
          results byte-identical to a fault-free run (pinned by a
          regression test).  A plan with [degraded = Some _] arms the
          load-shedding wrapper: once the flush backlog passes the
          threshold, arriving transactions are admitted and
          immediately shed (killed + aborted), counted in
          [result.killed] and in {!El_fault.Injector.sheds}.  A run
          that exhausts a device's spare sectors raises
          {!El_fault.Injector.Io_fatal} out of {!live.finish}. *)
  backend : backend;
      (** [Sim] by default.  With [Mem_store] or [File_store], every
          sealed log block and stable install is also serialized into
          an {!El_store.Log_store} image before completion hooks fire,
          so {!El_recovery.Recovery.recover_store} can replay it. *)
  pooling : bool;
      (** [true] (default) recycles ledger LOT/LTT entries and hybrid
          arena segments through free lists, so steady-state
          transaction churn allocates nothing.  [false] allocates
          fresh structures each time, for A/B allocation profiling.
          Results are byte-identical either way (pinned by a
          regression test). *)
  group_fsync : bool;
      (** [true] puts the store (when [backend] is not [Sim]) in
          {!El_store.Log_store.Grouped} sync mode: segments appended
          while the engine settles share one barrier instead of one
          each.  [false] (default) fsyncs every segment. *)
  shards : int;
      (** number of oid-range partitions, each with its own manager
          plant (1 — the default — is the solo path).  {!prepare}
          itself only accepts 1; configs with [shards > 1] run through
          [El_shard.Shard_group], which shares this record so every
          sweep and CLI surface carries one config type. *)
}

val default_config : kind:manager_kind -> mix:El_workload.Mix.t -> config
(** The paper's standard setup: 100 TPS, 500 s, 10 drives × 25 ms,
    10^7 objects, seed 42, no aborts, no faults, uniform drawing,
    fixed lifetimes, no contention retries. *)

val apply_preset : config -> El_workload.Workload_preset.t -> config
(** Overwrites the traffic half of the config — mix, arrival process,
    draw, lifetime, retry budget and backoff — with the preset's,
    leaving the plant (kind, rate, runtime, drives, sizing, seed,
    observer, fault plan, backend) untouched. *)

(** The three managers the paper compares, behind one value: every
    caller reaches its manager through it and the functions below. *)
type manager =
  | El_log of El_core.El_manager.t
  | Fw_log of El_core.Fw_manager.t
  | Hybrid_log of El_core.Hybrid_manager.t

type manager_stats =
  | El_log_stats of El_core.El_manager.stats
  | Fw_log_stats of El_core.Fw_manager.stats
  | Hybrid_log_stats of El_core.Hybrid_manager.stats

val sink_of : manager -> El_workload.Generator.sink
(** The manager's workload face: begin, write, commit and abort. *)

val drain : manager -> unit
(** Forces out every partially filled log buffer. *)

val set_on_kill : manager -> (El_model.Ids.Tid.t -> unit) -> unit
(** Installs the callback the manager runs when it kills a transaction
    for log space. *)

type result = {
  total_blocks : int;  (** configured log size, all generations *)
  log_writes_per_gen : int array;
  log_writes_total : int;
  log_write_rate : float;  (** block writes per second, log only *)
  peak_memory_bytes : int;
  started : int;
  committed : int;
  aborted : int;
  killed : int;
  contention_aborts : int;
      (** aborts caused by a skewed draw hitting an active writer
          (also counted in [aborted]) *)
  contention_retries : int;
      (** relaunches scheduled after contention aborts (each retry is
          a fresh [started] transaction) *)
  evictions : int;
  overloaded : bool;  (** the run aborted with [Log_overloaded] *)
  feasible : bool;  (** no kills, no evictions, no overload *)
  updates_per_sec : float;
  flushes_completed : int;
  forced_flushes : int;
  flush_mean_distance : float;
  flush_backlog_peak : int;
  commit_latency_mean : float;  (** seconds, t₃→t₄ *)
  forwarded_records : int;
  recirculated_records : int;
  stats : manager_stats list;
      (** each plant's manager statistics: one entry for a solo run,
          one per shard (in shard order) for a sharded one *)
  backend_name : string;  (** ["sim"], ["mem"] or ["file"] *)
  store_pwrites : int;  (** store write syscalls (0 under [Sim]) *)
  store_barriers : int;  (** fsync barriers issued (counted no-ops on mem) *)
  store_bytes_written : int;
  store_group_syncs : int;
      (** grouped-barrier waves actually issued (0 under [Sim] or
          [Immediate] sync) *)
}

val run : config -> result

(** A live, partially-wired simulation — for tests and examples that
    want to crash it mid-flight or inspect internals. *)
type live = {
  engine : El_sim.Engine.t;
  manager : manager;  (** the manager [kind] selected *)
  obs : El_obs.Obs.t option;
      (** present iff the config's [observer] was set; hand it to
          {!El_obs.Export} after {!live.finish} *)
  fault : El_fault.Injector.t option;
      (** present iff the config's [fault] plan was non-empty; read
          its retry/remap/shed counters after {!live.finish} *)
  store : El_store.Log_store.t option;
      (** present iff the config's [backend] is not [Sim]; scan it
          (before {!dispose}) to recover the durable image *)
  finish : unit -> result;
      (** runs the simulation to [runtime] (from wherever the engine
          is now) and collects the result *)
}

val dispose : live -> unit
(** Closes the live run's store backend and deletes its image file, if
    any.  Callers of {!prepare} with a non-[Sim] backend must call
    this when done; {!run} and the crash runners do it themselves.
    Idempotent for [Sim] runs (a no-op). *)

val prepare :
  ?wrap_sink:(El_workload.Generator.sink -> El_workload.Generator.sink) ->
  config ->
  live
(** [wrap_sink] interposes an observer between the workload generator
    and the log manager (used by benchmarks to time every logging
    call); it must forward each call to the sink it was given.  It
    defaults to the identity. *)

val run_with_crash :
  config -> crash_at:Time.t -> result * El_recovery.Recovery.result * El_recovery.Recovery.audit
(** Runs an EL simulation, captures a crash image at [crash_at],
    recovers from it and audits the outcome; then lets the simulation
    finish for the run statistics.  Raises [Invalid_argument] for a FW
    config (the paper's FW baseline has no recovery model) or if
    [crash_at] exceeds the runtime; raises [Failure] when the run
    overloads and stops before [crash_at] is reached (an adversarial
    scenario on an undersized log), since no crash image exists. *)

val run_with_crash_store :
  config ->
  crash_at:Time.t ->
  result
  * El_recovery.Recovery.result
  * El_recovery.Recovery.audit
  * El_recovery.Recovery.result option
(** Like {!run_with_crash}, but when the config has a store backend it
    also freezes the durable image at the crash instant
    ({!El_core.El_manager.persist_crash_mark}) and, after the run,
    replays it with {!El_recovery.Recovery.recover_store} — the fourth
    element, [None] under [Sim].  The store replay and the simulated
    recovery describe the same crash, so their recovered states must
    agree (pinned by the backend-equivalence tests). *)

(** {2 Plant instances — the sharding seam}

    One log-manager plant: store, stable database, flush array,
    manager and workload-facing sink.  {!prepare} builds exactly one;
    [El_shard.Shard_group] builds one per shard on a shared engine;
    [El_serve.Serve] builds one on the image it attached.  All go
    through {!build_instance}, so a 1-shard group is the solo plant by
    construction. *)
type instance = {
  i_stable : El_disk.Stable_db.t;
  i_flush : El_disk.Flush_array.t;
  i_manager : manager;
  i_store : El_store.Log_store.t option;
  i_sink : El_workload.Generator.sink;
      (** the plant's workload face, already wrapped in the degraded
          load-shedding layer when the fault plan arms one *)
  i_set_on_kill : (El_model.Ids.Tid.t -> unit) -> unit;
      (** installs the kill callback on the plant's manager and its
          shedding wrapper *)
}

val create_store : config -> El_store.Log_store.t option
(** A blank store image per the config's [backend] ([None] for [Sim]),
    a fresh image file per call for [File_store]. *)

val build_instance :
  El_sim.Engine.t ->
  config ->
  ?obs:El_obs.Obs.t ->
  ?inj:El_fault.Injector.t ->
  store:El_store.Log_store.t option ->
  num_objects:int ->
  unit ->
  instance
(** Builds one plant on [engine] over [store].  [num_objects] sizes
    the stable database and flush array — the sharded path passes the
    global oid range plus its 2PC control region, the others
    [cfg.num_objects] — padded up to a multiple of [cfg.flush_drives];
    the padding oids are never written. *)

val dispose_instance : instance -> unit
(** Closes the instance's store backend and removes its image file,
    if any. *)

val collect_instance :
  config ->
  generator:El_workload.Generator.t ->
  overloaded:bool ->
  instance ->
  result
(** Collects a {!result} from one plant plus the (possibly shared)
    generator — the workload counters are the generator's globals, the
    plant counters are this instance's own. *)

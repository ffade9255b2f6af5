(** The deterministic crash-point sweeper.

    A sweep replays a seeded {!El_harness.Experiment.config} and
    pauses at every [stride]-th dispatched event (via
    {!El_sim.Engine.run_steps}, so pause points are event boundaries
    and bit-for-bit reproducible).  At each pause it

    - runs the {!Auditor} over the live manager;
    - for an EL manager (optionally), captures a {!El_recovery.Recovery.crash}
      image, recovers from it and audits the recovered database
      against the reference committed state — i.e. simulates a crash
      at that exact event without disturbing the run;

    then lets the run settle (generator finished, manager drained,
    engine run dry) and performs the final {!Reference} differential
    checks.  Failures are collected, not raised, so one sweep reports
    every divergence it finds.

    With a multi-job {!El_par.Pool}, the crash points fan out across
    the pool: each worker replays the same seeded run — deterministic
    and fully self-owned, so every replay sees bit-identical states —
    and audits every [jobs]-th pause; one worker also performs the
    settled-state checks.  The merged outcome (including the exact
    (event-index, violation) failure list and its order) is identical
    to the serial sweep's, so parallelism can never mask, invent or
    reorder a divergence — pinned by an equivalence test in
    [test/test_par.ml]. *)

open El_model

type outcome = {
  kind : string;  (** ["el"], ["fw"] or ["hybrid"] *)
  seed : int;
  shards : int;  (** 1: the solo path; > 1: the sharded composite *)
  events : int;  (** events dispatched over the whole run *)
  points : int;  (** audit pauses taken *)
  recoveries : int;  (** crash/recover/audit cycles (EL only) *)
  failures : (int * string) list;
      (** (events dispatched at detection, message), oldest first *)
  overloaded : bool;  (** the run died with [Log_overloaded] *)
  faulted : bool;
      (** the run died with {!El_fault.Injector.Io_fatal} — a device
          ran out of spare sectors (deterministic per plan + seed) *)
  committed : int;  (** transactions committed by the generator *)
  killed : int;  (** includes transactions shed by degraded mode *)
  contention_aborts : int;
      (** aborts from a skewed draw hitting an active writer (0 under
          uniform drawing) *)
  contention_retries : int;  (** backoff relaunches after those aborts *)
  max_records_scanned : int;  (** largest recovery scan seen *)
  torn_blocks : int;
      (** torn tails discarded, summed over every crash image audited *)
  torn_records : int;
  io_retries : int;  (** transient failures absorbed over the run *)
  io_remaps : int;  (** spare-sector remaps over the run *)
  sheds : int;  (** transactions shed by degraded mode *)
  spec_checks : int;
      (** explicit {!Spec_tracker} checks performed (invariant at each
          pause, recovered-image check at each crash point, settled
          check); 0 unless [spec] was set *)
  cross_committed : int;
      (** cross-shard (2PC) transactions acknowledged; 0 when
          [shards = 1] *)
  blocked_cross : int;
      (** cross-shard transactions whose protocol died mid-flight and
          blocked (never acknowledged, presumed abort at recovery) *)
  atomic_checks : int;
      (** cross-shard transactions checked against the global
          atomic-commit invariant, summed over every crash point *)
}

val run :
  ?pool:El_par.Pool.t ->
  ?stride:int ->
  ?max_points:int ->
  ?recover:bool ->
  ?oracle:bool ->
  ?spec:bool ->
  El_harness.Experiment.config ->
  outcome
(** [stride] (default 100) is the number of events between pauses;
    [max_points] caps the number of pauses (default: no cap);
    [recover] (default true) enables the per-pause crash/recovery
    cycle on EL runs; [oracle] (default true) enables the differential
    model and its settled-state checks; [spec] (default false) also
    replays the run against the {!El_spec.Durable_log} state machine
    via {!Spec_tracker} — every sink event, kill and flush completion
    must be a legal step, the [persistent ⊆ ephemeral] invariant must
    hold at every pause, each recovered crash image must agree with
    the spec's durable promises, and the settled state must have
    flushed every ack; [pool] (default serial) fans the audit pauses
    out across its workers with an outcome identical to the serial
    sweep's.  Raises [Invalid_argument] if [stride <= 0].

    Every run goes through [El_shard.Shard_group] — a solo config is
    the 1-shard group, so a config with an [observer] raises
    [Invalid_argument] — with one {!Reference} model and one
    {!Spec_tracker} per shard (each shadowing all of its shard's sink
    traffic) and per-shard crash/recover/audit at every owned pause.
    With [shards > 1] the oracle becomes composite: at every crash
    point and once more when settled, no cross-shard transaction may
    recover with a durable decision and a missing branch, nor an
    acknowledged one without its durable decision record; the settled
    checks add router conservation (generator acks = singles + cross)
    and per-shard ack accounting, and failures name their shard. *)

val kind_name : El_harness.Experiment.manager_kind -> string

val scale_kind :
  float -> El_harness.Experiment.manager_kind -> El_harness.Experiment.manager_kind
(** [scale_kind f kind] multiplies the manager's log budget (generation
    sizes, FW blocks) by [f], rounding up; [f <= 1.0] returns the kind
    unchanged.  Used to size the standard geometries for a preset's
    {!El_workload.Workload_preset.space_factor}. *)

val standard_config :
  kind:El_harness.Experiment.manager_kind ->
  ?runtime:Time.t ->
  ?rate:float ->
  ?seed:int ->
  ?abort_fraction:float ->
  ?arrival_process:El_workload.Generator.arrival_process ->
  ?backend:El_harness.Experiment.backend ->
  ?preset:El_workload.Workload_preset.t ->
  unit ->
  El_harness.Experiment.config
(** A check-sized configuration (small log, short transactions, a
    modest flush array) shared by the test suite and the [check] CLI
    subcommand, so both sweep the same state space.  Defaults: 20 s
    runtime, 40 TPS, seed 42, no aborts, deterministic arrivals,
    [Sim] backend.  [preset], when given, replaces the traffic half
    (mix, arrivals, draw, lifetime, retry budget) via
    {!El_harness.Experiment.apply_preset} — note it overrides
    [arrival_process] too — and scales [kind] by the preset's
    [space_factor] (see {!scale_kind}). *)

val standard_kinds : unit -> (string * El_harness.Experiment.manager_kind) list
(** The three managers swept by default: an EL chain, the FW baseline
    and the §6 hybrid, each sized to stay feasible under
    {!standard_config}'s load. *)

(** The deterministic crash-point sweeper.

    A sweep replays a seeded {!El_harness.Experiment.config} and
    pauses at every [stride]-th dispatched event (via
    {!El_sim.Engine.run_steps}, so pause points are event boundaries
    and bit-for-bit reproducible).  At each pause it

    - runs the {!Auditor} over the live manager, and reports the first
      install that ran an EL stable database ahead of the acked state
      ({!Spec_tracker.check_installs});
    - for an EL manager (optionally), captures a {!El_recovery.Recovery.crash}
      image, recovers from it and holds the recovery against the spec
      with {!Spec_tracker.judge} — i.e. simulates a crash at that exact
      event without disturbing the run;

    then lets the run settle (generator finished, manager drained,
    engine run dry) and performs the final {!Spec_tracker} settled
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
  recoveries : int;  (** crash/recover/judge cycles (EL only) *)
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
      (** torn tails discarded, summed over every crash image recovered *)
  torn_records : int;
  io_retries : int;  (** transient failures absorbed over the run *)
  io_remaps : int;  (** spare-sector remaps over the run *)
  sheds : int;  (** transactions shed by degraded mode *)
  spec_checks : int;
      (** explicit {!Spec_tracker} checks performed (the invariant at
          each pause and the settled check); 0 unless [spec] was set *)
  cross_committed : int;
      (** cross-shard (2PC) transactions acknowledged; 0 when
          [shards = 1] *)
  blocked_cross : int;
      (** cross-shard transactions whose protocol died mid-flight and
          blocked (never acknowledged, presumed abort at recovery) *)
  atomic_checks : int;
      (** cross-shard transactions covered by the global atomic-commit
          invariant, summed over every crash point; one {!Atomic}
          proved settled counts without being judged again *)
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
    cycle on EL runs.  Whatever the other flags, the run is replayed
    against the {!El_spec.Durable_log} state machine via one
    {!Spec_tracker} per shard ({!Spec_tracker.prepare}): every sink
    event, kill and flush completion must be a legal step, every
    install into an EL stable database is judged as it lands, and every
    crash point's recovery is held against the spec by
    {!Spec_tracker.judge}.  [oracle] (default true) adds the
    settled-state checks against the plants (router conservation,
    per-shard ack accounting, {!Spec_tracker.check_settled_stable});
    [spec] (default false) adds the spec's own checks — the
    [persistent ⊆ ephemeral] invariant must hold at every pause and the
    settled state must have flushed every ack — and only these count in
    [spec_checks]; [pool] (default serial) fans the audit pauses out
    across its workers with an outcome identical to the serial sweep's.
    Raises [Invalid_argument] if [stride <= 0].

    Every run goes through [El_shard.Shard_group] — a solo config is
    the 1-shard group, so a config with an [observer] raises
    [Invalid_argument] — with per-shard crash/recover/judge at every
    owned pause.
    With [shards > 1] the oracle becomes composite: at every crash
    point and once more when settled, no cross-shard transaction may
    recover with a durable decision and a missing branch, nor an
    acknowledged one without its durable decision record; the settled
    checks add router conservation (generator acks = singles + cross)
    and per-shard ack accounting, and every failure about one shard
    names it (["shard i: ..."]). *)

val run_with_crash :
  El_harness.Experiment.config ->
  crash_at:Time.t ->
  El_harness.Experiment.result
  * El_recovery.Recovery.result
  * Spec_tracker.verdict
  * (El_recovery.Recovery.result * Spec_tracker.verdict) option
(** One crash point at a simulated instant: runs an EL simulation on
    the plant a sweep builds ({!Spec_tracker.prepare}), captures a
    crash image at [crash_at], recovers from it and judges the
    recovery there ({!Spec_tracker.judge}, against the spec of that
    instant); then lets the simulation finish for the run statistics.
    The recovered database returned is a copy, readable after the run.

    When the config has a store backend it also freezes the durable
    image at the crash instant
    ({!El_core.El_manager.persist_crash_mark}) and replays its bytes
    there: a bounded {!El_store.Log_store.scan}, lifted by
    {!El_recovery.Recovery.image_of_scan}, recovered and judged against
    the same spec — the fourth element, [None] under [Sim].  The store
    replay and the simulated recovery describe the same crash, so their
    recovered states must agree (pinned by the backend-equivalence
    tests).

    Raises [Invalid_argument] naming the kind for a FW or hybrid config
    (no crash image: the paper's FW baseline has no recovery model),
    for [shards > 1], for a config with an observer, or if [crash_at]
    exceeds the runtime; raises [Failure] when the run overloads and
    stops before [crash_at] is reached (an adversarial scenario on an
    undersized log), since no crash image exists. *)

(** The composite atomic-commit check of a sharded sweep, judged by
    open transaction.  At each crash point no cross-shard transaction
    may recover with a durable decision and a missing branch, nor an
    acknowledged one without its durable decision.  An acknowledged
    transaction whose decision and every PREPARE marker the live
    stable databases already serve at its control version can fail no
    later point (recovered versions are at least the stable ones,
    stable versions only rise, slot reuse only raises control
    versions), so after the point that finds it so it is not judged
    again.  Blocked transactions stay judged. *)
module Atomic : sig
  type t

  val create : unit -> t

  val add : t -> El_shard.Shard_group.cross -> unit
  (** Hands the check a transaction as it enters 2PC: pass [add t] as
      the group's [~on_cross].  The check keeps it only while it is
      open. *)

  val check :
    t ->
    El_shard.Shard_group.t ->
    El_recovery.Recovery.result array ->
    (int * string) list
  (** Judges the still-open transactions (and those added since the
      last check) against one crash point's per-shard recoveries,
      returning each violation as (gtid, message), oldest transaction
      first — what a judgement of every cross-shard transaction would
      return. *)

  val judged : t -> int
  (** Transactions judged by the last {!check}. *)
end

val kind_name : El_harness.Experiment.manager_kind -> string

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
    [space_factor], multiplying its log budget (generation sizes, FW
    blocks) and rounding up. *)

val standard_kinds : unit -> (string * El_harness.Experiment.manager_kind) list
(** The three managers swept by default: an EL chain, the FW baseline
    and the §6 hybrid, each sized to stay feasible under
    {!standard_config}'s load. *)

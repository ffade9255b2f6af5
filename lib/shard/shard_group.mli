(** N manager plants behind one workload: the multi-shard scale-out.

    A shard group partitions the oid space ({!Partition}) across N
    {!El_harness.Experiment.instance} plants — each with its own
    manager, flush array, stable database and (optionally) durable
    store — on one shared simulation engine, and interposes a router
    between the workload generator and the plants.  Routed operations
    travel through per-shard {!El_par.Spsc} mailboxes: the generator
    is the single producer, the shard the single consumer.  Under the
    deterministic engine each mailbox is drained to empty inside the
    producing call, so event order is exactly that of a direct call;
    the rings are the hand-off seam a wall-clock multi-domain driver
    uses, and {!recover_shards} already fans per-shard recovery out
    across {!El_par.Pool} domains.

    A transaction whose writes all landed on one shard commits
    locally — no coordination at all (the adaptive fast path).  A
    transaction that touched several shards commits by two-phase
    commit ({!Two_pc}): PREPARE marker + local commit per participant,
    then a decision transaction on the coordinator shard; the client
    acknowledgement fires only when the decision record is durable.

    With [shards = 1] the router vanishes: the generator talks to the
    single plant's sink directly, and because plants are built by
    {!El_harness.Experiment.build_instance} — the same function the
    solo path uses, called in the same order — a 1-shard group is
    byte-identical to {!El_harness.Experiment.run} on the same config
    (pinned by a Marshal-identity test). *)

open El_model
module Experiment = El_harness.Experiment

type t

val prepare :
  ?wrap_shard_sink:(int -> El_workload.Generator.sink -> El_workload.Generator.sink) ->
  ?on_shard_kill:(int -> Ids.Tid.t -> unit) ->
  ?retain_cross:bool ->
  ?ctl_slots:int ->
  Experiment.config ->
  t
(** Builds the group for [cfg.shards] shards.  [wrap_shard_sink i]
    interposes an oracle on shard [i]'s sink (all routed traffic —
    branch begins, data writes, 2PC markers, decision transactions —
    flows through it); [on_shard_kill i tid] fires for every kill
    shard [i]'s manager issues, before the router reacts.
    [retain_cross] (default false) keeps every cross-shard
    transaction's state for {!cross_views} — the sweep oracle needs
    it; long benches don't.  [ctl_slots] sizes each shard's 2PC
    control region (default 4096 live cross-shard transactions per
    shard).  Raises [Invalid_argument] if the config carries an
    observer (unsupported on the sharded path) or [shards < 1]. *)

val engine : t -> El_sim.Engine.t
val generator : t -> El_workload.Generator.t
val partition : t -> Partition.t
val instances : t -> Experiment.instance array
val config : t -> Experiment.config

val injector : t -> El_fault.Injector.t option
(** The shared fault injector, when the config's plan is non-empty —
    one stream across all shards, consumed in deterministic order. *)

val drain_managers : t -> unit
(** {!Experiment.drain} on every shard's manager — the sweep's settle
    step. *)

(** {2 2PC registry views — the composite oracle's raw material} *)

type gtx_view = {
  v_gtid : int;
  v_coordinator : int;
  v_participants : int list;
  v_phase : Two_pc.phase;
  v_marker_oids : (int * Ids.Oid.t) list;
      (** the (shard, control oid) of every PREPARE marker written,
          retained after the slots are freed.  Durability evidence
          that outlives the ephemeral log: the marker's version is the
          gtid, slots are reused only after their transaction settles
          durably and versions are monotone per oid, so a recovered
          version [>= v_gtid] at the oid proves the branch's commit
          was durable even after its log records were discarded. *)
  v_decision_oid : Ids.Oid.t option;
      (** the decision record's control oid on the coordinator, same
          monotone-version evidence rules as {!v_marker_oids}. *)
}

val ctl_version : gtid:int -> int
(** The version a control record (PREPARE marker, decision record)
    carries: the gtid shifted to stay positive.  Strictly monotone in
    the gtid, so reused slots keep per-oid version monotonicity. *)

val cross_views : t -> gtx_view list
(** Every transaction that entered two-phase commit (≥ 2 participants),
    oldest first — both settled and in-flight.  Empty unless
    [retain_cross] was set. *)

val live_views : t -> gtx_view list
(** Transactions currently in the registry (not yet settled),
    regardless of [retain_cross]. *)

(** {2 Counters} *)

val single_committed : t -> int
(** Acknowledged transactions that took the single-shard fast path. *)

val cross_committed : t -> int
(** Acknowledged cross-shard (2PC) transactions. *)

val blocked : t -> int
(** Cross-shard transactions whose protocol died mid-flight (killed
    branch or decision): never acknowledged, resolved by presumed
    abort at recovery. *)

val prepares_written : t -> int
(** PREPARE marker records written into participant logs. *)

val shard_committed : t -> int array
(** Per shard: transactions whose commit completed there — fast-path
    singles on their shard, cross-shard transactions on their
    coordinator.  Sums to the generator's committed count. *)

val mailbox_ops : t -> int array
(** Per shard: operations routed through its SPSC mailbox. *)

val branch_acks : t -> int array
(** Per shard: 2PC branch commits acknowledged durable there.  A
    shard's differential model therefore sees
    [shard_committed.(i) + branch_acks.(i)] acknowledged commits in
    total — fast-path singles and coordinated decisions land in the
    first term, prepared branches in the second. *)

(** {2 Running} *)

type shard_stat = {
  ss_shard : int;
  ss_lo : int;
  ss_hi : int;  (** owned data oid range [[lo, hi)] *)
  ss_committed : int;  (** see {!shard_committed} *)
  ss_branch_acks : int;
  ss_decisions : int;  (** decision transactions coordinated here *)
  ss_mailbox_ops : int;
  ss_result : Experiment.result;  (** this plant's own counters *)
}

type run_result = {
  r_global : Experiment.result;
      (** workload-global counters plus plant counters summed across
          shards, and every shard's manager stats in shard order; at
          [shards = 1] exactly the solo result *)
  r_shards : shard_stat array;
  r_single_committed : int;
  r_cross_committed : int;
  r_prepares : int;
  r_blocked : int;
}

val collect : t -> overloaded:bool -> run_result
(** Collects without running — for steppers (the sweep) that drove
    the engine themselves. *)

val finish : t -> run_result
(** Runs the engine to the config's runtime, syncs every store and
    collects.  Overload on any shard stops the whole run, as solo. *)

val dispose : t -> unit
(** Closes and removes every shard's store image. *)

val run : Experiment.config -> run_result
(** [prepare] + [finish] + [dispose]. *)

val run_global : Experiment.config -> Experiment.result
(** Just the aggregate — the drop-in the min-space search probes with
    when [shards > 1]. *)

(** {2 Crash capture and sharded recovery} *)

val crash_images : t -> El_recovery.Recovery.image array
(** One crash image per shard, captured at the same engine instant
    (no events run between captures — the engine is halted while this
    executes).  EL managers only, like {!El_recovery.Recovery.crash};
    raises [Invalid_argument] on FW or hybrid shards. *)

val recover_shards :
  ?pool:El_par.Pool.t ->
  El_recovery.Recovery.image array ->
  El_recovery.Recovery.result array
(** Recovers every shard's image — across the pool's domains when one
    is given (one shard per domain), serially otherwise.  Recovery is
    embarrassingly parallel across shards; results are in shard
    order either way. *)

val resolve_in_doubt :
  t ->
  committed_tids:Ids.Tid.t list array ->
  (gtx_view * [ `Committed | `Aborted ]) list
(** Presumed-abort resolution of every retained cross-shard
    transaction against the per-shard recovered committed sets: a
    transaction is committed iff its decision tid is in its
    coordinator's set ({!Two_pc.resolve}). *)

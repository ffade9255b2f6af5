(** N manager plants behind one workload: the multi-shard scale-out.

    A shard group partitions the oid space ({!Partition}) across N
    {!El_harness.Experiment.instance} plants — each with its own
    manager, flush array, stable database and (optionally) durable
    store — on one shared simulation engine, and interposes a router
    between the workload generator and the plants.  The router calls
    each shard's sink directly, inside the generator's call, so event
    order is exactly that of one plant driven by the generator.

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

type cross
(** A transaction that entered two-phase commit, as handed to
    [prepare]'s [on_cross]: an opaque handle whose {!cross_view} reads
    its live state. *)

val prepare :
  ?wrap_shard_sink:(int -> El_workload.Generator.sink -> El_workload.Generator.sink) ->
  ?on_shard_kill:(int -> Ids.Tid.t -> unit) ->
  ?on_cross:(cross -> unit) ->
  Experiment.config ->
  t
(** Builds the group for [cfg.shards] shards.  [wrap_shard_sink i]
    interposes an oracle on shard [i]'s sink (all routed traffic —
    branch begins, data writes, 2PC markers, decision transactions —
    flows through it); [on_shard_kill i tid] fires for every kill
    shard [i]'s manager issues, before the router reacts.
    [on_cross h] fires as each transaction enters two-phase commit
    (it touched two or more shards), before any branch is asked to
    prepare; the group keeps no handle itself, so a caller keeps only
    the ones it still needs to read (the sweep's atomic-commit oracle
    keeps the open ones).  Each shard's 2PC control region holds
    {!Partition.create}'s default number of live cross-shard
    transactions.  Raises [Invalid_argument] if the config carries an
    observer (unsupported on the sharded path) or [shards < 1]. *)

val engine : t -> El_sim.Engine.t
val generator : t -> El_workload.Generator.t
val instances : t -> Experiment.instance array

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

val cross_count : t -> int
(** How many transactions have entered two-phase commit (≥ 2
    participants), settled and in-flight alike. *)

val cross_view : cross -> gtx_view
(** The transaction's current view; a later call sees its phase move
    on. *)

(** {2 Counters} *)

val single_committed : t -> int
(** Acknowledged transactions that took the single-shard fast path. *)

val cross_committed : t -> int
(** Acknowledged cross-shard (2PC) transactions. *)

val blocked : t -> int
(** Cross-shard transactions whose protocol died mid-flight (killed
    branch or decision): never acknowledged, resolved by presumed
    abort at recovery. *)

val shard_committed : t -> int array
(** Per shard: transactions whose commit completed there — fast-path
    singles on their shard, cross-shard transactions on their
    coordinator.  Sums to the generator's committed count. *)

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
  r_prepares : int;  (** PREPARE marker records written *)
  r_blocked : int;
}

val dispose : t -> unit
(** Closes and removes every shard's store image. *)

val finish : t -> run_result
(** Runs the engine to the config's runtime, from wherever it stands,
    and collects.  Overload on any shard stops the whole run, as
    solo. *)

val run : Experiment.config -> run_result
(** [prepare], {!finish}, then [dispose]. *)

val run_global : Experiment.config -> Experiment.result
(** Just the aggregate — the drop-in the min-space search probes with
    when [shards > 1]. *)

(** {2 Crash capture} *)

val crash_images : t -> El_recovery.Recovery.image array
(** One crash image per shard, captured at the same engine instant
    (no events run between captures — the engine is halted while this
    executes).  EL managers only, like {!El_recovery.Recovery.crash};
    raises [Invalid_argument] naming the first FW or hybrid shard and
    its kind. *)

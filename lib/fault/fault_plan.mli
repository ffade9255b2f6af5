(** Seeded, deterministic disk-fault schedules.

    A plan describes how each device of the simulated disk stack — one
    log channel per generation/queue, one flush drive per database
    disk — misbehaves.  It is pure data: all randomness is derived
    from [seed] by the {!Injector}, on a stream independent of the
    simulation engine's RNG, so attaching a plan never perturbs the
    simulated workload, and the same plan replays the same faults
    op-for-op.  The {!empty} plan injects nothing and is the default
    everywhere; an empty plan leaves every code path byte-identical to
    a build without fault injection (pinned by a regression test).

    Four fault flavours, all per-device and per-I/O-operation:

    - {b transient} errors: the op fails [1..transient_burst] times
      before succeeding, with probability [transient_rate] (or forced
      at the 0-based op indexes in [pinned_transient]).  The device's
      retry policy absorbs up to [retry.budget] failures at
      [retry.penalty] extra service time each; beyond the budget the
      sector is declared bad and remapped, consuming a spare.
    - {b sticky} media errors: the target sector is permanently bad;
      the op succeeds only by remapping onto a spare.  Out of spares,
      the device fails fatally ({!Injector.Io_fatal}).
    - {b torn writes}: with probability [torn_rate] a write is marked
      interruptible — if the machine crashes while it is in service,
      only a prefix of the block reaches the platter.  Torn verdicts
      are drawn when the write starts, so a crash image is a pure
      function of the plan and the op index.
    - {b latency} windows: while simulated time lies in
      [[w_from, w_until)], service times are multiplied by [w_factor]
      (factors of overlapping windows compound).  Latency faults are
      the only flavour that changes timing under the default retry
      policy — they model §5-style fault storms and drive the
      degraded (load-shedding) mode. *)

open El_model

type device = Log_gen of int | Flush_drive of int

val device_name : device -> string
(** ["gen0"], ["drive3"], ... — used in trace events and messages. *)

type window = { w_from : Time.t; w_until : Time.t; w_factor : float }

type spec = {
  transient_rate : float;  (** P(an op suffers transient failures) *)
  transient_burst : int;  (** failures per affected op: 1..burst *)
  pinned_transient : int list;  (** op indexes forced transient *)
  sticky_rate : float;  (** P(an op hits a bad sector) *)
  pinned_sticky : int list;
  torn_rate : float;  (** P(a write is interruptible at crash) *)
  pinned_torn : int list;
  latency : window list;  (** service-time multipliers over sim time *)
}

val clean_spec : spec
(** All rates zero, no pins, no windows.  A plan built from clean
    specs is {e armed but inert}: the injector runs, draws and
    resolves every op, yet resolves every one to the nominal service
    time — results are byte-identical to the {!empty} plan's. *)

type retry = { budget : int; penalty : Time.t }
(** Bounded-retry policy for transient errors.  [penalty] is the
    deterministic extra service time charged per absorbed retry; the
    default is [{budget = 3; penalty = zero}], which makes the
    transient path timing-neutral — a faulted run either completes
    byte-identical to the fault-free run or dies
    deterministically ({!Injector.Io_fatal}), the law pinned by the
    retry/backoff QCheck test. *)

type degraded = { shed_backlog : int }
(** Load shedding under fault storms: when the flush backlog exceeds
    [shed_backlog], newly arriving transactions are shed (killed at
    begin) instead of admitted — the way §5's stress test sheds load
    when flush bandwidth turns scarce. *)

type t = {
  seed : int;  (** root of every per-device fault stream *)
  specs : (device * spec) list;
  retry : retry;
  spares : int;  (** remap capacity per device; fatal when exhausted *)
  degraded : degraded option;
}

val empty : t
(** No specs, no degraded mode: nothing is injected anywhere. *)

val is_empty : t -> bool

val spec_for : t -> device -> spec option

val validate : t -> unit
(** Raises [Invalid_argument] on rates outside [0, 1], burst < 1,
    negative pins/budget/penalty/spares, ill-ordered latency windows
    or duplicate device specs. *)

val make :
  ?seed:int ->
  ?retry:retry ->
  ?spares:int ->
  ?degraded:degraded ->
  ?log_spec:spec ->
  ?flush_spec:spec ->
  log_gens:int ->
  flush_drives:int ->
  unit ->
  t
(** Uniform plan: [log_spec] (default {!clean_spec}) on log channels
    [0..log_gens-1], [flush_spec] on drives [0..flush_drives-1].
    Defaults: seed 0, [{budget = 3; penalty = zero}] retries, 1024
    spares, no degraded mode.  Validates; specifying more log devices than a manager has
    channels is harmless (extra specs are never consulted). *)

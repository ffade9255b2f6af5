(** The transaction workload driver (§3, Figure 3), grown into the
    adversarial-scenario engine.

    Transactions are initiated according to the arrival process
    (deterministic, Poisson or bursty ON/OFF — see {!Arrival}).  Each
    transaction draws its type from the mix, optionally stretches its
    lifetime by a long-tail {!Lifetime} draw, writes a BEGIN record
    immediately, its N data records at equal intervals of (T−ε)/N,
    and requests commit at T by writing a COMMIT record; it then
    waits for the log manager's group-commit acknowledgement.

    Oids are drawn under the no-two-active-writers constraint.  With
    the {!Draw.Uniform} policy the pool hides collisions by rejection
    sampling (the paper's model).  With {!Draw.Zipfian} the skewed
    distribution picks a specific object: a draw landing on another
    active writer's object {e aborts} the drawing transaction and,
    within [max_retries], relaunches it as a fresh transaction after
    a seeded exponential backoff — real contention, with per-run
    abort/retry accounting ({!contention_aborts}, {!retries}) and
    per-event hooks for the observability layer.

    The generator is connected to a log manager through the {!sink}
    record, and the manager reports kills back through {!kill}. *)

open El_model

(** The face a log manager presents to the workload. *)
type sink = {
  begin_tx : tid:Ids.Tid.t -> expected_duration:Time.t -> unit;
      (** a BEGIN tx record enters the log; [expected_duration] is the
          lifetime hint available to the §6 placement extension *)
  write_data :
    tid:Ids.Tid.t -> oid:Ids.Oid.t -> version:int -> size:int -> unit;
      (** a data record enters the log; the run's n-th data record
          carries [version] n, so each object's versions rise *)
  request_commit : tid:Ids.Tid.t -> on_ack:(Time.t -> unit) -> unit;
      (** a COMMIT record enters the log; [on_ack] fires when it is
          durable (time t₄ of Figure 3) *)
  request_abort : tid:Ids.Tid.t -> unit;
      (** an ABORT record enters the log; all the transaction's
          records become garbage *)
}

type t

(** How transaction initiations are spaced — re-exported from
    {!Arrival} so existing [Deterministic]/[Poisson] call sites keep
    compiling.  The paper uses the deterministic pattern; [Poisson]
    and [Burst] serve the burstiness scenarios. *)
type arrival_process = Arrival.process =
  | Deterministic  (** every 1/rate seconds exactly *)
  | Poisson  (** exponential inter-arrival times with mean 1/rate *)
  | Burst of { on_mean : Time.t; off_mean : Time.t; intensity : float }
      (** ON/OFF-modulated Poisson bursts; see {!Arrival.process} *)

val create :
  El_sim.Engine.t ->
  sink:sink ->
  mix:Mix.t ->
  arrival_rate:float ->
  runtime:Time.t ->
  ?arrival_process:arrival_process ->
  ?epsilon:Time.t ->
  ?abort_fraction:float ->
  ?draw:Draw.t ->
  ?lifetime:Lifetime.t ->
  ?max_retries:int ->
  ?retry_backoff:Time.t ->
  ?on_contention:(tid:Ids.Tid.t -> oid:Ids.Oid.t -> attempt:int -> unit) ->
  ?on_retry:(tid:Ids.Tid.t -> attempt:int -> unit) ->
  num_objects:int ->
  unit ->
  t
(** Schedules the whole arrival process on the engine.  [arrival_rate]
    is transactions per second (100 in the paper); [runtime] bounds
    initiation times (retries whose backoff lands past it are
    dropped); [arrival_process] defaults to [Deterministic];
    [abort_fraction] (default 0) makes that fraction of transactions
    abort at the end of their lifetime instead of committing, for
    fault-injection tests; [draw] (default [Uniform]) selects the oid
    distribution; [lifetime] (default [Fixed]) the long-tail
    stretching; [max_retries] (default 0) bounds contention retries
    per original arrival; [retry_backoff] (default 20 ms) is the base
    of the exponential backoff, doubled per attempt plus seeded
    jitter.  [on_contention] fires at each contention abort and
    [on_retry] at each relaunch — observability hooks, never control
    flow. *)

val kill : t -> Ids.Tid.t -> unit
(** Called by the log manager when it kills a transaction (FW log
    full; EL record reaching the last head with recirculation off; or
    unrecirculatable record).  Cancels the transaction's remaining
    activity and releases its oids.  Idempotent.  The generator
    forgets a transaction once it commits or aborts, so it raises
    [Invalid_argument] for such a tid, as for one it never launched,
    and for one still waiting for its commit acknowledgement. *)

val oid_pool : t -> Oid_pool.t

(** Outcome counters, final and in-flight.  Conservation law, checked
    by a property test at every instant:
    [started = committed + aborted + killed + active + awaiting_ack]. *)

val started : t -> int
val committed : t -> int
(** Transactions whose commit has been acknowledged durable. *)

val aborted : t -> int
(** Includes contention aborts and [abort_fraction] aborts. *)

val killed : t -> int
val active : t -> int
(** Transactions begun, not yet terminated (commit requested counts as
    terminated, per the paper's footnote 1 definition of active). *)

val awaiting_ack : t -> int
val data_records_written : t -> int

val contention_aborts : t -> int
(** Transactions aborted because a skewed draw hit an active writer. *)

val retries : t -> int
(** Contention retries actually launched (each also counts in
    [started]). *)

val commit_latency : t -> El_metrics.Running_stat.t
(** Time from commit request (t₃) to acknowledgement (t₄), in
    simulated seconds. *)
